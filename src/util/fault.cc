#include "util/fault.h"

#include <algorithm>
#include <atomic>
#include <cfenv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/env.h"

namespace bst::util {
namespace {

constexpr std::size_t kSiteMax = 32;

// Every site the program fires; BST_FAULT may name no other.
constexpr const char* kSites[] = {"admission", "dispatch", "cache_fill",
                                  "schur_step", "refine",   "pcg"};

std::atomic<bool> g_armed{false};
char g_site[kSiteMax];
FaultKind g_kind = FaultKind::kNone;
std::uint64_t g_count = 1;
std::uint64_t g_hang_ms = 2000;
std::uint64_t g_slow_ms = 50;
std::atomic<std::uint64_t> g_hits{0};
char g_describe[96];

const char* kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kHang: return "hang";
    case FaultKind::kFpTrap: return "fp-trap";
    case FaultKind::kSlow: return "slow";
    case FaultKind::kNone: break;
  }
  return "none";
}

void trigger(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: {
      volatile int* p = nullptr;
      *p = 42;             // SIGSEGV
      std::abort();        // unreachable fallback
    }
    case FaultKind::kFpTrap: {
#if defined(__GLIBC__)
      ::feenableexcept(FE_DIVBYZERO | FE_INVALID);
      volatile double zero = 0.0;
      volatile double r = 1.0 / zero;  // SIGFPE with traps enabled
      (void)r;
#endif
      std::raise(SIGFPE);  // portable fallback (and non-glibc path)
      return;
    }
    case FaultKind::kHang:
      std::this_thread::sleep_for(std::chrono::milliseconds(g_hang_ms));
      return;
    case FaultKind::kSlow:
      std::this_thread::sleep_for(std::chrono::milliseconds(g_slow_ms));
      return;
    case FaultKind::kNone:
      return;
  }
}

// Parse at load time so fire() never has to check "parsed yet?".  A bad
// setting cannot throw past static initialization, so it ends the process
// here with the reader's message.
[[maybe_unused]] const bool g_parsed_at_load = [] {
  try {
    Fault::reload();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::_Exit(2);
  }
  return true;
}();

}  // namespace

bool Fault::armed() noexcept { return g_armed.load(std::memory_order_relaxed); }

const char* Fault::describe() noexcept { return armed() ? g_describe : ""; }

void Fault::reload() {
  g_armed.store(false, std::memory_order_relaxed);
  g_hits.store(0, std::memory_order_relaxed);
  g_kind = FaultKind::kNone;
  g_count = 1;
  g_site[0] = '\0';
  g_describe[0] = '\0';
  g_hang_ms = 2000;
  g_slow_ms = 50;
  env::read("BST_FAULT_HANG_MS", g_hang_ms);
  env::read("BST_FAULT_SLOW_MS", g_slow_ms);

  std::string spec;
  if (!env::read("BST_FAULT", spec)) return;

  // <site>:<kind>[:<count>]
  const auto bad = [&](const std::string& why) {
    return std::runtime_error("BST_FAULT: " + why + " in '" + spec +
                              "' (want site:kind[:count])");
  };
  const std::size_t c1 = spec.find(':');
  if (c1 == std::string::npos) throw bad("no ':'");
  const std::size_t c2 = spec.find(':', c1 + 1);
  const std::string site = spec.substr(0, c1);
  const std::string kind_s = spec.substr(c1 + 1, c2 == std::string::npos ? c2 : c2 - c1 - 1);

  if (std::none_of(std::begin(kSites), std::end(kSites),
                   [&](const char* known) { return site == known; })) {
    throw bad("unknown site '" + site + "'");
  }

  FaultKind kind = FaultKind::kNone;
  for (FaultKind k : {FaultKind::kCrash, FaultKind::kHang, FaultKind::kFpTrap, FaultKind::kSlow}) {
    if (kind_s == kind_name(k)) kind = k;
  }
  if (kind == FaultKind::kNone) throw bad("unknown kind '" + kind_s + "'");

  std::uint64_t count = 1;
  if (c2 != std::string::npos) {
    const std::string count_s = spec.substr(c2 + 1);
    const bool digits = !count_s.empty() && count_s.size() <= 18 &&
                        count_s.find_first_not_of("0123456789") == std::string::npos;
    if (digits) count = std::stoull(count_s);
    if (!digits || count == 0) throw bad("count '" + count_s + "' is not a whole number >= 1");
  }

  std::snprintf(g_site, sizeof g_site, "%s", site.c_str());
  g_kind = kind;
  g_count = count;
  std::snprintf(g_describe, sizeof g_describe, "%s:%s:%llu", g_site, kind_name(kind),
                static_cast<unsigned long long>(count));
  g_armed.store(true, std::memory_order_release);
  std::fprintf(stderr, "[bst_fault] armed %s\n", g_describe);
}

void Fault::fire(const char* site) noexcept {
  if (!armed() || site == nullptr) return;
  if (std::strcmp(site, g_site) != 0) return;
  const std::uint64_t hit = g_hits.fetch_add(1, std::memory_order_relaxed) + 1;
  // slow fires on every hit from the threshold on; the one-shot kinds fire
  // exactly once, on the threshold hit.
  if (g_kind == FaultKind::kSlow ? hit >= g_count : hit == g_count) {
    if (g_kind != FaultKind::kSlow) {
      std::fprintf(stderr, "[bst_fault] firing %s at site '%s' (hit %llu)\n",
                   kind_name(g_kind), g_site, static_cast<unsigned long long>(hit));
    }
    trigger(g_kind);
  }
}

}  // namespace bst::util
