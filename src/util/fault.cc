#include "util/fault.h"

#include <atomic>
#include <cfenv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "util/env.h"

namespace bst::util {
namespace {

constexpr std::size_t kSiteMax = 32;

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
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s", spec.c_str());
  char* kind_s = std::strchr(buf, ':');
  if (kind_s == nullptr) {
    std::fprintf(stderr, "[bst_fault] malformed BST_FAULT '%s' (want site:kind[:count])\n",
                 spec.c_str());
    return;
  }
  *kind_s++ = '\0';
  char* count_s = std::strchr(kind_s, ':');
  if (count_s != nullptr) *count_s++ = '\0';

  FaultKind kind = FaultKind::kNone;
  if (std::strcmp(kind_s, "crash") == 0) kind = FaultKind::kCrash;
  else if (std::strcmp(kind_s, "hang") == 0) kind = FaultKind::kHang;
  else if (std::strcmp(kind_s, "fp-trap") == 0) kind = FaultKind::kFpTrap;
  else if (std::strcmp(kind_s, "slow") == 0) kind = FaultKind::kSlow;
  if (kind == FaultKind::kNone) {
    std::fprintf(stderr, "[bst_fault] unknown fault kind '%s' in BST_FAULT\n", kind_s);
    return;
  }

  std::uint64_t count = 1;
  if (count_s != nullptr && *count_s != '\0') {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(count_s, &end, 10);
    if (end == count_s || n == 0) {
      std::fprintf(stderr, "[bst_fault] bad count '%s' in BST_FAULT\n", count_s);
      return;
    }
    count = static_cast<std::uint64_t>(n);
  }

  std::snprintf(g_site, sizeof g_site, "%.31s", buf);  // site names are short
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
