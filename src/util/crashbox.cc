#include "util/crashbox.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <type_traits>

#include "util/calibrate.h"
#include "util/env.h"
#include "util/flight_recorder.h"
#include "util/metrics.h"

namespace bst::util {

// ----------------------------------------------------------- sigsafe helpers

namespace sigsafe {

void write_all(int fd, const void* data, std::size_t len) noexcept {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n > 0) {
      p += n;
      len -= static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return;  // unwritable fd: nothing sane to do from a signal handler
    }
  }
}

void write_str(int fd, const char* s) noexcept {
  if (s != nullptr) write_all(fd, s, std::strlen(s));
}

void write_u64(int fd, std::uint64_t v) noexcept {
  char buf[24];
  char* p = buf + sizeof buf;
  do {
    *--p = static_cast<char>('0' + (v % 10));
    v /= 10;
  } while (v != 0);
  write_all(fd, p, static_cast<std::size_t>(buf + sizeof buf - p));
}

void write_i64(int fd, std::int64_t v) noexcept {
  if (v < 0) {
    write_str(fd, "-");
    // -INT64_MIN overflows; negate in unsigned space.
    write_u64(fd, ~static_cast<std::uint64_t>(v) + 1);
  } else {
    write_u64(fd, static_cast<std::uint64_t>(v));
  }
}

}  // namespace sigsafe

const char* req_phase_name(ReqPhase p) noexcept {
  switch (p) {
    case ReqPhase::kQueued: return "queued";
    case ReqPhase::kFactor: return "factor";
    case ReqPhase::kSolve: return "solve";
  }
  return "unknown";
}

// ------------------------------------------------------------ armed state
//
// Everything the handler touches lives in file-scope PODs with atomic
// members, zero-initialized before any dynamic initializer runs.

namespace {

constexpr std::size_t kPathMax = 512;
constexpr std::size_t kProvMax = 2048;
constexpr std::size_t kTickMax = 16384;

std::atomic<bool> g_installed{false};
std::atomic<bool> g_handlers_set{false};
std::atomic<bool> g_dumped{false};
char g_path[kPathMax];        // written under g_install_mu, read after acquire
char g_provenance[kProvMax];  // pre-serialized at install()

// Last telemetry tick under a seqlock (odd = write in progress).  One
// writer (the exporter thread); the handler tolerates and flags tears.
std::atomic<std::uint32_t> g_tick_seq{0};
std::atomic<std::size_t> g_tick_len{0};
char g_tick_buf[kTickMax];

// Active-request slot table.  id 0 = free slot (service req ids start at 1).
struct ReqSlot {
  std::atomic<std::uint64_t> id;
  std::atomic<std::uint32_t> phase;
  std::atomic<std::uint64_t> since_ns;
};
ReqSlot g_reqs[Crashbox::kMaxRequests];
std::atomic<std::uint32_t> g_req_hint{0};
std::atomic<std::uint64_t> g_req_overflow{0};

std::uint64_t mono_ns() noexcept {
  struct timespec ts;
  if (clock_gettime(CLOCK_MONOTONIC, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

const char* signal_name(int sig) noexcept {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGFPE: return "SIGFPE";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    default: return "signal";
  }
}

extern "C" void crashbox_handler(int sig, siginfo_t* /*info*/, void* /*ctx*/) {
  Crashbox::dump(sig, signal_name(sig));
  // SA_RESETHAND restored the default disposition before we ran; re-raise
  // so the process still dies with the original signal (core, wait status).
  ::raise(sig);
}

// One "<tag> <name> <value>" line per name interned under `kind`, read from
// the registry's fixed slots without a lock.
template <typename ValueOf>
void write_names(int fd, NameKind kind, const char* tag, ValueOf value_of) noexcept {
  const int n = interned_count(kind);
  for (int id = 0; id < n; ++id) {
    sigsafe::write_str(fd, tag);
    sigsafe::write_str(fd, interned_name(kind, id));
    sigsafe::write_str(fd, " ");
    const auto v = value_of(id);
    if constexpr (std::is_signed_v<decltype(v)>) {
      sigsafe::write_i64(fd, v);
    } else {
      sigsafe::write_u64(fd, v);
    }
    sigsafe::write_str(fd, "\n");
  }
}

}  // namespace

// ------------------------------------------------------------- public API

bool Crashbox::install() {
  std::string dir;
  return env::read("BST_CRASH_DIR", dir) && install(dir.c_str());
}

bool Crashbox::install(const char* dir) {
  if (dir == nullptr || *dir == '\0') return false;
  ::mkdir(dir, 0777);  // best-effort; open() below reports real failures

  char path[kPathMax];
  std::snprintf(path, sizeof path, "%s/crash_%ld.bstcrash", dir,
                static_cast<long>(::getpid()));
  std::memcpy(g_path, path, sizeof g_path);

  // Provenance is serialized now so the handler only has to write() it.
  char prov[kProvMax];
  int off = std::snprintf(prov, sizeof prov, "pid %ld\nhw_threads %u\n",
                          static_cast<long>(::getpid()),
                          std::thread::hardware_concurrency());
  const std::string cpu = cpu_model_name();
  const std::string fp = machine_fingerprint();
  off += std::snprintf(prov + off, sizeof prov - static_cast<std::size_t>(off),
                       "cpu %s\nfingerprint %s\n", cpu.c_str(), fp.c_str());
#ifdef BST_BUILD_TYPE
  off += std::snprintf(prov + off, sizeof prov - static_cast<std::size_t>(off),
                       "build %s\n", BST_BUILD_TYPE);
#endif
#ifdef BST_GIT_DESCRIBE
  off += std::snprintf(prov + off, sizeof prov - static_cast<std::size_t>(off),
                       "git %s\n", BST_GIT_DESCRIBE);
#endif
  if (off < 0 || static_cast<std::size_t>(off) >= kProvMax) prov[kProvMax - 1] = '\0';
  std::memcpy(g_provenance, prov, sizeof g_provenance);

  g_dumped.store(false, std::memory_order_relaxed);  // re-arm (tests)
  g_installed.store(true, std::memory_order_release);

  if (!g_handlers_set.exchange(true)) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = crashbox_handler;
    sa.sa_flags = SA_SIGINFO | SA_RESETHAND;
    sigemptyset(&sa.sa_mask);
    for (const int sig : {SIGSEGV, SIGABRT, SIGFPE, SIGBUS, SIGILL}) {
      ::sigaction(sig, &sa, nullptr);
    }
  }
  return true;
}

bool Crashbox::installed() noexcept {
  return g_installed.load(std::memory_order_acquire);
}

std::string Crashbox::report_path() {
  if (!installed()) return std::string();
  return std::string(g_path);
}

void Crashbox::set_last_tick(const char* data, std::size_t len) noexcept {
  if (data == nullptr || !installed()) return;
  if (len > kTickMax) len = kTickMax;
  g_tick_seq.fetch_add(1, std::memory_order_acq_rel);  // odd: write in progress
  std::memcpy(g_tick_buf, data, len);
  g_tick_len.store(len, std::memory_order_relaxed);
  g_tick_seq.fetch_add(1, std::memory_order_release);  // even again
}

int Crashbox::request_begin(std::uint64_t id, ReqPhase phase) noexcept {
  if (!installed() || id == 0) return -1;
  const std::uint32_t h = g_req_hint.fetch_add(1, std::memory_order_relaxed);
  for (int i = 0; i < kMaxRequests; ++i) {
    const int s = static_cast<int>((h + static_cast<std::uint32_t>(i)) %
                                   static_cast<std::uint32_t>(kMaxRequests));
    std::uint64_t expected = 0;
    if (g_reqs[s].id.compare_exchange_strong(expected, id, std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
      g_reqs[s].phase.store(static_cast<std::uint32_t>(phase), std::memory_order_relaxed);
      g_reqs[s].since_ns.store(mono_ns(), std::memory_order_release);
      return s;
    }
  }
  g_req_overflow.fetch_add(1, std::memory_order_relaxed);
  return -1;
}

void Crashbox::request_phase(int slot, ReqPhase phase) noexcept {
  if (slot < 0 || slot >= kMaxRequests) return;
  g_reqs[slot].phase.store(static_cast<std::uint32_t>(phase), std::memory_order_relaxed);
}

void Crashbox::request_end(int slot) noexcept {
  if (slot < 0 || slot >= kMaxRequests) return;
  g_reqs[slot].id.store(0, std::memory_order_release);
}

bool Crashbox::dump(int sig, const char* reason) noexcept {
  if (!installed()) return false;
  if (g_dumped.exchange(true, std::memory_order_acq_rel)) return false;

  const int fd = ::open(g_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;

  using sigsafe::write_all;
  using sigsafe::write_i64;
  using sigsafe::write_str;
  using sigsafe::write_u64;

  write_str(fd, "BSTCRASH v1\n");
  write_str(fd, "signal ");
  write_i64(fd, sig);
  write_str(fd, " ");
  write_str(fd, sig > 0 ? signal_name(sig) : (reason != nullptr ? reason : "manual"));
  write_str(fd, "\n");
  if (reason != nullptr) {
    write_str(fd, "reason ");
    write_str(fd, reason);
    write_str(fd, "\n");
  }
  write_str(fd, "ts_ns ");
  write_u64(fd, mono_ns());
  write_str(fd, "\n");

  write_str(fd, "provenance_begin\n");
  write_str(fd, g_provenance);
  write_str(fd, "provenance_end\n");

  // Counters and gauges: registry names + live relaxed-atomic value reads.
  write_str(fd, "counters_begin\n");
  write_names(fd, NameKind::kCounter, "c ", Metrics::counter_value);
  write_names(fd, NameKind::kGauge, "g ", Metrics::gauge_value);
  write_str(fd, "counters_end\n");

  // Active requests: id, coarse phase, age.
  const std::uint64_t now = mono_ns();
  write_str(fd, "requests_begin\n");
  for (int s = 0; s < kMaxRequests; ++s) {
    const std::uint64_t id = g_reqs[s].id.load(std::memory_order_acquire);
    if (id == 0) continue;
    const std::uint64_t since = g_reqs[s].since_ns.load(std::memory_order_relaxed);
    write_str(fd, "r ");
    write_u64(fd, id);
    write_str(fd, " ");
    write_str(fd, req_phase_name(static_cast<ReqPhase>(
                      g_reqs[s].phase.load(std::memory_order_relaxed))));
    write_str(fd, " ");
    write_u64(fd, now > since ? now - since : 0);
    write_str(fd, "\n");
  }
  const std::uint64_t overflow = g_req_overflow.load(std::memory_order_relaxed);
  if (overflow > 0) {
    write_str(fd, "overflow ");
    write_u64(fd, overflow);
    write_str(fd, "\n");
  }
  write_str(fd, "requests_end\n");

  // Phase-name table so the decoder can name ring events in another process.
  write_str(fd, "phases_begin\n");
  write_names(fd, NameKind::kPhase, "p ", [](int id) { return std::int64_t{id}; });
  write_str(fd, "phases_end\n");

  // Last telemetry tick, length-prefixed; a concurrent writer tears it at
  // worst, and the tear is flagged.
  {
    const std::uint32_t s0 = g_tick_seq.load(std::memory_order_acquire);
    const std::size_t len = g_tick_len.load(std::memory_order_relaxed);
    write_str(fd, "tick ");
    write_u64(fd, len);
    write_str(fd, "\n");
    if (len > 0) write_all(fd, g_tick_buf, len);
    write_str(fd, "\n");
    const std::uint32_t s1 = g_tick_seq.load(std::memory_order_acquire);
    if (s0 != s1 || (s0 & 1u) != 0) write_str(fd, "tick_torn 1\n");
  }

  FlightRecorder::unsafe_dump(fd);

  write_str(fd, "end\n");
  ::close(fd);
  return true;
}

}  // namespace bst::util
