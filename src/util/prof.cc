#include "util/prof.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "util/env.h"
#include "util/metrics.h"

#if defined(__linux__)
#define BST_HAVE_PROF 1
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <csignal>
#endif

namespace bst::util {
namespace {

// ---------------------------------------------------------------------------
// Counter layout shared by the perf groups and the per-phase accumulators.
// ---------------------------------------------------------------------------

enum Ctr : int {  // PmuCounts field order: PhaseRecord::pmu is indexed by it
  kCycles = 0,
  kInstructions,
  kStalledCycles,
  kBranchMisses,
  kL1dLoads,
  kL1dMisses,
  kLlcLoads,
  kLlcMisses,
  kNumCtr
};
static_assert(kNumCtr == kPmuCounters);

// PMU availability, resolved once by the first thread that tries to open a
// counter group: 0 = not attempted, 1 = ok, 2 = unavailable, 3 = disabled
// by options (BST_PROF_PMU=0), 4 = never requested.
std::atomic<int> g_pmu_state{4};
char g_pmu_err[160] = {0};
std::mutex g_pmu_err_mu;

std::atomic<bool> g_armed{false};
std::atomic<bool> g_was_armed{false};
std::atomic<bool> g_pmu_wanted{false};
std::atomic<std::uint64_t> g_pmu_threads{0};  // threads with open groups

// Process-wide running totals feeding the live telemetry gauges.
std::atomic<std::uint64_t> g_pmu_total[kNumCtr]{};
std::atomic<int> g_gauge_ipc{-1};
std::atomic<int> g_gauge_llc{-1};

// ---------------------------------------------------------------------------
// Per-thread span stack: who is on-CPU right now, for both the PMU deltas
// and the sampler's phase attribution.  The signal handler reads it, so
// writes are ordered with atomic_signal_fence: the frame is fully written
// before the depth that exposes it, and the depth retreats before a frame
// is reused.
// ---------------------------------------------------------------------------

struct SpanFrame {
  PhaseId id = -1;
  bool have_pmu = false;
  PmuCounts c0;
};

thread_local SpanFrame t_frames[Prof::kMaxSpanDepth];
thread_local int t_depth = 0;
thread_local std::uint64_t t_req = 0;

#if defined(BST_HAVE_PROF)

// ---------------------------------------------------------------------------
// perf_event groups.  Two per thread: "core" (leader: cycles) and "mem"
// (leader: L1d read accesses), read in one syscall each via
// PERF_FORMAT_GROUP.  Sibling events that fail to open (odd PMUs, missing
// generic cache events) are skipped individually; only a core-leader
// failure marks the PMU unavailable.
// ---------------------------------------------------------------------------

struct EventSpec {
  std::uint32_t type;
  std::uint64_t config;
  int ctr;  // Ctr slot the reading lands in
};

constexpr std::uint64_t hw_cache(std::uint64_t id, std::uint64_t op, std::uint64_t result) {
  return id | (op << 8) | (result << 16);
}

const EventSpec kCoreEvents[] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, kCycles},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, kInstructions},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_STALLED_CYCLES_FRONTEND, kStalledCycles},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES, kBranchMisses},
};
const EventSpec kMemEvents[] = {
    {PERF_TYPE_HW_CACHE,
     hw_cache(PERF_COUNT_HW_CACHE_L1D, PERF_COUNT_HW_CACHE_OP_READ,
              PERF_COUNT_HW_CACHE_RESULT_ACCESS),
     kL1dLoads},
    {PERF_TYPE_HW_CACHE,
     hw_cache(PERF_COUNT_HW_CACHE_L1D, PERF_COUNT_HW_CACHE_OP_READ,
              PERF_COUNT_HW_CACHE_RESULT_MISS),
     kL1dMisses},
    {PERF_TYPE_HW_CACHE,
     hw_cache(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
              PERF_COUNT_HW_CACHE_RESULT_ACCESS),
     kLlcLoads},
    {PERF_TYPE_HW_CACHE,
     hw_cache(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
              PERF_COUNT_HW_CACHE_RESULT_MISS),
     kLlcMisses},
};

constexpr int kMaxGroupEvents = 4;

struct PerfGroup {
  int leader = -1;
  int n = 0;               // events actually opened (including the leader)
  int ctr[kMaxGroupEvents] = {-1, -1, -1, -1};  // reading index -> Ctr slot

  void close_all() noexcept {
    // Siblings share the leader's lifetime from the kernel's point of view,
    // but we hold one fd per event; the leader's fd is fds[0].
    for (int i = 0; i < n; ++i) {
      if (fds[i] >= 0) ::close(fds[i]);
      fds[i] = -1;
    }
    leader = -1;
    n = 0;
  }
  int fds[kMaxGroupEvents] = {-1, -1, -1, -1};
};

long perf_open(const EventSpec& ev, int group_fd) noexcept {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = ev.type;
  attr.config = ev.config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;  // works at perf_event_paranoid <= 2
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  // pid=0, cpu=-1: this thread, wherever it runs.
  return ::syscall(SYS_perf_event_open, &attr, 0, -1, group_fd, 0);
}

struct PmuThread {
  PerfGroup core;
  PerfGroup mem;
  bool opened = false;  // open was attempted (success or not)
  bool ok = false;      // the core group is live
  ~PmuThread() {
    core.close_all();
    mem.close_all();
    if (ok) g_pmu_threads.fetch_sub(1, std::memory_order_relaxed);
    ok = false;
  }
};

thread_local PmuThread t_pmu;

void note_pmu_unavailable(int err) noexcept {
  int expected = 0;
  if (g_pmu_state.compare_exchange_strong(expected, 2, std::memory_order_relaxed) ||
      expected == 2) {
    std::lock_guard lock(g_pmu_err_mu);
    if (g_pmu_err[0] == 0) {
      std::snprintf(g_pmu_err, sizeof(g_pmu_err),
                    "unavailable: perf_event_open failed (%s); "
                    "check kernel.perf_event_paranoid / container seccomp",
                    std::strerror(err));
    }
  }
}

bool open_group(PerfGroup& g, const EventSpec* evs, int n_evs) noexcept {
  for (int i = 0; i < n_evs; ++i) {
    const long fd = perf_open(evs[i], g.leader);
    if (fd < 0) {
      if (i == 0) return false;  // leader failed: no group at all
      continue;                  // sibling failed: measure what we can
    }
    if (i == 0) g.leader = static_cast<int>(fd);
    g.fds[g.n] = static_cast<int>(fd);
    g.ctr[g.n] = evs[i].ctr;
    ++g.n;
  }
  return g.n > 0;
}

/// Lazily opens this thread's groups.  Returns t_pmu.ok.
bool ensure_open() noexcept {
  if (t_pmu.opened) return t_pmu.ok;
  t_pmu.opened = true;
  if (!open_group(t_pmu.core, kCoreEvents, 4)) {
    note_pmu_unavailable(errno);
    return false;
  }
  // The mem group is best-effort: some PMUs lack the generic cache events.
  if (!open_group(t_pmu.mem, kMemEvents, 4)) t_pmu.mem.close_all();
  int expected = 0;
  g_pmu_state.compare_exchange_strong(expected, 1, std::memory_order_relaxed);
  g_pmu_threads.fetch_add(1, std::memory_order_relaxed);
  t_pmu.ok = true;
  return true;
}

/// One PERF_FORMAT_GROUP read, multiplex-scaled by time_enabled/time_running.
/// Async-signal-safe (read(2) + arithmetic only).
bool read_group(const PerfGroup& g, std::uint64_t out[kNumCtr]) noexcept {
  if (g.n <= 0) return true;
  // Layout: nr, time_enabled, time_running, value[nr].
  std::uint64_t buf[3 + kMaxGroupEvents];
  const ssize_t want = static_cast<ssize_t>((3 + g.n) * sizeof(std::uint64_t));
  if (::read(g.fds[0], buf, static_cast<std::size_t>(want)) != want) return false;
  const std::uint64_t enabled = buf[1], running = buf[2];
  const double scale =
      (running > 0 && running < enabled)
          ? static_cast<double>(enabled) / static_cast<double>(running)
          : 1.0;
  const auto nr = static_cast<int>(buf[0]) < g.n ? static_cast<int>(buf[0]) : g.n;
  for (int i = 0; i < nr; ++i) {
    out[g.ctr[i]] = static_cast<std::uint64_t>(static_cast<double>(buf[3 + i]) * scale);
  }
  return true;
}

bool read_current(PmuCounts& c) noexcept {
  std::uint64_t v[kNumCtr] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (!read_group(t_pmu.core, v)) return false;
  (void)read_group(t_pmu.mem, v);  // best-effort
  c.cycles = v[kCycles];
  c.instructions = v[kInstructions];
  c.stalled_cycles = v[kStalledCycles];
  c.branch_misses = v[kBranchMisses];
  c.l1d_loads = v[kL1dLoads];
  c.l1d_misses = v[kL1dMisses];
  c.llc_loads = v[kLlcLoads];
  c.llc_misses = v[kLlcMisses];
  return true;
}

#endif  // BST_HAVE_PROF

void update_live_gauges() noexcept {
  const int gi = g_gauge_ipc.load(std::memory_order_relaxed);
  const int gl = g_gauge_llc.load(std::memory_order_relaxed);
  if (gi < 0 && gl < 0) return;
  const std::uint64_t cyc = g_pmu_total[kCycles].load(std::memory_order_relaxed);
  const std::uint64_t ins = g_pmu_total[kInstructions].load(std::memory_order_relaxed);
  const std::uint64_t lda = g_pmu_total[kLlcLoads].load(std::memory_order_relaxed);
  const std::uint64_t mis = g_pmu_total[kLlcMisses].load(std::memory_order_relaxed);
  if (gi >= 0 && cyc > 0) {
    Metrics::gauge_set(gi, static_cast<std::int64_t>(1000.0 * static_cast<double>(ins) /
                                                     static_cast<double>(cyc)));
  }
  if (gl >= 0 && lda > 0) {
    Metrics::gauge_set(gl, static_cast<std::int64_t>(1000.0 * static_cast<double>(mis) /
                                                     static_cast<double>(lda)));
  }
}

// ---------------------------------------------------------------------------
// Sampler: SIGPROF -> backtrace into per-thread rings (flight-recorder
// style: fixed slabs, claim-once via CAS, wrap-around overwrites).  The
// pool is heap-allocated at start() and lives until reset() so exports can
// read it after the timer stops.
// ---------------------------------------------------------------------------

struct Sample {
  std::uint64_t ts_ns = 0;
  std::uint64_t req = 0;
  std::uint64_t cycles = 0;        // scaled core-group totals at sample time
  std::uint64_t instructions = 0;
  std::int32_t phase = -1;
  std::int32_t depth = 0;
  std::int32_t skip = 0;  // leading frames that belong to the signal handler
  void* pc[Prof::kMaxStackFrames];
};

constexpr int kMaxSampleThreads = 64;
constexpr std::uint32_t kRingCap = 2048;  // per thread; wrap counts as dropped

struct SampleRing {
  std::atomic<std::uint64_t> tid{0};   // claimed by thread id; 0 = free
  std::atomic<std::uint32_t> head{0};  // total samples ever written
  Sample ring[kRingCap];
};

struct SamplePool {
  SampleRing rings[kMaxSampleThreads];
};

std::atomic<SamplePool*> g_pool{nullptr};
std::atomic<bool> g_sampling{false};   // timer armed (handler gate)
std::atomic<bool> g_sampled{false};    // a timer ran at some point this run
std::atomic<std::uint64_t> g_table_dropped{0};  // thread-table overflow
std::uint64_t g_interval_us = 0;
std::uint64_t g_sample_cost_ns = 0;
thread_local SampleRing* t_ring = nullptr;

#if defined(BST_HAVE_PROF)

void sigprof_handler(int, siginfo_t*, void* uctx) {
  if (!g_sampling.load(std::memory_order_relaxed)) return;
  SamplePool* pool = g_pool.load(std::memory_order_acquire);
  if (pool == nullptr) return;
  const int saved_errno = errno;
  SampleRing* r = t_ring;
  if (r == nullptr) {
    const auto tid = static_cast<std::uint64_t>(::syscall(SYS_gettid));
    for (auto& cand : pool->rings) {
      std::uint64_t expected = 0;
      if (cand.tid.compare_exchange_strong(expected, tid, std::memory_order_acq_rel) ||
          expected == tid) {
        r = &cand;
        break;
      }
    }
    t_ring = r;
  }
  if (r == nullptr) {
    g_table_dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  const std::uint32_t h = r->head.load(std::memory_order_relaxed);
  Sample& s = r->ring[h % kRingCap];
  s.ts_ns = TraceClock::now_ns();
  s.req = t_req;
  const int d = t_depth;
  std::atomic_signal_fence(std::memory_order_acquire);
  s.phase = (d > 0 && d <= Prof::kMaxSpanDepth) ? t_frames[d - 1].id : -1;
  // backtrace() is not formally async-signal-safe, but after the warm-up
  // call in sampler_start() (which resolves libgcc's unwinder eagerly) it
  // does not allocate; this is the same approach Linux sampling profilers
  // (gperftools, absl) rely on.
  s.depth = ::backtrace(s.pc, Prof::kMaxStackFrames);
  // The capture's leading frames are the handler itself plus the signal
  // trampoline.  The trampoline's CFI makes the next unwound frame the
  // exact interrupted PC, so locating the ucontext PC in the capture gives
  // a deterministic cut -- name matching alone misses frames that fail to
  // symbolize (static functions, stripped libc).
  s.skip = 0;
  std::uintptr_t ip = 0;
#if defined(__x86_64__)
  if (uctx != nullptr) {
    ip = static_cast<std::uintptr_t>(
        static_cast<ucontext_t*>(uctx)->uc_mcontext.gregs[REG_RIP]);
  }
#elif defined(__aarch64__)
  if (uctx != nullptr) {
    ip = static_cast<std::uintptr_t>(static_cast<ucontext_t*>(uctx)->uc_mcontext.pc);
  }
#else
  (void)uctx;
#endif
  if (ip != 0) {
    for (std::int32_t i = 0; i < s.depth; ++i) {
      if (reinterpret_cast<std::uintptr_t>(s.pc[i]) == ip) {
        s.skip = i;
        break;
      }
    }
  }
  s.cycles = 0;
  s.instructions = 0;
  if (t_pmu.ok && t_pmu.core.n > 0) {
    std::uint64_t v[kNumCtr] = {0, 0, 0, 0, 0, 0, 0, 0};
    if (read_group(t_pmu.core, v)) {
      s.cycles = v[kCycles];
      s.instructions = v[kInstructions];
    }
  }
  r->head.store(h + 1, std::memory_order_release);
  errno = saved_errno;
}

bool sampler_start(std::uint64_t hz) noexcept {
  if (hz == 0 || g_sampling.load(std::memory_order_relaxed)) return false;
  if (g_pool.load(std::memory_order_acquire) == nullptr) {
    g_pool.store(new SamplePool(), std::memory_order_release);
  }
  // Warm the unwinder before the handler can run, and measure the per-
  // sample capture cost against the observability overhead budget.
  {
    void* warm[4];
    (void)::backtrace(warm, 4);
    const std::uint64_t t0 = TraceClock::now_ns();
    constexpr int kProbes = 64;
    for (int i = 0; i < kProbes; ++i) {
      void* pcs[Prof::kMaxStackFrames];
      (void)::backtrace(pcs, Prof::kMaxStackFrames);
    }
    g_sample_cost_ns = (TraceClock::now_ns() - t0) / kProbes;
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = &sigprof_handler;
  sa.sa_flags = SA_RESTART | SA_SIGINFO;
  sigemptyset(&sa.sa_mask);
  if (::sigaction(SIGPROF, &sa, nullptr) != 0) return false;
  g_interval_us = 1000000 / hz;
  if (g_interval_us == 0) g_interval_us = 1;
  itimerval it;
  it.it_interval.tv_sec = static_cast<time_t>(g_interval_us / 1000000);
  it.it_interval.tv_usec = static_cast<suseconds_t>(g_interval_us % 1000000);
  it.it_value = it.it_interval;
  g_sampling.store(true, std::memory_order_release);
  if (::setitimer(ITIMER_PROF, &it, nullptr) != 0) {
    g_sampling.store(false, std::memory_order_relaxed);
    return false;
  }
  g_sampled.store(true, std::memory_order_relaxed);
  return true;
}

void sampler_stop() noexcept {
  if (!g_sampling.load(std::memory_order_relaxed)) return;
  itimerval off;
  std::memset(&off, 0, sizeof(off));
  ::setitimer(ITIMER_PROF, &off, nullptr);
  g_sampling.store(false, std::memory_order_release);
}

#else  // !BST_HAVE_PROF

bool sampler_start(std::uint64_t) noexcept { return false; }
void sampler_stop() noexcept {}

#endif

SamplerStats sampler_stats_impl() noexcept {
  SamplerStats st;
  st.enabled = g_sampled.load(std::memory_order_relaxed);
  st.interval_us = g_interval_us;
  st.est_sample_cost_ns = g_sample_cost_ns;
  st.dropped = g_table_dropped.load(std::memory_order_relaxed);
  const SamplePool* pool = g_pool.load(std::memory_order_acquire);
  if (pool == nullptr) return st;
  for (const auto& r : pool->rings) {
    if (r.tid.load(std::memory_order_relaxed) == 0) continue;
    const std::uint32_t h = r.head.load(std::memory_order_acquire);
    if (h == 0) continue;
    ++st.threads;
    st.samples += h;
    if (h > kRingCap) st.dropped += h - kRingCap;  // overwritten by wrap
  }
  return st;
}

// ---------------------------------------------------------------------------
// Symbolization + export (normal context only, after the timer stopped).
// ---------------------------------------------------------------------------

std::string symbolize(void* pc) {
#if defined(BST_HAVE_PROF)
  Dl_info info;
  if (::dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
    int status = 0;
    char* dem = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    std::string out = (status == 0 && dem != nullptr) ? dem : info.dli_sname;
    std::free(dem);
    return out;
  }
  if (::dladdr(pc, &info) != 0 && info.dli_fname != nullptr) {
    const char* base = std::strrchr(info.dli_fname, '/');
    std::ostringstream os;
    os << (base != nullptr ? base + 1 : info.dli_fname) << "+0x" << std::hex
       << (reinterpret_cast<std::uintptr_t>(pc) -
           reinterpret_cast<std::uintptr_t>(info.dli_fbase));
    return os.str();
  }
#endif
  std::ostringstream os;
  os << "0x" << std::hex << reinterpret_cast<std::uintptr_t>(pc);
  return os.str();
}

bool frame_is_handler_noise(const std::string& sym) {
  return sym.find("sigprof_handler") != std::string::npos ||
         sym.find("__restore_rt") != std::string::npos ||
         sym.find("killpg") != std::string::npos || sym == "backtrace";
}

/// All currently captured samples, oldest-first per thread; the live window
/// of each ring (wrapped-over slots are gone, already counted as dropped).
struct ThreadSamples {
  std::uint64_t tid = 0;
  std::vector<Sample> samples;
};

std::vector<ThreadSamples> collect_samples() {
  std::vector<ThreadSamples> out;
  const SamplePool* pool = g_pool.load(std::memory_order_acquire);
  if (pool == nullptr) return out;
  for (const auto& r : pool->rings) {
    const std::uint64_t tid = r.tid.load(std::memory_order_relaxed);
    if (tid == 0) continue;
    const std::uint32_t h = r.head.load(std::memory_order_acquire);
    if (h == 0) continue;
    ThreadSamples ts;
    ts.tid = tid;
    const std::uint32_t n = h < kRingCap ? h : kRingCap;
    const std::uint32_t start = h - n;
    ts.samples.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) ts.samples.push_back(r.ring[(start + i) % kRingCap]);
    out.push_back(std::move(ts));
  }
  std::sort(out.begin(), out.end(),
            [](const ThreadSamples& a, const ThreadSamples& b) { return a.tid < b.tid; });
  return out;
}

/// Folded stack key of one sample: "phase:<p>;req:<id>;outer;...;leaf".
std::string fold_sample(const Sample& s, const std::vector<std::string>& phase_names,
                        std::map<void*, std::string>& symcache) {
  std::vector<std::string> frames;
  const int n = s.depth < Prof::kMaxStackFrames ? s.depth : Prof::kMaxStackFrames;
  for (int i = 0; i < n; ++i) {
    auto it = symcache.find(s.pc[i]);
    if (it == symcache.end()) it = symcache.emplace(s.pc[i], symbolize(s.pc[i])).first;
    frames.push_back(it->second);
  }
  // Drop the handler/trampoline frames at the top of the capture: the
  // handler's ucontext-PC cut first, then a name-based sweep as backstop.
  std::size_t skip = 0;
  if (s.skip > 0 && s.skip < n) skip = static_cast<std::size_t>(s.skip);
  while (skip < frames.size() && frame_is_handler_noise(frames[skip])) ++skip;
  std::string key = "phase:";
  if (s.phase >= 0 && static_cast<std::size_t>(s.phase) < phase_names.size()) {
    key += phase_names[static_cast<std::size_t>(s.phase)];
  } else {
    key += "(none)";
  }
  if (s.req != 0) {
    key += ";req:";
    key += std::to_string(s.req);
  }
  for (std::size_t i = frames.size(); i > skip; --i) {  // outermost first
    key += ';';
    key += frames[i - 1];
  }
  return key;
}

std::map<std::string, std::uint64_t> folded_counts() {
  std::map<std::string, std::uint64_t> counts;
  const std::vector<std::string> names = Tracer::phase_names();
  std::map<void*, std::string> symcache;
  for (const ThreadSamples& ts : collect_samples()) {
    for (const Sample& s : ts.samples) ++counts[fold_sample(s, names, symcache)];
  }
  return counts;
}

const char* pmu_status_cstr() noexcept {
  switch (g_pmu_state.load(std::memory_order_relaxed)) {
    case 1:
      return "ok";
    case 2:
      return nullptr;  // composed from g_pmu_err
    case 3:
      return "disabled";
    case 4:
      return "off";
    default:
      return "unknown";  // requested but no thread opened a group yet
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ProfOptions
// ---------------------------------------------------------------------------

ProfOptions ProfOptions::from_env() {
  ProfOptions o;
  env::read("BST_PROF", o.armed_by_env);
  env::read("BST_PROF_PMU", o.pmu);
  env::read("BST_PROF_HZ", o.sample_hz);
  env::read("BST_PROF_OUT", o.out_prefix);
  return o;
}

// ---------------------------------------------------------------------------
// Prof
// ---------------------------------------------------------------------------

namespace {
std::string g_out_prefix = "prof";
std::mutex g_arm_mu;
}  // namespace

bool Prof::armed() noexcept { return g_armed.load(std::memory_order_relaxed); }

bool Prof::was_armed() noexcept { return g_was_armed.load(std::memory_order_relaxed); }

void Prof::arm(const ProfOptions& opt) {
  std::lock_guard lock(g_arm_mu);
  if (g_armed.load(std::memory_order_relaxed)) return;
  g_out_prefix = opt.out_prefix;
  g_pmu_wanted.store(opt.pmu, std::memory_order_relaxed);
  if (opt.pmu) {
    // "requested, not yet attempted": the first span on each thread opens
    // the groups; until then status() says "unknown".
    int expected4 = 4;
    g_pmu_state.compare_exchange_strong(expected4, 0, std::memory_order_relaxed);
    int expected3 = 3;
    g_pmu_state.compare_exchange_strong(expected3, 0, std::memory_order_relaxed);
  } else {
    g_pmu_state.store(3, std::memory_order_relaxed);
  }
  if (g_gauge_ipc.load(std::memory_order_relaxed) < 0) {
    g_gauge_ipc.store(Metrics::gauge("pmu_ipc_milli"), std::memory_order_relaxed);
    g_gauge_llc.store(Metrics::gauge("pmu_llc_miss_permille"), std::memory_order_relaxed);
  }
  if (opt.sample_hz > 0) (void)sampler_start(opt.sample_hz);
  g_was_armed.store(true, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_release);
}

void Prof::disarm() {
  std::lock_guard lock(g_arm_mu);
  sampler_stop();
  g_armed.store(false, std::memory_order_release);
}

void Prof::on_span_open(PhaseId id) noexcept {
  if (t_depth >= kMaxSpanDepth) {
    ++t_depth;  // count past the cap so close() stays balanced
    return;
  }
  SpanFrame& f = t_frames[t_depth];
  f.id = id;
  f.have_pmu = false;
#if defined(BST_HAVE_PROF)
  if (g_pmu_wanted.load(std::memory_order_relaxed) && ensure_open()) {
    f.have_pmu = read_current(f.c0);
  }
#endif
  std::atomic_signal_fence(std::memory_order_release);
  ++t_depth;
}

void Prof::on_span_close(PhaseId id) noexcept {
  if (t_depth <= 0) return;  // armed mid-span: nothing recorded for us
  if (t_depth > kMaxSpanDepth) {
    --t_depth;
    return;
  }
  --t_depth;
  std::atomic_signal_fence(std::memory_order_release);
  const SpanFrame& f = t_frames[t_depth];
  if (f.id != id || !f.have_pmu) return;
#if defined(BST_HAVE_PROF)
  PmuCounts c1;
  if (!read_current(c1)) return;
  if (id < 0 || id >= Tracer::kMaxPhases) return;
  const std::uint64_t d[kNumCtr] = {
      c1.cycles - f.c0.cycles,           c1.instructions - f.c0.instructions,
      c1.stalled_cycles - f.c0.stalled_cycles, c1.branch_misses - f.c0.branch_misses,
      c1.l1d_loads - f.c0.l1d_loads,     c1.l1d_misses - f.c0.l1d_misses,
      c1.llc_loads - f.c0.llc_loads,     c1.llc_misses - f.c0.llc_misses,
  };
  PhaseRecord& rec = phase_record(id);
  rec.pmu_spans.fetch_add(1, std::memory_order_relaxed);
  for (int i = 0; i < kNumCtr; ++i) {
    // Scaled counters can regress a hair between reads; clamp at zero.
    const std::uint64_t dv = d[i] <= (UINT64_C(1) << 62) ? d[i] : 0;
    rec.pmu[i].fetch_add(dv, std::memory_order_relaxed);
    g_pmu_total[i].fetch_add(dv, std::memory_order_relaxed);
  }
  update_live_gauges();
#endif
}

bool Prof::pmu_available() noexcept {
  return g_pmu_state.load(std::memory_order_relaxed) == 1;
}

std::string Prof::pmu_status() {
  const char* s = pmu_status_cstr();
  if (s != nullptr) return s;
  std::lock_guard lock(g_pmu_err_mu);
  return g_pmu_err[0] != 0 ? g_pmu_err : "unavailable";
}

void Prof::set_request(std::uint64_t id) noexcept { t_req = id; }

SamplerStats Prof::sampler_stats() noexcept { return sampler_stats_impl(); }

std::string Prof::folded_stacks() {
  std::string out;
  for (const auto& [stack, count] : folded_counts()) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

Json Prof::section_json() {
  Json prof = Json::object();
  {
    Json pmu = Json::object();
    pmu.set("status", Json::string(pmu_status()));
    pmu.set("available", Json::boolean(pmu_available()));
    pmu.set("threads", Json::number(g_pmu_threads.load(std::memory_order_relaxed)));
    prof.set("pmu", std::move(pmu));
  }
  {
    const SamplerStats st = sampler_stats_impl();
    Json sam = Json::object();
    sam.set("enabled", Json::boolean(st.enabled));
    sam.set("interval_us", Json::number(st.interval_us));
    sam.set("samples", Json::number(st.samples));
    sam.set("dropped", Json::number(st.dropped));
    sam.set("threads", Json::number(st.threads));
    sam.set("est_sample_cost_ns", Json::number(st.est_sample_cost_ns));
    // The sampler's contribution to the run, against the 3% observability
    // budget (attainment's obs_overhead covers the tracer's own cost).
    sam.set("overhead_s",
            Json::number(static_cast<double>(st.samples) *
                         static_cast<double>(st.est_sample_cost_ns) * 1e-9));
    if (!g_sampling.load(std::memory_order_relaxed)) {
      // Top folded stacks inline, so a report renders a flamegraph summary
      // without the artifact files (bst_report --prof).
      std::vector<std::pair<std::string, std::uint64_t>> top;
      for (auto& kv : folded_counts()) top.emplace_back(kv.first, kv.second);
      std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
        return a.second != b.second ? a.second > b.second : a.first < b.first;
      });
      if (top.size() > 10) top.resize(10);
      Json stacks = Json::array();
      for (const auto& [stack, count] : top) {
        Json row = Json::object();
        row.set("stack", Json::string(stack));
        row.set("count", Json::number(count));
        stacks.push(std::move(row));
      }
      sam.set("top_stacks", std::move(stacks));
    }
    prof.set("sampler", std::move(sam));
  }
  return prof;
}

Prof::Artifacts Prof::write_artifacts() {
  Artifacts art;
  const SamplerStats st = sampler_stats_impl();
  if (st.samples == 0 || g_out_prefix.empty()) return art;
  {
    const std::string path = g_out_prefix + ".folded";
    std::ofstream os(path);
    if (os) {
      os << folded_stacks();
      if (os.good()) art.folded = path;
    }
  }
  {
    const std::string path = g_out_prefix + ".samples.json";
    std::ofstream os(path);
    if (os) {
      // Chrome-trace/Perfetto JSON: thread-name metadata, one instant
      // event per sample (stack + phase + req in args), and a derived
      // milli-IPC counter track from consecutive core-group readings.
      Json doc = Json::object();
      Json events = Json::array();
      const std::vector<std::string> names = Tracer::phase_names();
      std::map<void*, std::string> symcache;
#if defined(BST_HAVE_PROF)
      const std::int64_t pid = static_cast<std::int64_t>(::getpid());
#else
      const std::int64_t pid = 1;
#endif
      for (const ThreadSamples& ts : collect_samples()) {
        Json meta = Json::object();
        meta.set("ph", Json::string("M"));
        meta.set("name", Json::string("thread_name"));
        meta.set("pid", Json::number(pid));
        meta.set("tid", Json::number(static_cast<std::uint64_t>(ts.tid)));
        Json margs = Json::object();
        margs.set("name", Json::string("sampled:" + std::to_string(ts.tid)));
        meta.set("args", std::move(margs));
        events.push(std::move(meta));
        std::uint64_t prev_cyc = 0, prev_ins = 0;
        for (const Sample& s : ts.samples) {
          Json ev = Json::object();
          ev.set("ph", Json::string("i"));
          ev.set("s", Json::string("t"));
          ev.set("cat", Json::string("sample"));
          const bool known =
              s.phase >= 0 && static_cast<std::size_t>(s.phase) < names.size();
          ev.set("name",
                 Json::string(known ? names[static_cast<std::size_t>(s.phase)] : "(none)"));
          ev.set("pid", Json::number(pid));
          ev.set("tid", Json::number(static_cast<std::uint64_t>(ts.tid)));
          ev.set("ts", Json::number(static_cast<double>(s.ts_ns) / 1000.0));
          Json args = Json::object();
          args.set("stack", Json::string(fold_sample(s, names, symcache)));
          if (s.req != 0) args.set("req", Json::number(s.req));
          ev.set("args", std::move(args));
          events.push(std::move(ev));
          if (s.cycles > prev_cyc && s.instructions >= prev_ins && prev_cyc != 0) {
            Json ctr = Json::object();
            ctr.set("ph", Json::string("C"));
            ctr.set("name", Json::string("pmu_ipc_milli"));
            ctr.set("pid", Json::number(pid));
            ctr.set("tid", Json::number(static_cast<std::uint64_t>(ts.tid)));
            ctr.set("ts", Json::number(static_cast<double>(s.ts_ns) / 1000.0));
            Json cargs = Json::object();
            cargs.set("ipc_milli",
                      Json::number(static_cast<std::uint64_t>(
                          1000.0 * static_cast<double>(s.instructions - prev_ins) /
                          static_cast<double>(s.cycles - prev_cyc))));
            ctr.set("args", std::move(cargs));
            events.push(std::move(ctr));
          }
          if (s.cycles != 0) {
            prev_cyc = s.cycles;
            prev_ins = s.instructions;
          }
        }
      }
      doc.set("traceEvents", std::move(events));
      doc.set("displayTimeUnit", Json::string("ms"));
      doc.write(os);
      os << '\n';
      if (os.good()) art.perfetto = path;
    }
  }
  return art;
}

void Prof::reset() noexcept {
  for (auto& v : g_pmu_total) v.store(0, std::memory_order_relaxed);
  if (!g_sampling.load(std::memory_order_relaxed)) {
    // Drop captured samples (rings stay claimed by their threads; only the
    // heads rewind).  Never while the timer is live.
    SamplePool* pool = g_pool.load(std::memory_order_acquire);
    if (pool != nullptr) {
      for (auto& r : pool->rings) r.head.store(0, std::memory_order_relaxed);
    }
    g_table_dropped.store(0, std::memory_order_relaxed);
    g_sampled.store(false, std::memory_order_relaxed);
    g_was_armed.store(false, std::memory_order_relaxed);
  }
}

}  // namespace bst::util
