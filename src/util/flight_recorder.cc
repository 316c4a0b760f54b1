#include "util/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>

#include "util/crashbox.h"  // sigsafe write helpers for unsafe_dump
#include "util/report.h"    // Json: the one JSON string escaper

namespace bst::util {
namespace {

constexpr std::size_t kLabelBuf = 48;  // signal-safe label mirror (truncating)

struct ThreadRing {
  explicit ThreadRing(std::uint32_t id, std::size_t capacity)
      : tid(id), ring(capacity) {
    data.store(ring.data(), std::memory_order_release);
    cap.store(ring.size(), std::memory_order_release);
  }

  std::uint32_t tid;
  std::string label;                   // guarded by the registry mutex
  bool is_virtual = false;             // virtual_track() ring (virtual time)
  bool fixed_capacity = false;         // track(): keeps its size across enable()
  std::atomic<std::uint64_t> head{0};  // total events ever recorded
  std::vector<FlightEvent> ring;

  // Mirrors for the async-signal-safe unsafe_dump(): the handler must not
  // touch the std::vector/std::string members, so storage pointer, capacity,
  // and label are shadowed in atomics / a fixed buffer (updated under the
  // registry mutex whenever the real fields change).
  std::atomic<const FlightEvent*> data{nullptr};
  std::atomic<std::size_t> cap{0};
  char label_buf[kLabelBuf] = {};

  void set_label(const std::string& l) {  // caller holds the registry mutex
    label = l;
    std::size_t n = l.size();
    if (n > kLabelBuf - 1) n = kLabelBuf - 1;
    std::memcpy(label_buf, l.data(), n);
    label_buf[n] = '\0';
  }

  void push(const FlightEvent& e) noexcept {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    ring[static_cast<std::size_t>(h % ring.size())] = e;
    head.store(h + 1, std::memory_order_release);
  }
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadRing>> rings;  // never shrinks
  std::size_t capacity = FlightRecorder::kDefaultCapacity;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: rings must outlive any thread
  return *r;
}

// Lock-free mirror of the registry for unsafe_dump(): a fixed array of ring
// pointers published with release stores.  Rings past the cap are counted,
// not silently dropped (the report carries a rings_skipped line).
constexpr std::size_t kMaxMirrorRings = 1024;
std::atomic<ThreadRing*> g_mirror[kMaxMirrorRings];
std::atomic<std::size_t> g_mirror_count{0};
std::atomic<std::uint64_t> g_mirror_skipped{0};

void mirror_register(ThreadRing* r) noexcept {  // caller holds the registry mutex
  const std::size_t n = g_mirror_count.load(std::memory_order_relaxed);
  if (n >= kMaxMirrorRings) {
    g_mirror_skipped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  g_mirror[n].store(r, std::memory_order_release);
  g_mirror_count.store(n + 1, std::memory_order_release);
}

// The owning thread's ring, registered on first use.  The pointer stays
// valid for the process lifetime (rings are only cleared, never freed).
ThreadRing* my_ring() {
  static thread_local ThreadRing* ring = [] {
    Registry& reg = registry();
    std::lock_guard lock(reg.mu);
    reg.rings.push_back(std::make_unique<ThreadRing>(
        static_cast<std::uint32_t>(reg.rings.size()), reg.capacity));
    mirror_register(reg.rings.back().get());
    return reg.rings.back().get();
  }();
  return ring;
}

std::uint64_t bits(double v) noexcept {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

double unbits(std::uint64_t u) noexcept {
  double v = 0.0;
  std::memcpy(&v, &u, sizeof v);
  return v;
}

// Copies one ring's window out, oldest first (caller holds the registry
// mutex), with its Ends that lost their Begin counted.
ThreadEvents copy_ring(const ThreadRing& r) {
  const std::uint64_t head = r.head.load(std::memory_order_acquire);
  const std::uint64_t cap = r.ring.size();
  const std::uint64_t first = head > cap ? head - cap : 0;
  ThreadEvents te;
  te.tid = r.tid;
  te.label = r.label;
  te.virtual_time = r.is_virtual;
  te.dropped = first;
  te.events.reserve(static_cast<std::size_t>(head - first));
  for (std::uint64_t i = first; i < head; ++i) {
    te.events.push_back(r.ring[static_cast<std::size_t>(i % cap)]);
  }
  count_unmatched_ends(te);
  return te;
}

// This process's phase names (the registry), for the live exporters.
std::string registry_phase_name(PhaseId id) {
  const char* name = interned_name(NameKind::kPhase, id);
  return name != nullptr ? name : "phase_" + std::to_string(id);
}

}  // namespace

SpanWalk walk_spans(const std::vector<FlightEvent>& events) {
  SpanWalk w;
  w.paired.assign(events.size(), false);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == EventKind::kBegin) {
      w.open.push_back(i);
    } else if (events[i].kind == EventKind::kEnd) {
      if (w.open.empty()) {
        ++w.unmatched_ends;
        continue;
      }
      w.paired[w.open.back()] = true;
      w.paired[i] = true;
      w.open.pop_back();
    }
  }
  return w;
}

void count_unmatched_ends(ThreadEvents& te) {
  te.unmatched_ends = walk_spans(te.events).unmatched_ends;
  te.dropped += te.unmatched_ends;
}

std::atomic<bool> FlightRecorder::enabled_{false};

void FlightRecorder::enable(std::size_t capacity) {
  capacity = std::max<std::size_t>(2, capacity);
  Registry& reg = registry();
  {
    std::lock_guard lock(reg.mu);
    reg.capacity = capacity;
    for (auto& r : reg.rings) {
      if (!r->fixed_capacity && r->ring.size() != capacity) {
        r->ring.assign(capacity, FlightEvent{});
        r->data.store(r->ring.data(), std::memory_order_release);
        r->cap.store(r->ring.size(), std::memory_order_release);
      }
      r->head.store(0, std::memory_order_relaxed);
    }
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void FlightRecorder::reset() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  for (auto& r : reg.rings) r->head.store(0, std::memory_order_relaxed);
}

void FlightRecorder::begin(PhaseId phase, std::uint64_t ts_ns, std::uint64_t flops_now,
                           std::uint64_t bytes_now) noexcept {
  if (!enabled()) return;
  my_ring()->push({ts_ns, Tracer::current_step(), flops_now, bytes_now, phase,
                   EventKind::kBegin});
}

void FlightRecorder::end(PhaseId phase, std::uint64_t ts_ns, std::uint64_t dflops,
                         std::uint64_t dbytes) noexcept {
  if (!enabled()) return;
  my_ring()->push({ts_ns, Tracer::current_step(), dflops, dbytes, phase, EventKind::kEnd});
}

void FlightRecorder::instant(PhaseId phase, std::int64_t step, double value,
                             double threshold) noexcept {
  if (!enabled()) return;
  my_ring()->push({TraceClock::now_ns(), step, bits(value), bits(threshold), phase,
                   EventKind::kInstant, -1});
}

void FlightRecorder::label_thread(const std::string& label) {
  ThreadRing* ring = my_ring();
  std::lock_guard lock(registry().mu);
  ring->set_label(label);
}

std::uint32_t FlightRecorder::virtual_track(const std::string& label) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  for (const auto& r : reg.rings) {
    if (r->is_virtual && r->label == label) return r->tid;
  }
  reg.rings.push_back(std::make_unique<ThreadRing>(
      static_cast<std::uint32_t>(reg.rings.size()), reg.capacity));
  reg.rings.back()->set_label(label);
  reg.rings.back()->is_virtual = true;
  mirror_register(reg.rings.back().get());
  return reg.rings.back()->tid;
}

std::uint32_t FlightRecorder::track(const std::string& label, std::size_t capacity) {
  capacity = std::max<std::size_t>(2, capacity);
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  for (const auto& r : reg.rings) {
    if (r->fixed_capacity && r->label == label) return r->tid;
  }
  reg.rings.push_back(std::make_unique<ThreadRing>(
      static_cast<std::uint32_t>(reg.rings.size()), capacity));
  reg.rings.back()->set_label(label);
  reg.rings.back()->fixed_capacity = true;
  mirror_register(reg.rings.back().get());
  return reg.rings.back()->tid;
}

void FlightRecorder::virtual_span(std::uint32_t tid, PhaseId phase, std::int64_t step,
                                  std::uint64_t t0_ns, std::uint64_t t1_ns,
                                  std::uint64_t bytes, std::int32_t peer) {
  if (!enabled()) return;
  Registry& reg = registry();
  ThreadRing* ring = nullptr;
  {
    std::lock_guard lock(reg.mu);
    if (tid >= reg.rings.size()) return;
    ring = reg.rings[tid].get();
  }
  ring->push({t0_ns, step, 0, 0, phase, EventKind::kBegin, peer});
  ring->push({t1_ns, step, 0, bytes, phase, EventKind::kEnd, peer});
}

std::uint32_t FlightRecorder::current_tid() { return my_ring()->tid; }

std::string FlightRecorder::open_span_name(std::uint32_t tid) {
  Registry& reg = registry();
  ThreadEvents te;
  {
    std::lock_guard lock(reg.mu);
    if (tid >= reg.rings.size()) return std::string();
    te = copy_ring(*reg.rings[tid]);
  }
  const SpanWalk w = walk_spans(te.events);
  if (w.open.empty()) return std::string();
  return registry_phase_name(te.events[w.open.back()].phase);
}

std::vector<ThreadEvents> FlightRecorder::snapshot() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  std::vector<ThreadEvents> out;
  for (const auto& r : reg.rings) {
    if (r->head.load(std::memory_order_acquire) != 0) out.push_back(copy_ring(*r));
  }
  return out;
}

void FlightRecorder::unsafe_dump(int fd) noexcept {
  using sigsafe::write_all;
  using sigsafe::write_str;
  using sigsafe::write_u64;

  write_str(fd, "event_size ");
  write_u64(fd, sizeof(FlightEvent));
  write_str(fd, "\nrings_begin\n");
  const std::size_t n = g_mirror_count.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    const ThreadRing* r = g_mirror[i].load(std::memory_order_acquire);
    if (r == nullptr) continue;
    const FlightEvent* data = r->data.load(std::memory_order_acquire);
    const std::uint64_t cap = r->cap.load(std::memory_order_acquire);
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    if (data == nullptr || cap == 0 || head == 0) continue;
    const std::uint64_t count = head < cap ? head : cap;
    write_str(fd, "ring ");
    write_u64(fd, r->tid);
    write_str(fd, r->is_virtual ? " 1 " : " 0 ");
    write_u64(fd, head);
    write_str(fd, " ");
    write_u64(fd, cap);
    write_str(fd, " ");
    write_u64(fd, count);
    write_str(fd, " ");
    write_u64(fd, head > cap ? head - cap : 0);
    write_str(fd, " ");
    write_str(fd, r->label_buf);
    write_str(fd, "\n");
    // Oldest-first is at most two contiguous chunks of the ring storage.
    const std::uint64_t start = (head - count) % cap;
    const std::uint64_t chunk = std::min(count, cap - start);
    write_all(fd, data + start, static_cast<std::size_t>(chunk) * sizeof(FlightEvent));
    if (chunk < count) {
      write_all(fd, data, static_cast<std::size_t>(count - chunk) * sizeof(FlightEvent));
    }
    write_str(fd, "\n");
  }
  const std::uint64_t skipped = g_mirror_skipped.load(std::memory_order_relaxed);
  if (skipped > 0) {
    write_str(fd, "rings_skipped ");
    write_u64(fd, skipped);
    write_str(fd, "\n");
  }
  write_str(fd, "rings_end\n");
}

namespace {

// One chrome-trace event line.  ts is microseconds (chrome's unit);
// fractional digits keep nanosecond resolution.  Instants are thread-scoped.
void write_event(std::ostream& os, bool& first, const std::string& name, char ph,
                 std::uint32_t tid, double ts_us, const std::string& args) {
  if (!first) os << ",\n";
  first = false;
  os << "    {\"name\": ";
  Json::string(name).write(os);
  os << ", \"ph\": \"" << ph << "\"";
  if (ph == 'i') os << ", \"s\": \"t\"";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", ts_us);
  os << ", \"pid\": 1, \"tid\": " << tid << ", \"ts\": " << buf << ", \"args\": {" << args
     << "}}";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void FlightRecorder::write_chrome_trace(std::ostream& os, const std::vector<ThreadEvents>& threads,
                                        const PhaseNamer& phase_name, bool open_at_crash) {
  // Common time origin so threads align in the viewer.  Virtual tracks
  // (replayed simulated schedules) are already zero-based in virtual time;
  // only the steady-clock rings need rebasing.
  std::uint64_t t0 = ~std::uint64_t{0};
  bool any_real = false;
  for (const ThreadEvents& te : threads) {
    if (te.virtual_time) continue;
    for (const FlightEvent& e : te.events) {
      any_real = true;
      t0 = std::min(t0, e.ts_ns);
    }
  }
  if (!any_real) t0 = 0;

  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  bool first = true;
  // Track-name metadata first, so viewers show "pe:<k>" labels.
  for (const ThreadEvents& te : threads) {
    if (te.label.empty()) continue;
    if (!first) os << ",\n";
    first = false;
    os << "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " << te.tid
       << ", \"args\": {\"name\": ";
    Json::string(te.label).write(os);
    os << "}}";
  }
  for (const ThreadEvents& te : threads) {
    const SpanWalk walk = walk_spans(te.events);
    for (std::size_t i = 0; i < te.events.size(); ++i) {
      const FlightEvent& e = te.events[i];
      char ph = 'i';
      const char* suffix = "";
      if (walk.paired[i]) {
        ph = e.kind == EventKind::kBegin ? 'B' : 'E';
      } else if (e.kind == EventKind::kBegin && open_at_crash) {
        suffix = " (open at crash)";
      } else if (e.kind != EventKind::kInstant) {
        continue;  // an End whose Begin was lost, or a Begin still open
      }
      std::string args = "\"step\": " + std::to_string(e.step);
      if (e.kind == EventKind::kInstant) {
        args += ", \"value\": " + num(unbits(e.a)) + ", \"threshold\": " + num(unbits(e.b));
      } else if (ph == 'E') {
        args += ", \"flops\": " + std::to_string(e.a) + ", \"bytes\": " + std::to_string(e.b);
      }
      if (e.peer >= 0) args += ", \"peer\": " + std::to_string(e.peer);
      const double ts_us = static_cast<double>(e.ts_ns - (te.virtual_time ? 0 : t0)) * 1e-3;
      write_event(os, first, phase_name(e.phase) + suffix, ph, te.tid, ts_us, args);
    }
    if (te.dropped > 0 || te.torn > 0) {
      std::string args = "\"dropped\": " + std::to_string(te.dropped);
      if (te.torn > 0) args += ", \"torn\": " + std::to_string(te.torn);
      write_event(os, first, "flight_recorder_dropped", 'i', te.tid, 0.0, args);
    }
  }
  os << "\n  ]\n}\n";
}

void FlightRecorder::write_chrome_trace(std::ostream& os) {
  write_chrome_trace(os, snapshot(), registry_phase_name, false);
}

void FlightRecorder::write_chrome_trace(const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("FlightRecorder: cannot open '" + path + "' for writing");
  write_chrome_trace(f);
}

}  // namespace bst::util
