// Deterministic cost-model simulator of a distributed-memory machine
// (the Cray T3D of the paper's section 7).
//
// Each PE has a virtual clock.  Computation advances one clock; messages
// synchronize the receiver's clock with the sender's plus a latency +
// volume/bandwidth cost; broadcasts and barriers use log2(NP) trees.  All
// times are virtual: runs are deterministic and independent of the host.
//
// The default parameters are the T3D's published figures (section 7.1.4):
// 150 MFLOPS peak DEC Alpha PEs (derated to a realistic sustained rate),
// 1 us shmem put latency, 300 MB/s neighbor links.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/par_analysis.h"

namespace bst::simnet {

/// Cost parameters of the simulated machine.
struct MachineParams {
  double flop_rate = 15e6;    // sustained flops/s per PE on the short
                              // BLAS1/2 operations of this algorithm
                              // (150 MFLOPS peak Alpha, ~10% sustained)
  double latency = 1e-6;      // seconds per message (shmem put)
  double bandwidth = 300e6;   // bytes/s per link
  double barrier_hop = 5e-6;  // per-tree-level cost of the software barrier
                              // + per-step loop orchestration overhead
  double cache_line_words = 4;  // T3D: 4-word direct-mapped cache lines

  /// Sustained-efficiency factor for generator updates with block size m:
  /// accesses with footprint below the cache line waste part of every line
  /// (the effect the paper uses to explain Fig. 9: the m = 4 update is
  /// "not twice" the m = 2 one).  Mild penalty, saturating at the line.
  [[nodiscard]] double block_efficiency(double m) const {
    const double l = cache_line_words;
    return (std::min(m, l) + l) / (2.0 * l);
  }

  /// The Cray T3D of the paper.
  static MachineParams t3d() { return MachineParams{}; }
};

/// Time accounting buckets (per experiment reporting).
struct TimeBreakdown {
  double compute = 0.0;
  double broadcast = 0.0;
  double shift = 0.0;
  double barrier = 0.0;
  [[nodiscard]] double total() const { return compute + broadcast + shift + barrier; }
};

/// Per-PE communication volume (the quantity the paper's V1/V2/V3 analysis
/// trades against parallelism; see docs/OBSERVABILITY.md "comm" section).
/// Broadcasts are attributed root->every other PE; interior tree forwarding
/// is not broken out.
struct PeCommStats {
  double bytes_sent = 0.0;
  double bytes_recv = 0.0;
  double messages = 0.0;  // messages injected by this PE
};

/// Virtual machine: NP processing elements with individual clocks.
class Machine {
 public:
  Machine(int np, MachineParams params);

  [[nodiscard]] int np() const noexcept { return static_cast<int>(clock_.size()); }
  [[nodiscard]] const MachineParams& params() const noexcept { return params_; }

  /// Advances `pe`'s clock by flops / flop_rate.
  void compute(int pe, double flops);

  /// One concurrent exchange: every entry is sent simultaneously from a
  /// snapshot of the current clocks (one-sided puts do not chain, unlike
  /// consecutive exchanges, which serialize around the ring).  An entry's
  /// sender pays the latency of each of its `messages` back-to-back puts;
  /// the receiver synchronizes with the arrival.
  struct ShiftMsg {
    int src, dst;
    double messages, bytes;
  };
  void exchange(const std::vector<ShiftMsg>& msgs);

  /// Tree broadcast of `bytes` from root to all PEs.
  void broadcast(int root, double bytes);

  /// Advances `pe`'s clock by `seconds` of communication/synchronization
  /// time not covered by the other primitives (charged to the broadcast
  /// accounting bucket).
  void comm_delay(int pe, double seconds);

  /// Global barrier: all clocks advance to max + barrier cost.
  void barrier();

  /// Elapsed virtual time = max clock.
  [[nodiscard]] double time() const;

  /// Aggregate accounting: each primitive adds the clock advances it caused
  /// on every PE (receiver waits included; the `barrier` bucket holds the
  /// idle time absorbed at barriers), so the buckets sum to the PEs' clocks
  /// -- np * time() once a barrier has aligned them.
  [[nodiscard]] const TimeBreakdown& breakdown() const noexcept { return acct_; }

  /// Per-PE bytes sent/received and messages injected.
  [[nodiscard]] const std::vector<PeCommStats>& comm_stats() const noexcept { return comm_; }

  /// Span capture for util::analyze_schedule / util::emit_schedule.  On by
  /// default while the Tracer is enabled at construction; every primitive
  /// then records one util::PeSpan per PE it touches (including zero-length
  /// receive spans, which carry bytes for the communication matrix).
  void set_capture(bool on) noexcept { capture_ = on; }
  [[nodiscard]] bool capturing() const noexcept { return capture_; }
  [[nodiscard]] const util::ParSchedule& schedule() const noexcept { return sched_; }
  [[nodiscard]] util::ParSchedule take_schedule() noexcept { return std::move(sched_); }

 private:
  [[nodiscard]] int tree_depth() const;
  [[nodiscard]] double advance_since(const std::vector<double>& before) const;
  void rec(int pe, util::SpanKind kind, double t0, double t1, double bytes = 0.0,
           int peer = -1);

  MachineParams params_;
  std::vector<double> clock_;
  TimeBreakdown acct_;
  std::vector<PeCommStats> comm_;
  bool capture_ = false;
  util::ParSchedule sched_;
};

}  // namespace bst::simnet
