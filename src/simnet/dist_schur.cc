#include "simnet/dist_schur.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <stdexcept>
#include <utility>

#include "core/flop_model.h"
#include "core/generator.h"
#include "core/schur.h"
#include "simnet/runtime.h"
#include "util/metrics.h"
#include "util/par_analysis.h"
#include "util/trace.h"

namespace bst::simnet {
namespace {

using core::BlockReflector;
using core::Reflector;
using la::Mat;
using la::View;

// Build/apply share names with the sequential factorization (core/schur.cc)
// so a report aggregates their cost identically across backends.
const util::PhaseId kShiftPhase = util::Tracer::phase("dist_shift");
const util::PhaseId kBuildPhase = util::Tracer::phase("reflector_build");
const util::PhaseId kApplyPhase = util::Tracer::phase("reflector_apply");
const util::PhaseId kBarrierPhase = util::Tracer::phase("dist_barrier");

// ---- the transport interface ---------------------------------------------

/// One PE's endpoint: what the program may do inside a superstep.
class Port {
 public:
  [[nodiscard]] virtual int rank() const = 0;

  /// Posts `data`, `puts` equal back-to-back puts (one per slice), to PE
  /// `dst`; it is delivered at the end of the superstep.
  void send(int dst, std::vector<double> data, index_t puts) {
    record_bytes(8.0 * static_cast<double>(data.size()) / static_cast<double>(puts));
    post(dst, std::move(data), puts);
  }
  /// Posts `data` to every other PE, charged as `bytes` on the wire.
  void broadcast(std::vector<double> data, double bytes) {
    record_bytes(bytes);
    post_broadcast(std::move(data), bytes);
  }
  /// The next message from `src` (or broadcast of `root`) posted in an
  /// earlier superstep, in posting order.
  virtual std::vector<double> recv(int src) = 0;
  virtual std::vector<double> recv_broadcast(int root) = 0;
  /// Charges `flops` of local work.
  virtual void compute(double flops) = 0;
  /// Charges `seconds` of synchronization the other primitives leave out.
  virtual void delay(double seconds) = 0;

 protected:
  ~Port() = default;

 private:
  virtual void post(int dst, std::vector<double> data, index_t puts) = 0;
  virtual void post_broadcast(std::vector<double> data, double bytes) = 0;

  // The one place message sizes are recorded, whichever transport runs.
  static void record_bytes(double bytes) {
    static const util::HistId id = util::Metrics::histogram("simnet_msg_bytes");
    if (util::Tracer::enabled()) util::Metrics::record(id, static_cast<std::uint64_t>(bytes));
  }
};

/// Runs supersteps for the PEs it hosts.
class Net {
 public:
  using Body = std::function<void(Port&)>;
  /// Runs `body` for every hosted PE, then delivers the posted messages.
  virtual void superstep(const Body& body) = 0;
  virtual void barrier() = 0;

 protected:
  ~Net() = default;
};

// Virtual-clock transport: all PEs on the calling thread, in rank order;
// the sends, broadcasts and work they perform are charged to a Machine at the
// points the T3D program would incur them.  A PE that throws sits out the
// remaining supersteps; the run rethrows once every PE has thrown.
class VirtualNet final : public Net {
 public:
  VirtualNet(int np, const MachineParams& params)
      : mach_(np, params),
        np_(np),
        p2p_(static_cast<std::size_t>(np * np)),
        casts_in_(static_cast<std::size_t>(np * np)),
        failed_(static_cast<std::size_t>(np), false) {}

  void superstep(const Body& body) override {
    for (int r = 0; r < np_; ++r) {
      if (failed_[static_cast<std::size_t>(r)]) continue;
      VirtualPort port(*this, r);
      try {
        body(port);
      } catch (...) {
        failed_[static_cast<std::size_t>(r)] = true;
        if (nfailed_++ == 0) first_error_ = std::current_exception();
      }
    }
    deliver();
    if (nfailed_ == np_) std::rethrow_exception(first_error_);
  }

  void barrier() override {
    if (nfailed_ == 0) mach_.barrier();
  }

  /// The machine after a complete run; a breakdown that reached only some
  /// PEs is a protocol error.
  Machine& finish() {
    if (nfailed_ != 0) throw std::logic_error("dist_schur: a breakdown reached only some PEs");
    return mach_;
  }

 private:
  using Box = std::deque<std::vector<double>>;

  class VirtualPort final : public Port {
   public:
    VirtualPort(VirtualNet& net, int rank) : net_(net), rank_(rank) {}
    [[nodiscard]] int rank() const override { return rank_; }
    std::vector<double> recv(int src) override { return take(net_.box(net_.p2p_, src, rank_)); }
    std::vector<double> recv_broadcast(int root) override {
      return take(net_.box(net_.casts_in_, root, rank_));
    }
    void compute(double flops) override {
      if (flops > 0.0) net_.mach_.compute(rank_, flops);
    }
    void delay(double seconds) override { net_.mach_.comm_delay(rank_, seconds); }

   private:
    void post(int dst, std::vector<double> data, index_t puts) override {
      net_.sends_.push_back({rank_, dst, puts, std::move(data)});
    }
    void post_broadcast(std::vector<double> data, double bytes) override {
      net_.casts_.push_back({rank_, bytes, std::move(data)});
    }
    static std::vector<double> take(Box& box) {
      if (box.empty()) throw std::logic_error("dist_schur: receive without a delivered message");
      std::vector<double> data = std::move(box.front());
      box.pop_front();
      return data;
    }

    VirtualNet& net_;
    int rank_;
  };

  struct Send {
    int src, dst;
    index_t puts;
    std::vector<double> data;
  };
  struct Cast {
    int root;
    double bytes;
    std::vector<double> data;
  };

  Box& box(std::vector<Box>& boxes, int src, int dst) {
    return boxes[static_cast<std::size_t>(dst * np_ + src)];
  }

  // End of superstep: all point-to-point sends form one concurrent
  // exchange, then the broadcasts run in posting order.
  void deliver() {
    if (!sends_.empty()) {
      std::vector<Machine::ShiftMsg> msgs;
      for (Send& s : sends_) {
        const double puts = static_cast<double>(s.puts);
        msgs.push_back({s.src, s.dst, puts, 8.0 * static_cast<double>(s.data.size()) / puts});
        box(p2p_, s.src, s.dst).push_back(std::move(s.data));
      }
      sends_.clear();
      mach_.exchange(msgs);
    }
    for (Cast& c : casts_) {
      mach_.broadcast(c.root, c.bytes);
      for (int r = 0; r < np_; ++r) {
        if (r != c.root) box(casts_in_, c.root, r).push_back(c.data);
      }
    }
    casts_.clear();
  }

  Machine mach_;
  int np_;
  std::vector<Box> p2p_, casts_in_;  // [dst * np + src]
  std::vector<Send> sends_;
  std::vector<Cast> casts_;
  std::vector<bool> failed_;
  std::exception_ptr first_error_;
  int nfailed_ = 0;
};

// Thread transport: one PE per runtime.h thread.  Mailboxes already deliver
// in posting order and the program only receives what an earlier superstep
// posted, so a superstep needs no synchronization of its own.
class ThreadNet final : public Net, public Port {
 public:
  explicit ThreadNet(Comm& comm) : comm_(comm) {}
  void superstep(const Body& body) override { body(*this); }
  void barrier() override { comm_.barrier(); }
  [[nodiscard]] int rank() const override { return comm_.rank(); }
  std::vector<double> recv(int src) override { return comm_.recv(src, kTag); }
  std::vector<double> recv_broadcast(int root) override {
    std::vector<double> data;
    comm_.broadcast(root, data);
    return data;
  }
  void compute(double) override {}
  void delay(double) override {}

 private:
  static constexpr int kTag = 1;
  void post(int dst, std::vector<double> data, index_t) override {
    comm_.send(dst, kTag, std::move(data));
  }
  void post_broadcast(std::vector<double> data, double) override {
    comm_.broadcast(comm_.rank(), data);
  }

  Comm& comm_;
};

// ---- the program -----------------------------------------------------------

// Wire format of the reflectors: [pivot, beta, sigma, x...] each; a
// breakdown is announced as [-1, column, hnorm] so every PE throws.
std::vector<double> pack(const std::vector<Reflector>& rs) {
  std::vector<double> out;
  for (const Reflector& r : rs) {
    out.push_back(static_cast<double>(r.pivot));
    out.push_back(r.beta);
    out.push_back(r.sigma);
    out.insert(out.end(), r.x.begin(), r.x.end());
  }
  return out;
}

std::vector<Reflector> unpack(const std::vector<double>& in, index_t step, index_t m) {
  if (in.empty() || in[0] < 0.0) {
    throw core::NotPositiveDefinite(step, in.size() > 1 ? static_cast<index_t>(in[1]) : 0,
                                    in.size() > 2 ? in[2] : 0.0);
  }
  const std::size_t stride = 3 + static_cast<std::size_t>(2 * m);
  std::vector<Reflector> rs;
  for (std::size_t off = 0; off + stride <= in.size(); off += stride) {
    Reflector r;
    r.pivot = static_cast<index_t>(in[off]);
    r.beta = in[off + 1];
    r.sigma = in[off + 2];
    r.x.assign(in.begin() + static_cast<std::ptrdiff_t>(off + 3),
               in.begin() + static_cast<std::ptrdiff_t>(off + stride));
    rs.push_back(std::move(r));
  }
  return rs;
}

// V3's per-column synchronization of the pivot group, calibrated to the
// T3D code (EXPERIMENTS.md deviation 2): a flat gather of the group into
// the column owner, then a tree fan-out of the column's x-vector pieces.
double group_sync_seconds(const MachineParams& mp, index_t m, index_t spread) {
  int hops = 0;
  while ((index_t{1} << hops) < spread) ++hops;
  return static_cast<double>(spread) * (mp.latency + mp.barrier_hop) +
         static_cast<double>(hops) * 2.0 * static_cast<double>(m) /
             static_cast<double>(spread) * 8.0 / mp.bandwidth;
}

class Program {
 public:
  Program(const DistOptions& opt, const core::Generator& g, const FactorSink& sink)
      : layout_(opt.layout),
        np_(opt.np),
        m_(g.m),
        p_(g.p),
        group_(opt.layout == Layout::V2 ? opt.group : 1),
        spread_(opt.layout == Layout::V3 ? opt.spread : 1),
        width_(g.m / spread_),
        groups_(np_ / static_cast<int>(spread_)),
        rep_(opt.rep),
        sig_(g.sig),
        eff_(opt.machine.block_efficiency(static_cast<double>(g.m))),
        group_sync_(group_sync_seconds(opt.machine, g.m, spread_)),
        sink_(sink),
        pes_(static_cast<std::size_t>(np_)) {
    for (int r = 0; r < np_; ++r) {
      PeStore& me = pes_[static_cast<std::size_t>(r)];
      me.q = static_cast<index_t>(r) % spread_;
      for (index_t j = 0; j < p_; ++j) {
        if (owner(j, me.q) == r) me.cols.push_back(j);
      }
      const index_t len = static_cast<index_t>(me.cols.size()) * width_;
      me.a = Mat(m_, len);
      me.b = Mat(m_, len);
      for (std::size_t t = 0; t < me.cols.size(); ++t) {
        const index_t c0 = me.cols[t] * m_ + me.q * width_;
        la::copy(g.a.block(0, c0, m_, width_), slot(me.a, t));
        la::copy(g.b.block(0, c0, m_, width_), slot(me.b, t));
      }
    }
  }

  void run(Net& net) {
    util::Tracer::set_step(0);
    net.superstep([&](Port& pe) { emit(pe, 0); });
    for (index_t i = 1; i < p_; ++i) {
      util::Tracer::set_step(i);
      net.superstep([&](Port& pe) { shift(pe, i); });
      if (layout_ == Layout::V3) {
        for (index_t k = 0; k < m_; ++k) {
          net.superstep([&](Port& pe) { build_column(pe, i, k); });
        }
      } else {
        net.superstep([&](Port& pe) { build(pe, i); });
      }
      net.superstep([&](Port& pe) { apply(pe, i); });
      util::TraceSpan span(kBarrierPhase);
      net.barrier();
    }
  }

 private:
  struct PeStore {
    index_t q = 0;                // slice of each block held (V3)
    std::vector<index_t> cols;    // owned block columns, increasing
    Mat a, b;                     // m x (cols.size() * width) local store
    std::vector<Reflector> refl;  // this step's reflectors so far (V3)
    std::vector<double> wire;     // a root's copy of its own broadcast
  };

  // PE holding slice q of block column j.
  [[nodiscard]] int owner(index_t j, index_t q = 0) const {
    if (layout_ == Layout::V3) {
      return static_cast<int>((j % groups_) * spread_ + q);
    }
    return static_cast<int>((j / group_) % np_);
  }

  // The shift's partners: the PEs holding the same slice of the next and
  // the previous block group.
  [[nodiscard]] int right_neighbor(int rank) const {
    return (rank + static_cast<int>(spread_)) % np_;
  }
  [[nodiscard]] int left_neighbor(int rank) const {
    return (rank - static_cast<int>(spread_) + np_) % np_;
  }

  [[nodiscard]] View slot(Mat& store, std::size_t t) const {
    return store.block(0, static_cast<index_t>(t) * width_, m_, width_);
  }
  [[nodiscard]] std::size_t slot_of(const PeStore& me, index_t j) const {
    return static_cast<std::size_t>(std::lower_bound(me.cols.begin(), me.cols.end(), j) -
                                    me.cols.begin());
  }
  PeStore& store(const Port& pe) { return pes_[static_cast<std::size_t>(pe.rank())]; }

  // Hands block row `step` of R (the owned slices j >= step) to the sink.
  void emit(const Port& pe, index_t step) {
    if (!sink_) return;
    PeStore& me = store(pe);
    for (std::size_t t = slot_of(me, step); t < me.cols.size(); ++t) {
      sink_(step * m_, me.cols[t] * m_ + me.q * width_, slot(me.a, t));
    }
  }

  // Phase 3: A_j <- A_{j-1} for j in [step, p).  Slices whose right
  // neighbor lives elsewhere -- all on the same PE -- are sent, one put
  // each; the rest move within the store, last first.
  void shift(Port& pe, index_t step) {
    util::TraceSpan span(kShiftPhase);
    PeStore& me = store(pe);
    const std::size_t len = static_cast<std::size_t>(m_ * width_);
    std::vector<double> out;
    index_t puts = 0;
    for (std::size_t t = slot_of(me, step - 1); t < me.cols.size(); ++t) {
      const index_t j = me.cols[t];
      if (j + 1 >= p_) break;
      if (owner(j + 1, me.q) == pe.rank()) continue;
      const double* src = me.a.data() + t * len;
      out.insert(out.end(), src, src + len);
      ++puts;
    }
    if (puts > 0) pe.send(right_neighbor(pe.rank()), std::move(out), puts);
    for (std::size_t t = me.cols.size(); t-- > 1;) {
      if (me.cols[t] >= step && me.cols[t - 1] == me.cols[t] - 1) {
        double* dst = me.a.data() + t * len;
        std::copy_n(dst - len, len, dst);
      }
    }
  }

  // Receives the slices the shift sent, in the order they were sent.
  void receive_shift(Port& pe, index_t step) {
    util::TraceSpan span(kShiftPhase);
    PeStore& me = store(pe);
    const std::size_t len = static_cast<std::size_t>(m_ * width_);
    std::vector<double> in;
    std::size_t at = 0;
    for (std::size_t t = slot_of(me, step); t < me.cols.size(); ++t) {
      if (t > 0 && me.cols[t - 1] == me.cols[t] - 1) continue;
      if (in.empty()) in = pe.recv(left_neighbor(pe.rank()));
      std::copy_n(in.begin() + static_cast<std::ptrdiff_t>(at), len, me.a.data() + t * len);
      at += len;
    }
  }

  // Phase 1 (V1/V2): the pivot owner builds the block reflector.
  void build(Port& pe, index_t step) {
    receive_shift(pe, step);
    if (owner(step) != pe.rank()) return;
    util::TraceSpan span(kBuildPhase);
    PeStore& me = store(pe);
    const std::size_t t = slot_of(me, step);
    BlockReflector bref(rep_, m_, sig_);
    const auto bd = bref.build(slot(me.a, t), slot(me.b, t), 1e-13);
    pe.compute(core::blocking_flops(rep_, m_, m_) / eff_);
    me.wire = bd ? std::vector<double>{-1.0, static_cast<double>(bd->column), bd->hnorm}
                 : pack(bref.reflectors());
    pe.broadcast(me.wire, representation_bytes(rep_, m_));
    if (bd) throw core::NotPositiveDefinite(step, bd->column, bd->hnorm);
  }

  // Phase 1 (V3), pivot column k: the pivot group applies reflector k - 1
  // to its slices, then the owner of column k builds reflector k from its
  // (now current) column and broadcasts it.
  void build_column(Port& pe, index_t step, index_t k) {
    if (k == 0) receive_shift(pe, step);
    if (k > 0) take_reflector(pe, step, k - 1);
    if (owner(step, store(pe).q) == pe.rank()) pe.delay(group_sync_);
    if (owner(step, k / width_) != pe.rank()) return;
    util::TraceSpan span(kBuildPhase);
    PeStore& me = store(pe);
    const std::size_t t = slot_of(me, step);
    View pa = slot(me.a, t), pb = slot(me.b, t);
    const index_t kl = k - me.q * width_;
    std::vector<double> u(static_cast<std::size_t>(2 * m_), 0.0);
    u[static_cast<std::size_t>(k)] = pa(k, kl);
    for (index_t r = 0; r < m_; ++r) u[static_cast<std::size_t>(m_ + r)] = pb(r, kl);
    const auto refl = core::make_reflector(u, sig_, k, 1e-13);
    pe.compute(core::blocking_flops(Representation::Sequential, m_, m_) /
               static_cast<double>(m_) / eff_);
    if (refl) {
      pa(k, kl) = -refl->sigma;  // the exact image of the column
      for (index_t r = 0; r < m_; ++r) pb(r, kl) = 0.0;
      me.wire = pack({*refl});
    } else {
      me.wire = {-1.0, static_cast<double>(k), core::hyperbolic_norm(u, sig_)};
    }
    pe.broadcast(me.wire, representation_bytes(Representation::Sequential, m_) /
                              static_cast<double>(m_));
    if (!refl) throw core::NotPositiveDefinite(step, k, me.wire[2]);
  }

  // V3: receives reflector k and applies it to the pivot slice's columns
  // right of k (the ones it still changes).
  void take_reflector(Port& pe, index_t step, index_t k) {
    PeStore& me = store(pe);
    const int root = owner(step, k / width_);
    const std::vector<double> wire =
        root == pe.rank() ? std::move(me.wire) : pe.recv_broadcast(root);
    Reflector r = std::move(unpack(wire, step, m_).front());
    const index_t c0 = std::max<index_t>(0, k + 1 - me.q * width_);
    if (owner(step, me.q) == pe.rank() && c0 < width_) {
      const std::size_t t = slot_of(me, step);
      BlockReflector::from_reflectors(Representation::Sequential, m_, sig_, {r})
          .apply(slot(me.a, t).block(0, c0, m_, width_ - c0),
                 slot(me.b, t).block(0, c0, m_, width_ - c0));
      pe.compute(core::application_flops(Representation::Sequential, m_, 1, 1) /
                 static_cast<double>(m_) * static_cast<double>(width_ - c0) / eff_);
    }
    me.refl.push_back(std::move(r));
  }

  // Phase 2: every PE updates its trailing slices, then emits its row.
  void apply(Port& pe, index_t step) {
    PeStore& me = store(pe);
    if (layout_ == Layout::V3) {
      take_reflector(pe, step, m_ - 1);
    } else {
      const int root = owner(step);
      me.refl = unpack(root == pe.rank() ? std::move(me.wire) : pe.recv_broadcast(root), step, m_);
    }
    const std::size_t first = slot_of(me, step + 1);
    const index_t blocks = static_cast<index_t>(me.cols.size() - first);
    if (blocks > 0) {
      util::TraceSpan span(kApplyPhase);
      const index_t c0 = static_cast<index_t>(first) * width_;
      BlockReflector::from_reflectors(rep_, m_, sig_, me.refl)
          .apply(me.a.block(0, c0, m_, blocks * width_), me.b.block(0, c0, m_, blocks * width_));
      const double per_block = core::application_flops(rep_, m_, 1, m_) / eff_;
      pe.compute(per_block * static_cast<double>(blocks) / static_cast<double>(spread_));
    }
    me.refl.clear();
    emit(pe, step);
  }

  Layout layout_;
  int np_;
  index_t m_, p_, group_, spread_, width_;
  int groups_;
  Representation rep_;
  core::Signature sig_;
  double eff_;
  double group_sync_;
  const FactorSink& sink_;
  std::vector<PeStore> pes_;
};

void validate(const DistOptions& opt) {
  if (opt.np < 1) throw std::invalid_argument("dist_schur: np must be >= 1");
  if (opt.layout == Layout::V2 && opt.group < 1)
    throw std::invalid_argument("dist_schur: V2 needs group >= 1");
  if (opt.layout == Layout::V3) {
    if (opt.spread < 1 || opt.np % static_cast<int>(opt.spread) != 0)
      throw std::invalid_argument("dist_schur: V3 spread must divide np");
  }
}

}  // namespace

const char* to_string(Layout l) {
  switch (l) {
    case Layout::V1: return "V1";
    case Layout::V2: return "V2";
    case Layout::V3: return "V3";
  }
  return "?";
}

double representation_bytes(Representation rep, index_t m) {
  const double n = static_cast<double>(2 * m);
  const double k = static_cast<double>(m);
  switch (rep) {
    case Representation::AccumulatedU: return n * n * 8.0;
    case Representation::VY1:
    case Representation::VY2: return 2.0 * n * k * 8.0;
    case Representation::YTY: return (n * k + k * (k + 1) / 2.0) * 8.0;
    case Representation::Sequential: return (n + 1.0) * k * 8.0;  // the m x-vectors
  }
  return 0.0;
}

FactorSink collect_into(la::Mat& r) {
  return [&r](index_t row0, index_t col0, la::CView piece) {
    la::copy(piece, r.block(row0, col0, piece.rows(), piece.cols()));
  };
}

DistResult dist_schur_factor(const toeplitz::BlockToeplitz& t, const DistOptions& opt,
                             const FactorSink& sink, Transport transport) {
  validate(opt);
  const toeplitz::BlockToeplitz spec =
      (opt.block_size == 0 || opt.block_size == t.block_size())
          ? t
          : t.with_block_size(opt.block_size);
  if (opt.layout == Layout::V3 && spec.block_size() % opt.spread != 0) {
    throw std::invalid_argument("dist_schur: V3 spread must divide the block size");
  }
  Program prog(opt, core::make_generator_spd(spec), sink);
  DistResult res;
  res.steps = spec.num_blocks() - 1;

  if (transport == Transport::Threads) {
    std::atomic<int> failed{0};
    try {
      run_spmd(opt.np, [&](Comm& comm) {
        ThreadNet net(comm);
        try {
          prog.run(net);
        } catch (...) {
          failed.fetch_add(1);
          throw;
        }
      });
    } catch (...) {
      if (failed.load() != opt.np) {
        throw std::logic_error("dist_schur: a breakdown reached only some PEs");
      }
      throw;
    }
    return res;
  }

  VirtualNet net(opt.np, opt.machine);
  prog.run(net);
  Machine& mach = net.finish();
  util::emit_schedule(mach.schedule());
  res.sim_seconds = mach.time();
  res.breakdown = mach.breakdown();
  res.comm = mach.comm_stats();
  res.schedule = mach.take_schedule();
  return res;
}

}  // namespace bst::simnet
