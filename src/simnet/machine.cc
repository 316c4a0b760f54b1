#include "simnet/machine.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/trace.h"

namespace bst::simnet {

Machine::Machine(int np, MachineParams params) : params_(params) {
  assert(np >= 1);
  clock_.assign(static_cast<std::size_t>(np), 0.0);
  comm_.assign(static_cast<std::size_t>(np), PeCommStats{});
  // Capture per-PE spans whenever observability is armed; the schedule is a
  // few hundred bytes per Schur step, negligible next to the model itself.
  capture_ = util::Tracer::enabled();
  sched_.np = np;
}

void Machine::rec(int pe, util::SpanKind kind, double t0, double t1, double bytes, int peer) {
  if (!capture_) return;
  sched_.spans.push_back(
      {pe, peer, util::Tracer::current_step(), kind, t0, t1, bytes});
}

int Machine::tree_depth() const {
  const int n = np();
  int d = 0;
  while ((1 << d) < n) ++d;
  return d;
}

void Machine::compute(int pe, double flops) {
  const double dt = flops / params_.flop_rate;
  double& c = clock_[static_cast<std::size_t>(pe)];
  rec(pe, util::SpanKind::kCompute, c, c + dt);
  c += dt;
  acct_.compute += dt;
}

void Machine::exchange(const std::vector<ShiftMsg>& msgs) {
  const std::vector<double> snap = clock_;
  for (const ShiftMsg& m : msgs) {
    if (m.src == m.dst || m.messages <= 0.0) continue;
    const double dt = m.messages * (params_.latency + m.bytes / params_.bandwidth);
    const double arrive = snap[static_cast<std::size_t>(m.src)] + dt;
    double& sc = clock_[static_cast<std::size_t>(m.src)];
    double& dc = clock_[static_cast<std::size_t>(m.dst)];
    rec(m.src, util::SpanKind::kSend, snap[static_cast<std::size_t>(m.src)], arrive,
        m.messages * m.bytes, m.dst);
    rec(m.dst, util::SpanKind::kRecv, dc, std::max(dc, arrive), m.messages * m.bytes, m.src);
    sc = std::max(sc, arrive);
    dc = std::max(dc, arrive);
    comm_[static_cast<std::size_t>(m.src)].bytes_sent += m.messages * m.bytes;
    comm_[static_cast<std::size_t>(m.src)].messages += m.messages;
    comm_[static_cast<std::size_t>(m.dst)].bytes_recv += m.messages * m.bytes;
  }
  acct_.shift += advance_since(snap);
}

void Machine::broadcast(int root, double bytes) {
  const std::vector<double> before = clock_;
  const int depth = tree_depth();
  const double per_hop = params_.latency + bytes / params_.bandwidth;
  const double dt = static_cast<double>(depth) * per_hop;
  const double t0 = clock_[static_cast<std::size_t>(root)] + dt;
  rec(root, util::SpanKind::kBroadcast, clock_[static_cast<std::size_t>(root)], t0, bytes);
  for (int pe = 0; pe < np(); ++pe) {
    double& c = clock_[static_cast<std::size_t>(pe)];
    if (pe != root) {
      rec(pe, util::SpanKind::kBroadcastRecv, c, std::max(c, t0), bytes, root);
    }
    c = std::max(c, t0);
  }
  acct_.broadcast += advance_since(before);
  comm_[static_cast<std::size_t>(root)].bytes_sent += bytes;
  comm_[static_cast<std::size_t>(root)].messages += 1.0;
  for (int pe = 0; pe < np(); ++pe) {
    if (pe != root) comm_[static_cast<std::size_t>(pe)].bytes_recv += bytes;
  }
}

void Machine::comm_delay(int pe, double seconds) {
  double& c = clock_[static_cast<std::size_t>(pe)];
  rec(pe, util::SpanKind::kBroadcast, c, c + seconds);
  c += seconds;
  acct_.broadcast += seconds;
}

void Machine::barrier() {
  const double cost = static_cast<double>(tree_depth()) * params_.barrier_hop;
  const double tmax = *std::max_element(clock_.begin(), clock_.end());
  for (int pe = 0; pe < np(); ++pe) {
    double& c = clock_[static_cast<std::size_t>(pe)];
    if (tmax > c) rec(pe, util::SpanKind::kIdle, c, tmax);
    rec(pe, util::SpanKind::kBarrier, tmax, tmax + cost);
    acct_.barrier += (tmax - c);  // idle time absorbed at the barrier
    c = tmax + cost;
  }
  acct_.barrier += cost * static_cast<double>(np());
}

double Machine::advance_since(const std::vector<double>& before) const {
  double sum = 0.0;
  for (std::size_t pe = 0; pe < clock_.size(); ++pe) sum += clock_[pe] - before[pe];
  return sum;
}

double Machine::time() const { return *std::max_element(clock_.begin(), clock_.end()); }

}  // namespace bst::simnet
