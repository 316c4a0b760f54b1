// Using the distributed-memory simulator to pick a data distribution
// scheme before committing to one on a real machine (paper section 7).
//
// Sweeps the three layouts (V1 block-cyclic, V2 grouped, V3 split) for a
// user-chosen problem on the simulated machine, prints each time
// breakdown, and validates the winner's factor against the sequential one.
#include <cstdio>

#include "bst.h"

using namespace bst;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const la::index_t m = cli.get_int("m", 8);
  const la::index_t p = cli.get_int("p", 256);
  const int np = static_cast<int>(cli.get_int("np", 32));

  std::printf("problem: %td x %td block Toeplitz (m = %td), machine: %d PEs (T3D model)\n",
              m * p, m * p, m, np);

  // 1. Factor an SPD matrix of that shape under every candidate layout.
  const toeplitz::BlockToeplitz t = toeplitz::kms(m * p, 0.5).with_block_size(m);
  struct Candidate {
    simnet::DistOptions opt;
    const char* label;
  };
  std::vector<Candidate> cands;
  {
    simnet::DistOptions o;
    o.np = np;
    cands.push_back({o, "V1 cyclic"});
  }
  for (la::index_t b : {2, 4, 8}) {
    simnet::DistOptions o;
    o.np = np;
    o.layout = simnet::Layout::V2;
    o.group = b;
    cands.push_back({o, "V2 grouped"});
  }
  for (la::index_t s : {2, 4}) {
    simnet::DistOptions o;
    o.np = np;
    o.layout = simnet::Layout::V3;
    o.spread = s;
    cands.push_back({o, "V3 split"});
  }

  std::printf("%-12s %-8s %-8s %10s %10s %10s %10s %10s\n", "layout", "group", "spread",
              "total(s)", "compute", "bcast", "shift", "idle");
  const Candidate* best = nullptr;
  double best_time = 1e300;
  for (const auto& c : cands) {
    simnet::DistResult r = simnet::dist_schur_factor(t, c.opt);
    std::printf("%-12s %-8td %-8td %10.4f %10.4f %10.4f %10.4f %10.4f\n", c.label, c.opt.group,
                c.opt.spread, r.sim_seconds, r.breakdown.compute / np,
                r.breakdown.broadcast / np, r.breakdown.shift / np, r.breakdown.barrier / np);
    if (r.sim_seconds < best_time) {
      best_time = r.sim_seconds;
      best = &c;
    }
  }
  std::printf("pick: %s (%.4f simulated seconds)\n", best->label, best_time);

  // 2. Validate the winner's factor on a smaller matrix of the same block
  //    size against the sequential factorization.
  const la::index_t pv = std::min<la::index_t>(p, 24);
  const toeplitz::BlockToeplitz tv = toeplitz::random_spd_block(m, pv, 2, 7);
  la::Mat r(tv.order(), tv.order());
  simnet::dist_schur_factor(tv, best->opt, simnet::collect_into(r));
  core::SchurFactor seq = core::block_schur_factor(tv);
  const double diff = la::max_diff(r.view(), seq.r.view());
  std::printf("validation on %td x %td: max |R_dist - R_seq| = %.3e\n", tv.order(), tv.order(),
              diff);
  return 0;
}
