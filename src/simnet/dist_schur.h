// Distributed block Schur factorization (paper section 7.1), written once
// as per-PE code and run on either of two transports.
//
// The generator's block columns are laid out over a linear array of NP PEs
// in one of three schemes --
//
//   V1: block-cyclic, one block per PE per round,
//   V2: groups of `group` adjacent blocks per PE (less shift traffic,
//       less parallelism),
//   V3: each block split column-wise over `spread` adjacent PEs (more
//       parallelism, one broadcast per pivot column instead of per step)
//
// -- and every PE keeps its slices (m wide for V1/V2, m/spread wide for V3)
// in one contiguous local store.  Each Schur step is a fixed sequence of
// supersteps; a message posted in a superstep is delivered at its end:
//
//   shift:  send the A slices whose right neighbor lives elsewhere, move the
//           rest locally (phase 3 of section 6.1),
//   build:  the pivot owner builds the block reflector and broadcasts it
//           (V3: one superstep per pivot column, in which the pivot group
//           applies the previous column's reflector, then the column's
//           owner builds and broadcasts this column's),
//   apply:  every PE updates its trailing slices and hands its factor
//           pieces to the sink (phase 2),
//   barrier.
//
// Transport::Virtual runs the PEs one after another on the calling thread
// and charges what they do to a simnet::Machine (simulated T3D time);
// Transport::Threads runs one thread per PE over the runtime.h mailboxes.
// Both execute the same arithmetic, so their factors are bitwise equal.
#pragma once

#include <functional>
#include <vector>

#include "core/block_reflector.h"
#include "simnet/machine.h"
#include "toeplitz/block_toeplitz.h"

namespace bst::simnet {

using core::index_t;
using core::Representation;

/// Generator layout over the linear PE array.
enum class Layout { V1, V2, V3 };

const char* to_string(Layout l);

/// Options for a distributed factorization run.
struct DistOptions {
  Layout layout = Layout::V1;
  int np = 16;
  index_t group = 1;       // V2: adjacent blocks per PE ("b" in the paper)
  index_t spread = 1;      // V3: PEs per block ("1/b" in the paper)
  Representation rep = Representation::VY2;
  MachineParams machine = MachineParams::t3d();
  index_t block_size = 0;  // m_s override (0 = structural)
};

/// Where the PEs of the program run.
enum class Transport {
  Virtual,  // calling thread, PEs in turn; simulated time on a Machine
  Threads,  // one thread per PE over runtime.h; no simulated time
};

/// Receives the factor R piece by piece: `piece` is R(row0 .. row0 + m,
/// col0 .. col0 + piece.cols()).  Called by the PE holding the piece --
/// under Transport::Threads concurrently, always for disjoint pieces.
using FactorSink = std::function<void(index_t row0, index_t col0, la::CView piece)>;

/// A sink copying every piece into `r` (n x n), which must outlive it.
FactorSink collect_into(la::Mat& r);

/// Simulated times and traffic (Transport::Virtual; zero under Threads).
struct DistResult {
  double sim_seconds = 0.0;
  TimeBreakdown breakdown;        // sums to np * sim_seconds
  std::vector<PeCommStats> comm;  // per-PE send/recv volume (paper sec. 7.1)
  index_t steps = 0;
  /// Per-PE span capture (empty unless the Tracer was enabled); feed to
  /// util::analyze_schedule for the comm matrix / critical path sections.
  util::ParSchedule schedule;
};

/// Factors the SPD block Toeplitz matrix `t` on opt.np PEs, streaming R
/// into `sink` (may be empty).  Throws std::invalid_argument for bad
/// options (V3 needs spread | np and spread | m) and NotPositiveDefinite,
/// raised on every PE, on breakdown.
DistResult dist_schur_factor(const toeplitz::BlockToeplitz& t, const DistOptions& opt,
                             const FactorSink& sink = {},
                             Transport transport = Transport::Virtual);

/// Bytes needed to communicate one step's block reflector in the given
/// representation (the YTY form's storage advantage, paper section 6.5).
double representation_bytes(Representation rep, index_t m);

}  // namespace bst::simnet
