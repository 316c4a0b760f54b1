// A small threads-based message-passing runtime (MPI-flavoured SPMD).
//
// The cost-model simulator (machine.h) predicts *time*; this runtime
// actually *executes* the distributed algorithm concurrently: every PE is
// a thread with its own storage, communicating only through explicit
// messages -- the same programming model as the paper's shmem code on the
// T3D.  It carries dist_schur's thread transport, which shows that the
// distributed program is really message-driven and deadlock-free under
// real concurrency, not a loop nest in disguise.
//
// Semantics:
//   * send/recv are point-to-point with a tag; matching is FIFO per
//     (source, tag) pair; recv blocks.
//   * broadcast is rooted (everyone must call it with the same root).
//   * barrier blocks until all PEs arrive (generation-counted, reusable).
//   * run_spmd launches NP threads, runs `body(comm)` on each, and joins;
//     the first uncaught exception is rethrown on the caller.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace bst::simnet {

class SpmdContext;

/// Per-PE communicator handle (value-semantics facade over the context).
class Comm {
 public:
  Comm(SpmdContext* ctx, int rank) : ctx_(ctx), rank_(rank) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept;

  /// Sends `data` to PE `dst` with a user tag (non-blocking, buffered).
  void send(int dst, int tag, std::vector<double> data);

  /// Receives the next message from `src` with `tag` (blocking, FIFO).
  std::vector<double> recv(int src, int tag);

  /// Rooted broadcast: on the root, `data` is sent; elsewhere it is
  /// replaced by the root's payload.
  void broadcast(int root, std::vector<double>& data);

  /// Blocks until every PE has arrived.
  void barrier();

 private:
  SpmdContext* ctx_;
  int rank_;
};

/// Runs body(comm) on `np` PE threads and joins them.
/// Rethrows the first exception thrown by any PE.
void run_spmd(int np, const std::function<void(Comm&)>& body);

}  // namespace bst::simnet
