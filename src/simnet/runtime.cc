#include "simnet/runtime.h"

#include <exception>
#include <string>
#include <thread>

#include "util/flight_recorder.h"
#include "util/metrics.h"

namespace bst::simnet {
/// Shared state of one SPMD run.
class SpmdContext {
 public:
  explicit SpmdContext(int np) : np_(np), boxes_(static_cast<std::size_t>(np)) {}

  [[nodiscard]] int size() const noexcept { return np_; }

  void send(int src, int dst, int tag, std::vector<double> data) {
    Mailbox& box = boxes_[static_cast<std::size_t>(dst)];
    {
      std::lock_guard lock(box.mu);
      box.queues[{src, tag}].push_back(std::move(data));
    }
    box.cv.notify_all();
  }

  std::vector<double> recv(int self, int src, int tag) {
    Mailbox& box = boxes_[static_cast<std::size_t>(self)];
    std::unique_lock lock(box.mu);
    auto& queue = box.queues[{src, tag}];
    box.cv.wait(lock, [&] { return !queue.empty(); });
    std::vector<double> data = std::move(queue.front());
    queue.pop_front();
    return data;
  }

  void barrier() {
    std::unique_lock lock(barrier_mu_);
    const std::size_t gen = barrier_gen_;
    if (++barrier_count_ == np_) {
      barrier_count_ = 0;
      ++barrier_gen_;
      barrier_cv_.notify_all();
    } else {
      barrier_cv_.wait(lock, [&] { return barrier_gen_ != gen; });
    }
  }

 private:
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::map<std::pair<int, int>, std::deque<std::vector<double>>> queues;
  };

  int np_;
  std::vector<Mailbox> boxes_;

  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::size_t barrier_gen_ = 0;
};

int Comm::size() const noexcept { return ctx_->size(); }

namespace {

// Wall-clock spans for the threaded backend's messaging, so a --trace of an
// SPMD run shows where each PE thread blocks (mirrors the cost model's
// shift_send/shift_recv virtual spans).
util::PhaseId send_phase() {
  static const util::PhaseId id = util::Tracer::phase("msg_send");
  return id;
}
util::PhaseId recv_phase() {
  static const util::PhaseId id = util::Tracer::phase("msg_recv");
  return id;
}

}  // namespace

void Comm::send(int dst, int tag, std::vector<double> data) {
  util::TraceSpan span(send_phase());
  util::ByteCounter::charge(data.size() * sizeof(double));
  ctx_->send(rank_, dst, tag, std::move(data));
}

std::vector<double> Comm::recv(int src, int tag) {
  util::TraceSpan span(recv_phase());
  return ctx_->recv(rank_, src, tag);
}

void Comm::broadcast(int root, std::vector<double>& data) {
  // Naive rooted broadcast on a dedicated tag channel; correctness (not
  // performance) is this runtime's job -- timing lives in the cost model.
  constexpr int kBcastTag = -9001;
  if (rank_ == root) {
    for (int pe = 0; pe < size(); ++pe) {
      if (pe != root) ctx_->send(root, pe, kBcastTag, data);
    }
  } else {
    data = ctx_->recv(rank_, root, kBcastTag);
  }
}

void Comm::barrier() { ctx_->barrier(); }

void run_spmd(int np, const std::function<void(Comm&)>& body) {
  SpmdContext ctx(np);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(np));
  std::mutex err_mu;
  std::exception_ptr first_error;
  for (int pe = 0; pe < np; ++pe) {
    threads.emplace_back([&, pe] {
      Comm comm(&ctx, pe);
      if (util::FlightRecorder::enabled()) {
        util::FlightRecorder::label_thread("pe:" + std::to_string(pe));
      }
      try {
        body(comm);
      } catch (...) {
        std::lock_guard lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace bst::simnet
