#include "service/service.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

#include "core/solve.h"
#include "core/solver.h"
#include "util/crashbox.h"
#include "util/env.h"
#include "util/fault.h"
#include "util/flight_recorder.h"
#include "util/flops.h"
#include "util/metrics.h"
#include "util/prof.h"
#include "util/stallguard.h"
#include "util/trace.h"

namespace bst::service {
namespace {

const util::PhaseId kSolvePhase = util::Tracer::phase("service_solve");
const util::PhaseId kRefinePhase = util::Tracer::phase("service_refine");
const util::CtrId kSubmitted = util::Metrics::counter("service_submitted");
const util::CtrId kRefineSweeps = util::Metrics::counter("service_refine_sweeps");
const util::CtrId kRejected = util::Metrics::counter("service_rejected");
const util::CtrId kCompleted = util::Metrics::counter("service_completed");
const util::CtrId kBatches = util::Metrics::counter("service_batches");
const util::CtrId kSlow = util::Metrics::counter("service_slow_requests");
// Watchdog::warn bumps this unconditionally; deltas around a request's
// factor+solve attribute warnings to the request (util/watchdog.cc).
const util::CtrId kWarnings = util::Metrics::counter("watchdog_warnings");
const util::GaugeId kQueueDepth = util::Metrics::gauge("service_queue_depth");
const util::GaugeId kInflight = util::Metrics::gauge("service_inflight");
const util::GaugeId kBacklogAge = util::Metrics::gauge("service_backlog_age_ms");
// Recorded unconditionally (not tracer-gated): the telemetry exporter's
// QPS/p50/p99 come from these, and a live service is exactly the case
// where no profiled run is watching.
const util::HistId kBatchHist = util::Metrics::histogram("service_batch_cols");
const util::HistId kLatencyHist = util::Metrics::histogram("service_request_ns");

// Decimated past the first few: an overload that makes one request slow
// makes thousands slow, and a log storm is its own outage.  The
// service_slow_requests counter stays exact; stderr gets the first 10
// lines, then every 100th with the suppressed count.
void log_slow(const SolveResult& res) {
  static std::atomic<std::uint64_t> logged{0};
  const std::uint64_t seq = logged.fetch_add(1, std::memory_order_relaxed);
  if (seq >= 10 && seq % 100 != 0) return;
  const double total_ms =
      static_cast<double>(res.queue_ns + res.factor_ns + res.solve_ns) * 1e-6;
  std::fprintf(stderr,
               "[bst_service] slow request id=%llu total_ms=%.2f queue_ms=%.2f "
               "factor_ms=%.2f solve_ms=%.2f hit=%d batch=%lld warnings=%llu%s\n",
               static_cast<unsigned long long>(res.req_id), total_ms,
               static_cast<double>(res.queue_ns) * 1e-6,
               static_cast<double>(res.factor_ns) * 1e-6,
               static_cast<double>(res.solve_ns) * 1e-6, res.cache_hit ? 1 : 0,
               static_cast<long long>(res.batch_cols),
               static_cast<unsigned long long>(res.warnings),
               seq >= 10 ? " (slow log decimated to 1/100)" : "");
}

// Finishes one served request, whose timings `res` carries: records its
// latency, emits its "req:<id>" track and applies the slow rule.  True
// when it was slow.
//
// The track shows the request's three phases; the span `step` field
// carries cache hit (1) vs miss (0), so a trace shows hit and miss
// requests apart at a glance.  Only the first trace_requests ids get
// tracks: each track's ring is permanent, so an unbounded service must not
// mint one per request.
bool finish(const ServiceOptions& opt, const SolveResult& res) {
  const std::uint64_t latency = res.queue_ns + res.factor_ns + res.solve_ns;
  util::Metrics::record(kLatencyHist, latency);
  if (util::Tracer::enabled() && util::FlightRecorder::enabled() &&
      res.req_id <= opt.trace_requests) {
    static const util::PhaseId kQueueWait = util::Tracer::phase("req_queue_wait");
    static const util::PhaseId kCacheLookup = util::Tracer::phase("req_cache_lookup");
    static const util::PhaseId kReqSolve = util::Tracer::phase("req_solve");
    const std::uint32_t tid =
        util::FlightRecorder::track("req:" + std::to_string(res.req_id), 8);
    const std::int64_t step = res.cache_hit ? 1 : 0;
    const std::uint64_t factor_done = res.done_ns - res.solve_ns;
    const std::uint64_t start = factor_done - res.factor_ns;
    const auto cols = static_cast<std::uint64_t>(res.batch_cols);
    util::FlightRecorder::virtual_span(tid, kQueueWait, step, start - res.queue_ns, start, 0, -1);
    util::FlightRecorder::virtual_span(tid, kCacheLookup, step, start, factor_done, 0, -1);
    util::FlightRecorder::virtual_span(tid, kReqSolve, step, factor_done, res.done_ns, cols, -1);
  }
  const bool slow = opt.slow_ms > 0.0 && static_cast<double>(latency) > opt.slow_ms * 1e6;
  if (slow) log_slow(res);
  return slow;
}

// The same ranges ServiceOptions::from_env enforces on the variables.  The
// dispatcher thread reads opt_ from construction on, so this throws before
// it starts (dispatcher_ is the last member).
ServiceOptions validated(ServiceOptions o) {
  const auto check = [](bool ok, const char* field, const char* range) {
    if (!ok) {
      throw std::invalid_argument(std::string("ServiceOptions::") + field + " must be " + range);
    }
  };
  check(o.rhs_panel >= 1, "rhs_panel", ">= 1");
  check(o.max_batch >= 1, "max_batch", ">= 1");
  check(o.queue_capacity >= 1, "queue_capacity", ">= 1");
  check(o.refine_steps >= 0, "refine_steps", ">= 0");
  return o;
}

}  // namespace

ServiceOptions ServiceOptions::from_env(ServiceOptions base) {
  util::env::read("BST_SERVICE_CACHE_BYTES", base.cache_bytes);
  util::env::read("BST_SERVICE_QUEUE", base.queue_capacity);
  util::env::read("BST_SERVICE_BATCH", base.max_batch);
  util::env::read("BST_SERVICE_PANEL", base.rhs_panel);
  if (bool nocache = false; util::env::read("BST_SERVICE_NOCACHE", nocache)) {
    base.cache_enabled = !nocache;
  }
  util::env::read("BST_SERVICE_SLOW_MS", base.slow_ms);
  util::env::read("BST_SERVICE_TRACE_REQS", base.trace_requests);
  util::env::read("BST_SERVICE_REFINE", base.refine_steps);
  return base;
}

Service::Service(ServiceOptions opt) : opt_(validated(opt)), cache_(opt_.cache_bytes) {
  // Env-gated no-ops unless BST_CRASH_DIR / BST_STALL_MS are set: a live
  // service is exactly the process whose last moments are worth keeping.
  // Both read the environment and throw on a bad setting, so they run
  // before the dispatcher exists: a constructor that throws must not leave
  // a joinable thread behind.
  util::Crashbox::install();
  util::StallGuard::start_from_env();
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Service::~Service() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_nonempty_.notify_all();
  cv_notfull_.notify_all();
  dispatcher_.join();
}

FactorPtr Service::factor_for(const toeplitz::BlockToeplitz& t, const std::string& key,
                              bool* hit) {
  auto factory = [&] { return core::factor_spd(t, opt_.schur); };
  if (opt_.cache_enabled) return cache_.get_or_factor(key, factory, hit);
  if (hit != nullptr) *hit = false;
  return std::make_shared<const core::SchurFactor>(factory());
}

void Service::solve_batch(const core::SchurFactor& f, la::View b) {
  util::TraceSpan span(kSolvePhase);
  core::solve_rtdr_panels(f.r.view(), nullptr, b, opt_.rhs_panel, /*parallel=*/true);
}

std::shared_ptr<const toeplitz::BlockCirculantMultiplier> Service::multiplier_for(
    const toeplitz::BlockToeplitz& t, const std::string& key) {
  std::lock_guard lock(fftmul_mu_);
  if (auto it = fftmul_.find(key); it != fftmul_.end()) return it->second;
  // Cheap bound: each entry holds m^2 spectra of O(2P) complex values, tiny
  // next to the factors -- a simple clear-on-overflow keeps it honest for
  // services that churn through many distinct matrices.
  if (fftmul_.size() >= 16) fftmul_.clear();
  auto mul = std::make_shared<const toeplitz::BlockCirculantMultiplier>(t);
  fftmul_.emplace(key, mul);
  return mul;
}

void Service::solve_batch_refined(const toeplitz::BlockToeplitz& t, const std::string& key,
                                  const core::SchurFactor& f, la::View b_inout) {
  if (opt_.refine_steps <= 0) {
    solve_batch(f, b_inout);
    return;
  }
  const index_t n = b_inout.rows(), cols = b_inout.cols();
  const auto mul = multiplier_for(t, key);
  // Keep B: after the in-place solve b_inout holds X, and each sweep needs
  // the original right-hand sides for R = B - T X.
  la::Mat b0(n, cols);
  la::copy(b_inout, b0.view());
  solve_batch(f, b_inout);
  la::Mat r(n, cols);
  for (int s = 0; s < opt_.refine_steps; ++s) {
    util::TraceSpan span(kRefinePhase);
    mul->residual(b0.view(), b_inout, r.view());
    solve_batch(f, r.view());  // r becomes the correction dX
    for (index_t j = 0; j < cols; ++j) {
      const double* dj = r.data() + j * r.ld();
      double* xj = b_inout.data() + j * b_inout.ld();
      for (index_t i = 0; i < n; ++i) xj[i] += dj[i];
    }
    util::FlopCounter::charge(static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(cols));
  }
  refine_sweeps_.fetch_add(static_cast<std::uint64_t>(opt_.refine_steps),
                          std::memory_order_relaxed);
  util::Metrics::add(kRefineSweeps, static_cast<std::uint64_t>(opt_.refine_steps));
}

SolveResult Service::solve(const toeplitz::BlockToeplitz& t, const std::vector<double>& b) {
  if (static_cast<index_t>(b.size()) != t.order()) {
    throw std::invalid_argument("Service::solve: rhs length does not match the matrix order");
  }
  return run(t, b);
}

la::Mat Service::solve_many(const toeplitz::BlockToeplitz& t, la::CView b) {
  const index_t n = t.order(), k = b.cols();
  if (b.rows() != n) {
    throw std::invalid_argument("Service::solve_many: rhs rows do not match the matrix order");
  }
  std::vector<double> rhs(static_cast<std::size_t>(n * k));
  la::copy(b, la::View(rhs.data(), n, k, n));
  const SolveResult res = run(t, std::move(rhs));
  la::Mat x(n, k);
  std::copy(res.x.begin(), res.x.end(), x.data());
  return x;
}

std::future<SolveResult> Service::submit(const toeplitz::BlockToeplitz& t,
                                         std::vector<double> b) {
  if (static_cast<index_t>(b.size()) != t.order()) {
    throw std::invalid_argument("Service::submit: rhs length does not match the matrix order");
  }
  Request req;
  req.b = std::move(b);
  std::future<SolveResult> fut = req.done.get_future();
  admit(t, req, Admission::kWait);
  return fut;
}

bool Service::try_submit(const toeplitz::BlockToeplitz& t, std::vector<double> b,
                         std::future<SolveResult>& out) {
  if (static_cast<index_t>(b.size()) != t.order()) {
    throw std::invalid_argument("Service::try_submit: rhs length does not match the matrix order");
  }
  Request req;
  req.b = std::move(b);
  std::future<SolveResult> fut = req.done.get_future();
  if (!admit(t, req, Admission::kTry)) return false;
  out = std::move(fut);
  return true;
}

SolveResult Service::run(const toeplitz::BlockToeplitz& t, std::vector<double> b) {
  Request req;
  req.b = std::move(b);
  std::future<SolveResult> fut = req.done.get_future();
  admit(t, req, Admission::kRun);
  serve(t, std::span<Request>(&req, 1), req.submit_ns);
  return fut.get();
}

bool Service::admit(const toeplitz::BlockToeplitz& t, Request& req, Admission how) {
  const bool queued = how != Admission::kRun;
  if (queued) util::Fault::fire("admission");
  req.key = problem_key(t, opt_.schur);
  req.submit_ns = util::TraceClock::now_ns();
  req.id = next_req_id_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t cols = req.b.size() / static_cast<std::size_t>(t.order());
  {
    std::unique_lock lock(mu_);
    if (how == Admission::kWait) {
      cv_notfull_.wait(lock, [&] { return stop_ || queue_.size() < opt_.queue_capacity; });
      if (stop_) throw std::runtime_error("Service::submit: service is shutting down");
    } else if (how == Admission::kTry && (stop_ || queue_.size() >= opt_.queue_capacity)) {
      ++rejected_;
      util::Metrics::add(kRejected);
      return false;
    }
    // Registered only once admission is certain; serve() moves the slot
    // through its phases and releases it.
    req.cb_slot = util::Crashbox::request_begin(
        req.id, queued ? util::ReqPhase::kQueued : util::ReqPhase::kFactor);
    submitted_ += cols;
    if (queued) {
      req.t = hold_matrix(req.key, t);
      queue_.push_back(std::move(req));
      queue_peak_ = std::max(queue_peak_, static_cast<std::uint64_t>(queue_.size()));
      util::Metrics::gauge_set(kQueueDepth, static_cast<std::int64_t>(queue_.size()));
    } else {
      inflight_ += cols;
      util::Metrics::gauge_set(kInflight, static_cast<std::int64_t>(inflight_));
    }
  }
  util::Metrics::add(kSubmitted, cols);
  if (queued) cv_nonempty_.notify_one();
  return true;
}

void Service::serve(const toeplitz::BlockToeplitz& t, std::span<Request> batch,
                    std::uint64_t start_ns) {
  const index_t n = t.order();
  const std::string& key = batch.front().key;
  index_t cols = 0;
  for (const Request& req : batch) cols += static_cast<index_t>(req.b.size()) / n;
  // Profiler sample attribution: tag this thread's samples with the id
  // leading the batch (the same id the crashbox request table carries),
  // so flamegraphs fold per `req:<id>` like the flight-recorder tracks.
  util::Prof::set_request(batch.front().id);
  SolveResult shared;  // what every request of the batch shares
  std::exception_ptr err;
  try {
    const std::uint64_t warn0 = util::Metrics::counter_value(kWarnings);
    for (const Request& req : batch) {
      util::Crashbox::request_phase(req.cb_slot, util::ReqPhase::kFactor);
    }
    const FactorPtr f = factor_for(t, key, &shared.cache_hit);
    const std::uint64_t factor_done_ns = util::TraceClock::now_ns();
    for (const Request& req : batch) {
      util::Crashbox::request_phase(req.cb_slot, util::ReqPhase::kSolve);
    }
    // A lone request is solved in place; a batch gathers its columns and
    // scatters the solutions back.
    la::Mat gathered;
    la::View x(batch.front().b.data(), n, cols, n);
    if (batch.size() > 1) {
      gathered = la::Mat(n, cols);
      double* dst = gathered.data();
      for (const Request& req : batch) dst = std::copy(req.b.begin(), req.b.end(), dst);
      x = gathered.view();
    }
    solve_batch_refined(t, key, *f, x);
    if (batch.size() > 1) {
      const double* src = gathered.data();
      for (Request& req : batch) {
        std::copy(src, src + req.b.size(), req.b.begin());
        src += req.b.size();
      }
    }
    shared.done_ns = util::TraceClock::now_ns();
    shared.factor_flops = f->flops;
    shared.block_size = f->block_size;
    shared.block_size_reason = core::block_size_reason(t, opt_.schur.block_size, f->block_size);
    shared.batch_cols = cols;
    shared.factor_ns = factor_done_ns - start_ns;
    shared.solve_ns = shared.done_ns - factor_done_ns;
    shared.warnings = util::Metrics::counter_value(kWarnings) - warn0;
    shared.refine_steps = opt_.refine_steps;
    shared.solver_path = opt_.refine_steps > 0 ? "schur+refine" : "schur";
    util::Metrics::record(kBatchHist, static_cast<std::uint64_t>(cols));
  } catch (...) {
    // A failed factorization (e.g. NotPositiveDefinite) fails the whole
    // batch -- every request is the same problem.
    err = std::current_exception();
  }
  std::uint64_t slow = 0;
  for (Request& req : batch) {
    if (err != nullptr) {
      req.done.set_exception(err);
    } else {
      SolveResult res = shared;
      res.x = std::move(req.b);
      res.req_id = req.id;
      res.queue_ns = start_ns - req.submit_ns;
      if (finish(opt_, res)) ++slow;
      req.done.set_value(std::move(res));
    }
    util::Crashbox::request_end(req.cb_slot);
  }
  util::Prof::set_request(0);

  // The one site that counts requests done, whatever their outcome.
  const auto done = static_cast<std::uint64_t>(cols);
  {
    std::lock_guard lock(mu_);
    if (batch.front().t != nullptr) release_matrix(key, batch.size());  // queued requests
    inflight_ -= done;
    completed_ += done;
    ++batches_;
    max_batch_ = std::max(max_batch_, done);
    slow_ += slow;
    util::Metrics::gauge_set(kInflight, static_cast<std::int64_t>(inflight_));
  }
  util::Metrics::add(kCompleted, done);
  util::Metrics::add(kBatches);
  if (slow > 0) util::Metrics::add(kSlow, slow);
  cv_drained_.notify_all();
}

std::shared_ptr<const toeplitz::BlockToeplitz> Service::hold_matrix(
    const std::string& key, const toeplitz::BlockToeplitz& t) {
  SharedMatrix& e = matrices_[key];
  if (e.t == nullptr) e.t = std::make_shared<const toeplitz::BlockToeplitz>(t);
  ++e.holders;
  return e.t;
}

void Service::release_matrix(const std::string& key, std::size_t holders) {
  const auto it = matrices_.find(key);
  it->second.holders -= holders;
  if (it->second.holders == 0) matrices_.erase(it);
}

void Service::drain() {
  std::unique_lock lock(mu_);
  cv_drained_.wait(lock, [&] { return queue_.empty() && inflight_ == 0; });
}

void Service::dispatcher_loop() {
  util::StallGuard::register_self("svc:dispatcher");
  for (;;) {
    std::vector<Request> batch;
    {
      util::StallGuard::idle();  // parked on the condvar: not a stall
      std::unique_lock lock(mu_);
      cv_nonempty_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      util::StallGuard::beat();
      if (queue_.empty()) {
        if (stop_) return;  // drained shutdown: exit only once the queue is empty
        continue;
      }
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      // Coalesce same-key requests into one factor lookup + blocked solve.
      for (auto it = queue_.begin();
           it != queue_.end() && static_cast<index_t>(batch.size()) < opt_.max_batch;) {
        if (it->key == batch.front().key) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      inflight_ += batch.size();
      util::Metrics::gauge_set(kQueueDepth, static_cast<std::int64_t>(queue_.size()));
      util::Metrics::gauge_set(kInflight, static_cast<std::int64_t>(inflight_));
      // Age of the oldest request still waiting: a growing value with a
      // non-empty queue means the dispatcher is falling behind.
      const std::int64_t backlog_ms =
          queue_.empty() ? 0
                         : static_cast<std::int64_t>(
                               (util::TraceClock::now_ns() - queue_.front().submit_ns) /
                               1000000u);
      util::Metrics::gauge_set(kBacklogAge, backlog_ms);
    }
    cv_notfull_.notify_all();

    util::Fault::fire("dispatch");
    serve(*batch.front().t, batch, util::TraceClock::now_ns());
  }
}

ServiceStats Service::stats() const {
  ServiceStats s;
  s.cache = cache_.stats();
  std::lock_guard lock(mu_);
  s.submitted = submitted_;
  s.rejected = rejected_;
  s.completed = completed_;
  s.batches = batches_;
  s.max_batch = max_batch_;
  s.queue_peak = queue_peak_;
  s.slow = slow_;
  s.queued_matrices = matrices_.size();
  s.refine_sweeps = refine_sweeps_.load(std::memory_order_relaxed);
  return s;
}

util::Json Service::stats_json() const {
  const ServiceStats s = stats();
  util::Json cache = util::Json::object();
  cache.set("hits", util::Json::number(s.cache.hits));
  cache.set("misses", util::Json::number(s.cache.misses));
  cache.set("evictions", util::Json::number(s.cache.evictions));
  cache.set("resident_bytes", util::Json::number(static_cast<std::uint64_t>(s.cache.resident_bytes)));
  cache.set("entries", util::Json::number(static_cast<std::uint64_t>(s.cache.entries)));
  cache.set("max_bytes", util::Json::number(static_cast<std::uint64_t>(cache_.max_bytes())));
  cache.set("hit_rate", util::Json::number(s.cache.hit_rate()));
  cache.set("enabled", util::Json::boolean(opt_.cache_enabled));
  util::Json queue = util::Json::object();
  queue.set("capacity", util::Json::number(static_cast<std::uint64_t>(opt_.queue_capacity)));
  queue.set("peak", util::Json::number(s.queue_peak));
  queue.set("submitted", util::Json::number(s.submitted));
  queue.set("rejected", util::Json::number(s.rejected));
  queue.set("completed", util::Json::number(s.completed));
  queue.set("slow", util::Json::number(s.slow));
  queue.set("slow_ms", util::Json::number(opt_.slow_ms));
  queue.set("queued_matrices", util::Json::number(static_cast<std::uint64_t>(s.queued_matrices)));
  util::Json batch = util::Json::object();
  batch.set("batches", util::Json::number(s.batches));
  batch.set("max_batch", util::Json::number(s.max_batch));
  batch.set("mean_batch", util::Json::number(s.mean_batch()));
  batch.set("max_batch_limit", util::Json::number(static_cast<std::uint64_t>(opt_.max_batch)));
  batch.set("rhs_panel", util::Json::number(static_cast<std::uint64_t>(opt_.rhs_panel)));
  util::Json refine = util::Json::object();
  refine.set("steps", util::Json::number(static_cast<std::uint64_t>(opt_.refine_steps)));
  refine.set("sweeps", util::Json::number(s.refine_sweeps));
  util::Json root = util::Json::object();
  root.set("cache", std::move(cache));
  root.set("queue", std::move(queue));
  root.set("batch", std::move(batch));
  root.set("refine", std::move(refine));
  return root;
}

}  // namespace bst::service
