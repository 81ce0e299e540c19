#include "daemon/dispatcher.hpp"

#include <algorithm>
#include <utility>

#include "core/fingerprint.hpp"
#include "obs/sink.hpp"

namespace plansep::daemon {

Dispatcher::Dispatcher(DispatcherOptions opts, serve::ArtifactCache& cache,
                       DaemonMetrics& metrics)
    : opts_(std::move(opts)),
      cache_(cache),
      metrics_(metrics),
      engine_cache_(opts_.engine_capacity) {
  opts_.workers = std::max(1, opts_.workers);
  opts_.max_queue = std::max<std::size_t>(1, opts_.max_queue);
  opts_.chaos_max_attempts = std::max(1, opts_.chaos_max_attempts);

  // Settle the PLANSEP_METRICS bootstrap, then detach every process-global
  // hook for the dispatcher's lifetime — same reasoning as run_batch's
  // parallel section (batch.cpp): the registry and sink demand
  // single-threaded mutation, and a fault injector must never observe two
  // concurrent networks.
  obs::ensure_env_metrics();
  saved_registry_ = obs::set_global_registry(nullptr);
  saved_sink_ = congest::set_global_trace_sink(nullptr);
  saved_injector_ = congest::set_global_fault_injector(nullptr);

  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Dispatcher::~Dispatcher() {
  drain();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  congest::set_global_fault_injector(saved_injector_);
  congest::set_global_trace_sink(saved_sink_);
  obs::set_global_registry(saved_registry_);
}

Admission Dispatcher::submit(Submission s, CompletionFn done) {
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    metrics_.add("daemon/submitted");
    if (draining_ || stopping_) {
      metrics_.add("daemon/rejected_draining");
      return Admission::kDraining;
    }
    if (outstanding_[s.client] >= opts_.per_client_quota) {
      metrics_.add("daemon/rejected_quota");
      return Admission::kQuotaExceeded;
    }
    const std::size_t depth = high_.size() + normal_.size();
    if (depth >= opts_.max_queue) {
      metrics_.add("daemon/rejected_backpressure");
      return Admission::kQueueFull;
    }
    seq = next_seq_[s.client]++;
    ++outstanding_[s.client];
    metrics_.add("daemon/admitted");
    metrics_.sample("daemon/queue_depth", static_cast<long long>(depth + 1));
    Item item{std::move(s), std::move(done), seq};
    if (item.sub.priority == Priority::kHigh) {
      high_.push_back(std::move(item));
    } else {
      normal_.push_back(std::move(item));
    }
  }
  work_cv_.notify_one();
  return Admission::kAdmitted;
}

void Dispatcher::pause() {
  std::lock_guard<std::mutex> lk(mu_);
  paused_ = true;
}

void Dispatcher::resume() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void Dispatcher::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  draining_ = true;
  paused_ = false;
  work_cv_.notify_all();
  idle_cv_.wait(lk, [&] {
    return high_.empty() && normal_.empty() && running_ == 0;
  });
}

void Dispatcher::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [&] {
    return high_.empty() && normal_.empty() && running_ == 0;
  });
}

std::size_t Dispatcher::queue_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return high_.size() + normal_.size();
}

long long Dispatcher::outstanding(std::uint64_t client) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = outstanding_.find(client);
  return it == outstanding_.end() ? 0 : it->second;
}

bool Dispatcher::draining() const {
  std::lock_guard<std::mutex> lk(mu_);
  return draining_;
}

bool Dispatcher::chaos_fires(std::uint64_t id, int attempt) const {
  if (opts_.chaos_crash_prob <= 0) return false;
  // The final attempt never crashes, so every job eventually delivers the
  // same payload a chaos-free run would.
  if (attempt + 1 >= opts_.chaos_max_attempts) return false;
  const std::uint64_t h = core::mix_seed(
      opts_.chaos_seed, id, static_cast<std::uint64_t>(attempt),
      0x63686170736f63ULL /* "chaos" */);
  // Uniform [0, 1) from the hash's top 53 bits (the fault-plan idiom).
  return static_cast<double>(h >> 11) * 0x1.0p-53 < opts_.chaos_crash_prob;
}

void Dispatcher::execute(Item item) {
  if (item.sub.ingest != nullptr) {
    // Ingest jobs are pure functions of (text, options) plus one
    // idempotent corpus write; no global hooks, so a shared lock and a
    // single attempt suffice (same reasoning as query jobs below).
    IngestOutcome outcome;
    ingest::IngestOptions opts = item.sub.ingest->options;
    opts.corpus_root = opts_.batch.corpus_dir;
    try {
      ingest::IngestResult res;
      {
        std::shared_lock<std::shared_mutex> sh(fault_mu_);
        res = ingest::ingest_string(item.sub.ingest->text, opts);
      }
      outcome.status = "ok";
      outcome.fingerprint = res.meta.fingerprint;
      outcome.corpus_path = res.corpus_file;
      outcome.nodes = res.graph.num_nodes();
      outcome.edges = res.graph.num_edges();
      metrics_.add("daemon/ingest_accepted");
    } catch (const ingest::IngestError& e) {
      outcome.status = "rejected";
      outcome.error_code = static_cast<std::uint8_t>(e.code());
      outcome.error = e.what();
      outcome.witness = e.witness();
      if (outcome.witness.size() > kMaxWitnessEdges) {
        outcome.witness.resize(kMaxWitnessEdges);
      }
      metrics_.add("daemon/ingest_rejected");
    }
    metrics_.add("daemon/completed");
    metrics_.add("daemon/ingests");
    metrics_.job_completed(item.sub.id, 1);
    if (item.done) {
      JobDone done;
      done.client = item.sub.client;
      done.id = item.sub.id;
      done.client_seq = item.client_seq;
      done.is_ingest = true;
      done.ingest_outcome = std::move(outcome);
      item.done(done);
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      --outstanding_[item.sub.client];
      --running_;
    }
    idle_cv_.notify_all();
    return;
  }

  if (item.sub.query != nullptr) {
    // Query jobs never install the process-global fault injector and are
    // pure functions of (job, artifact bytes), so chaos re-runs would buy
    // nothing: one shared-lock execution, one delivery.
    query::QueryOutcome outcome;
    {
      std::shared_lock<std::shared_mutex> sh(fault_mu_);
      outcome = query::run_query_job(*item.sub.query, opts_.batch, cache_,
                                     &engine_cache_);
    }
    metrics_.add("daemon/completed");
    metrics_.add("daemon/queries");
    metrics_.add("daemon/query_answers",
                 static_cast<long long>(outcome.distances.size()));
    if (outcome.engine_cache_hit) metrics_.add("daemon/query_engine_hits");
    if (outcome.status == "error") metrics_.add("daemon/errors");
    metrics_.job_completed(item.sub.id, 1);
    if (item.done) {
      JobDone done;
      done.client = item.sub.client;
      done.id = item.sub.id;
      done.client_seq = item.client_seq;
      done.is_query = true;
      done.query_outcome = std::move(outcome);
      item.done(done);
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      --outstanding_[item.sub.client];
      --running_;
    }
    idle_cv_.notify_all();
    return;
  }

  serve::JobResult result;
  const bool faulty = item.sub.spec.faults.enabled();
  for (int attempt = 0;; ++attempt) {
    if (faulty) {
      // Exclusive: this job installs the process-global fault injector.
      std::unique_lock<std::shared_mutex> ex(fault_mu_);
      result = serve::run_single_job(item.sub.spec, item.sub.id, opts_.batch,
                                     cache_);
    } else {
      std::shared_lock<std::shared_mutex> sh(fault_mu_);
      result = serve::run_single_job(item.sub.spec, item.sub.id, opts_.batch,
                                     cache_);
    }
    if (!chaos_fires(item.sub.id, attempt)) break;
    // Simulated worker crash: the attempt's result is discarded and the
    // job re-runs. Payload determinism is untouched — run_single_job is a
    // pure function of (spec, id, artifact bytes).
    metrics_.add("daemon/chaos_crashes");
    metrics_.add("daemon/retries");
  }

  metrics_.add("daemon/completed");
  if (result.status == "deadline") metrics_.add("daemon/deadline_missed");
  if (result.status == "error") metrics_.add("daemon/errors");
  metrics_.job_completed(item.sub.id, result.attempts);

  if (item.done) {
    JobDone done;
    done.client = item.sub.client;
    done.id = item.sub.id;
    done.client_seq = item.client_seq;
    done.result = std::move(result);
    item.done(done);
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    --outstanding_[item.sub.client];
    --running_;
  }
  idle_cv_.notify_all();
}

void Dispatcher::worker_loop() {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] {
        return stopping_ ||
               (!paused_ && (!high_.empty() || !normal_.empty()));
      });
      if (stopping_ && high_.empty() && normal_.empty()) return;
      if (paused_ || (high_.empty() && normal_.empty())) continue;
      std::deque<Item>& q = high_.empty() ? normal_ : high_;
      item = std::move(q.front());
      q.pop_front();
      ++running_;
    }
    execute(std::move(item));
  }
}

}  // namespace plansep::daemon
