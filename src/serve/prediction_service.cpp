#include "serve/prediction_service.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.h"
#include "serve/shadow_observer.h"

namespace qpp::serve {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

const char* ResponseSourceName(ResponseSource s) {
  switch (s) {
    case ResponseSource::kModel: return "model";
    case ResponseSource::kCache: return "cache";
    case ResponseSource::kOptimizerFallback: return "optimizer-cost";
  }
  return "?";
}

ServeResponse FallbackResponse(const CostCalibration& calibration,
                               const ServeRequest& request, const char* reason,
                               bool anomalous) {
  ServeResponse response;
  response.prediction =
      FallbackPrediction(calibration, request.optimizer_cost, anomalous);
  response.source = ResponseSource::kOptimizerFallback;
  response.degraded_reason = reason;
  response.trace_id = request.ctx.trace_id;
  return response;
}

size_t PredictionService::FeatureHash::operator()(
    const linalg::Vector& v) const {
  // FNV-1a over the raw double bit patterns: exact-match semantics, and
  // +0.0 vs -0.0 hashing apart is fine (equal_to would match them, but a
  // spurious miss only costs a model call).
  uint64_t h = 1469598103934665603ull;
  for (const double d : v) {
    h ^= std::bit_cast<uint64_t>(d);
    h *= 1099511628211ull;
  }
  return static_cast<size_t>(h);
}

PredictionService::PredictionService(ModelRegistry* registry,
                                     ServiceConfig config,
                                     CostCalibration calibration)
    : registry_(registry),
      config_(config),
      calibration_(calibration),
      queue_(config.queue_capacity),
      breaker_(config.breaker),
      cache_(config.cache_capacity) {
  QPP_CHECK(registry_ != nullptr);
  QPP_CHECK(config_.num_workers >= 1 && config_.max_batch >= 1);
  workers_.reserve(config_.num_workers);
  for (size_t i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

PredictionService::~PredictionService() { Shutdown(); }

std::future<ServeResponse> PredictionService::Submit(ServeRequest request) {
  Pending pending;
  pending.request = std::move(request);
  pending.enqueued_at = std::chrono::steady_clock::now();
  std::future<ServeResponse> future = pending.promise.get_future();
  if (!queue_.Push(std::move(pending))) {
    // Lost the race with Shutdown(): answer directly instead of dropping.
    RespondFallback(&pending, "shutdown", /*generation=*/0);
  }
  return future;
}

bool PredictionService::TrySubmit(ServeRequest request,
                                  std::promise<ServeResponse>* promise) {
  QPP_CHECK(promise != nullptr);
  if (config_.faults != nullptr && config_.faults->serve_enabled() &&
      config_.faults->NextSubmitReject()) {
    // Injected queue-full storm: indistinguishable from the real thing.
    stats_.RecordRejected();
    return false;
  }
  Pending pending;
  pending.request = std::move(request);
  pending.promise = std::move(*promise);
  pending.enqueued_at = std::chrono::steady_clock::now();
  if (!queue_.TryPush(std::move(pending))) {
    // TryPush refuses without consuming; hand the promise back intact.
    *promise = std::move(pending.promise);
    stats_.RecordRejected();
    return false;
  }
  return true;
}

std::future<ServeResponse> PredictionService::SubmitWithRetry(
    ServeRequest request, const RetryPolicy& policy) {
  QPP_CHECK(policy.max_attempts >= 1);
  Pending pending;
  std::future<ServeResponse> future = pending.promise.get_future();
  double backoff = std::max(0.0, policy.initial_backoff_seconds);
  for (int attempt = 0;; ++attempt) {
    // A refused attempt leaves the promise with us for the next one.
    if (TrySubmit(request, &pending.promise)) return future;
    if (attempt + 1 >= policy.max_attempts) break;
    if (backoff > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
    backoff = std::min(backoff * kRetryBackoffMultiplier,
                       kMaxRetryBackoffSeconds);
  }
  // Every attempt refused: degrade inline instead of handing back an error.
  pending.request = std::move(request);
  pending.enqueued_at = std::chrono::steady_clock::now();
  RespondFallback(&pending, "overload", /*generation=*/0);
  return future;
}

void PredictionService::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    queue_.Close();
    for (std::thread& w : workers_) w.join();
  });
}

void PredictionService::WorkerLoop() {
  std::vector<Pending> batch;
  WorkerScratch scratch;
  while (true) {
    batch.clear();
    const size_t taken = queue_.PopBatch(config_.max_batch, &batch);
    if (taken == 0) return;  // closed and drained
    stats_.RecordBatch(taken);
    ProcessBatch(&batch, &scratch);
  }
}

void PredictionService::ProcessBatch(std::vector<Pending>* batch,
                                     WorkerScratch* scratch) {
  obs::TraceRecorder* const trace = config_.trace;
  // Request-scoped correlation: a single-request batch (the shape every
  // deterministic harness drives) installs its context for the whole
  // batch, so every span below — the predictor's internal stages included
  // — auto-tags with the trace id. Multi-request batches share the stage
  // spans by construction; those get the id list on the batch span below
  // and exact per-request ids on the queue_wait events and responses.
  obs::ScopedRequestContext batch_ctx(batch->size() == 1
                                          ? (*batch)[0].request.ctx
                                          : obs::RequestContext{});
  obs::Span batch_span(trace, "batch");
  batch_span.AddArg("size", static_cast<uint64_t>(batch->size()));
  if (trace != nullptr && batch->size() > 1) {
    std::string ids;
    for (const Pending& p : *batch) {
      if (!p.request.ctx.valid()) continue;
      if (!ids.empty()) ids += ',';
      ids += obs::TraceIdHex(p.request.ctx.trace_id);
    }
    if (!ids.empty()) batch_span.AddArg("trace_ids", ids.c_str());
  }

  const ModelRegistry::Snapshot snap = registry_->Acquire();

  // Batch-level fault hooks. The registry swap fires AFTER the snapshot
  // was acquired — the hardest timing for the hot-swap contract, since the
  // whole batch must still answer (and cache) under the generation it
  // grabbed, never a blend. The worker stall is applied as *virtual* queue
  // age so deadline behavior is deterministic under replay; a token real
  // sleep (capped at 1ms) keeps the stall visible in wall-clock traces
  // without making the test suite slow.
  double virtual_age = 0.0;
  if (config_.faults != nullptr && config_.faults->serve_enabled()) {
    const fault::FaultInjector::BatchFaults bf =
        config_.faults->NextBatchFaults();
    if (bf.swap_registry) config_.faults->FireRegistrySwap();
    if (bf.stall_seconds > 0.0) {
      virtual_age = bf.stall_seconds;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(bf.stall_seconds, 0.001)));
    }
    if (!config_.shard_label.empty()) {
      // Replica-targeted stall: only fires on the service whose label the
      // plan names (a "group#index" replica label), so chaos can slow one
      // replica while its group peers absorb the traffic.
      const fault::FaultInjector::BatchFaults rf =
          config_.faults->NextReplicaBatchFaults(config_.shard_label);
      if (rf.stall_seconds > 0.0) {
        virtual_age += rf.stall_seconds;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(rf.stall_seconds, 0.001)));
      }
    }
  }

  const auto picked_up_at = std::chrono::steady_clock::now();

  if (trace != nullptr) {
    // Queue-wait intervals: begun at Submit() on a client thread, ended at
    // pickup here. Emitted as async begin/end pairs — unlike complete
    // spans, overlapping waits from concurrent requests render correctly.
    for (const Pending& p : *batch) {
      const uint64_t id = trace->NextAsyncId();
      const uint32_t tid = trace->CurrentThreadTid();
      obs::TraceEvent b;
      b.phase = 'b';
      b.name = "queue_wait";
      b.category = "serve";
      b.pid = obs::TraceRecorder::kServicePid;
      b.tid = tid;
      b.ts_us = trace->MicrosAt(p.enqueued_at);
      b.id = id;
      if (p.request.ctx.valid()) {
        b.args.emplace_back(
            "trace_id",
            "\"" + obs::TraceIdHex(p.request.ctx.trace_id) + "\"");
      }
      trace->Add(std::move(b));
      obs::TraceEvent e;
      e.phase = 'e';
      e.name = "queue_wait";
      e.category = "serve";
      e.pid = obs::TraceRecorder::kServicePid;
      e.tid = tid;
      e.ts_us = trace->MicrosAt(picked_up_at);
      e.id = id;
      trace->Add(std::move(e));
    }
  }

  // Pass 1: deadline policy and cache probes; collect the model's work.
  // The collection vectors live in the worker's scratch: cleared (capacity
  // kept), not reconstructed, every batch.
  std::vector<size_t>& miss_indices = scratch->miss_indices;
  std::vector<linalg::Vector>& miss_features = scratch->miss_features;
  miss_indices.clear();
  miss_features.clear();
  {
  obs::Span cache_span(trace, "cache_lookup");
  for (size_t i = 0; i < batch->size(); ++i) {
    Pending& p = (*batch)[i];
    const double deadline = config_.queue_deadline_seconds;
    if (deadline > 0.0 &&
        SecondsSince(p.enqueued_at, picked_up_at) + virtual_age > deadline) {
      // A blown deadline is the predictor path failing its budget — this
      // is what the breaker watches.
      if (config_.breaker.enabled) breaker_.RecordFailure();
      RespondFallback(&p, "deadline", snap.generation);
      continue;
    }
    if (!snap.valid()) {
      RespondFallback(&p, "no-model", /*generation=*/0);
      continue;
    }
    if (config_.breaker.enabled && !breaker_.AllowRequest()) {
      RespondFallback(&p, "circuit-open", snap.generation);
      continue;
    }
    if (config_.cache_capacity > 0) {
      CachedPrediction cached;
      bool hit;
      {
        std::lock_guard<std::mutex> lock(cache_mu_);
        hit = cache_.Get(p.request.features, &cached);
      }
      // Entries from a retired model generation are treated as misses and
      // overwritten below, so a hot-swap can never serve stale results.
      if (hit && cached.generation == snap.generation) {
        stats_.RecordCacheHit();
        if (config_.breaker.enabled) breaker_.RecordSuccess();
        ServeResponse response;
        response.prediction = std::move(cached.prediction);
        response.source = ResponseSource::kCache;
        Respond(&p, std::move(response), snap.generation);
        continue;
      }
    }
    // Lent to the batch, not copied: returned right after the prediction.
    miss_indices.push_back(i);
    miss_features.push_back(std::move(p.request.features));
  }
  }  // cache_span
  if (miss_indices.empty()) return;

  // Pass 2: one batched prediction for everything the cache did not cover,
  // through the query-blocked zero-allocation entry point with this
  // worker's warmed scratch. PredictBatchInto is bit-identical to
  // per-query Predict, so batching never changes an answer (tracing
  // doesn't either — it only wraps the stages).
  std::vector<core::Prediction>& predictions = scratch->predictions;
  {
    obs::Span predict_span(trace, "predict");
    predict_span.AddArg("misses", static_cast<uint64_t>(miss_indices.size()));
    predict_span.AddArg("generation", snap.generation);
    snap.model->PredictBatchInto(miss_features, &scratch->predict,
                                 &predictions, trace);
  }
  // The cache key and the shadow lane read each request's features again.
  for (size_t j = 0; j < miss_indices.size(); ++j) {
    (*batch)[miss_indices[j]].request.features = std::move(miss_features[j]);
  }
  obs::Span respond_span(trace, "respond");
  for (size_t j = 0; j < miss_indices.size(); ++j) {
    Pending& p = (*batch)[miss_indices[j]];
    const core::Prediction& prediction = predictions[j];
    if (prediction.anomalous && config_.fallback_on_anomalous) {
      // The model says "this query is far from everything I trained on";
      // answering with the optimizer baseline (labeled) beats answering
      // with a number the paper shows is untrustworthy there. Anomalous
      // predictions are not cached: they are rare, and the cache only
      // holds what was actually served as a model answer.
      RespondFallback(&p, "anomalous", snap.generation, /*anomalous=*/true);
      continue;
    }
    if (config_.cache_capacity > 0) {
      std::lock_guard<std::mutex> lock(cache_mu_);
      cache_.Put(p.request.features, {snap.generation, prediction});
    }
    stats_.RecordModelPrediction();
    if (config_.breaker.enabled) breaker_.RecordSuccess();
    ServeResponse response;
    response.prediction = prediction;
    Respond(&p, std::move(response), snap.generation);
  }
}

void PredictionService::RespondFallback(Pending* pending, const char* reason,
                                        uint64_t generation, bool anomalous) {
  stats_.RecordFallback(reason);
  Respond(pending,
          FallbackResponse(calibration_, pending->request, reason, anomalous),
          generation);
}

void PredictionService::Respond(Pending* pending, ServeResponse response,
                                uint64_t generation) {
  response.model_generation = generation;
  response.shard = config_.shard_label;
  response.trace_id = pending->request.ctx.trace_id;
  response.latency_seconds =
      SecondsSince(pending->enqueued_at, std::chrono::steady_clock::now());
  // Per-request scope even inside a multi-request batch: the latency
  // exemplar and anything the on_response observer records (the fabric's
  // SLO engine, its flight recorder) attribute to *this* request.
  obs::ScopedRequestContext respond_ctx(pending->request.ctx);
  stats_.RecordResponse(response.latency_seconds, response.trace_id);
  if (config_.shadow != nullptr && !response.degraded()) {
    // The shadow lane observes, never writes: it gets the served bits (and
    // the features that produced them) but the response object is already
    // built, so nothing the observer does can change what the client sees.
    stats_.RecordShadowObserved();
    config_.shadow->OnServedPrediction(pending->request.features,
                                       response.prediction, generation,
                                       response.trace_id);
  }
  if (config_.on_response) config_.on_response(response);
  pending->promise.set_value(std::move(response));
}

core::WorkloadManager::Outcome AdmitServed(const core::WorkloadManager& wm,
                                           const ServeResponse& response) {
  core::WorkloadManager::Outcome out;
  out.prediction = response.prediction;
  out.decision = wm.Decide(response.prediction);
  out.kill_deadline_seconds = wm.KillDeadlineSeconds(response.prediction);
  return out;
}

}  // namespace qpp::serve
