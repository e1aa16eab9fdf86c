// The online prediction service (the customer-site half of the paper's
// Fig. 1, grown into a serving layer): many client threads submit plan
// feature vectors, a worker pool drains them in micro-batches through the
// batched KCCA path, and every client gets a future that resolves to a
// labeled response.
//
//   clients ──Submit()──▶ BoundedQueue ──PopBatch()──▶ workers
//                                                        │ LRU cache probe
//                                                        │ Predictor::PredictBatch
//                                                        │ fallback policy
//                                                        ▼
//                                             std::promise → client future
//
// Guarantees:
//  * Determinism — for any request answered from the model or the cache,
//    response.prediction is bit-identical to core::Predictor::Predict on
//    the same features against the same model generation, regardless of
//    batching, caching, thread count, or arrival order.
//  * Graceful degradation — when the model cannot be trusted (none
//    published, query anomalous, queue deadline exceeded) the service
//    answers with the calibrated optimizer-cost baseline instead of
//    failing, and the response says so (`source`, `degraded_reason`).
//  * No accepted request is dropped: Shutdown() drains the queue before
//    the workers exit, and destruction shuts down cleanly.
//  * Backpressure — Submit blocks when the queue is full; TrySubmit
//    refuses instead (and the refusal is counted); SubmitWithRetry retries
//    with exponential backoff and degrades to the labeled "overload"
//    fallback rather than failing.
//  * Resilience — an optional circuit breaker trips the model path to the
//    fallback when the request deadline budget is being exhausted, and a
//    fault::FaultInjector can be attached to rehearse all of this
//    deterministically (see docs/FAULTS.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/predictor.h"
#include "core/workload_manager.h"
#include "fault/fault_injector.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "serve/bounded_queue.h"
#include "serve/circuit_breaker.h"
#include "serve/cost_fallback.h"
#include "serve/lru_cache.h"
#include "serve/model_registry.h"
#include "serve/service_stats.h"

namespace qpp::serve {

class ShadowObserver;  // serve/shadow_observer.h

enum class ResponseSource {
  kModel,              ///< answered by the published model
  kCache,              ///< identical feature vector answered before
  kOptimizerFallback,  ///< degraded: calibrated optimizer cost estimate
};

const char* ResponseSourceName(ResponseSource s);

struct ServeRequest {
  linalg::Vector features;       ///< raw plan feature vector
  /// The plan's optimizer cost, carried along as the degradation baseline;
  /// negative = unavailable (fallback then predicts zero metrics).
  double optimizer_cost = -1.0;
  /// Request-scoped correlation context (see obs/request_context.h). The
  /// fabric stamps a deterministic trace id here at its front door;
  /// standalone callers may stamp their own or leave it empty (no
  /// correlation, no cost). Never affects the prediction. The default
  /// member initializer lets callers brace-initialize the leading fields
  /// without -Wmissing-field-initializers.
  obs::RequestContext ctx = {};
};

struct ServeResponse {
  core::Prediction prediction;
  ResponseSource source = ResponseSource::kModel;
  /// Non-empty iff source == kOptimizerFallback: "no-model", "anomalous",
  /// "deadline", "shutdown" (Submit lost the race with Shutdown()),
  /// "overload" (SubmitWithRetry exhausted its attempts), or
  /// "circuit-open" (the breaker short-circuited the model path).
  std::string degraded_reason;
  /// Registry generation that answered (0 for no-model fallback).
  uint64_t model_generation = 0;
  /// Submit-to-response wall time.
  double latency_seconds = 0.0;
  /// ServiceConfig::shard_label of the answering service: the fabric
  /// replica label "group#index" (see fabric/fabric.h); empty for a
  /// standalone service.
  std::string shard;
  /// The request's correlation id echoed back (0 when the request carried
  /// none): the handle for finding this request's spans in the Chrome
  /// trace and its decisions in the flight recorder.
  uint64_t trace_id = 0;

  bool degraded() const { return source == ResponseSource::kOptimizerFallback; }
};

/// The labeled optimizer-cost answer every degraded path gives `request`:
/// FallbackPrediction at the request's cost, source kOptimizerFallback,
/// `reason` as the degraded_reason, and the request's trace id.
ServeResponse FallbackResponse(const CostCalibration& calibration,
                               const ServeRequest& request, const char* reason,
                               bool anomalous = false);

/// Backoff schedule for SubmitWithRetry: attempt i sleeps
/// min(initial * kRetryBackoffMultiplier^i, kMaxRetryBackoffSeconds)
/// before retrying a refused submit.
struct RetryPolicy {
  int max_attempts = 3;
  double initial_backoff_seconds = 0.0005;
};
inline constexpr double kRetryBackoffMultiplier = 2.0;
inline constexpr double kMaxRetryBackoffSeconds = 0.05;

struct ServiceConfig {
  size_t num_workers = 2;
  /// Upper bound on one micro-batch; workers take whatever is queued up to
  /// this, so light load degenerates to batch size 1 (lowest latency).
  size_t max_batch = 16;
  size_t queue_capacity = 1024;
  /// Requests older than this when a worker picks them up are answered
  /// with the fallback instead of the model ("better a rough answer now
  /// than a good answer too late"). <= 0 disables the deadline — the
  /// default, because deadline fallbacks are inherently timing-dependent
  /// and forfeit the determinism guarantee.
  double queue_deadline_seconds = 0.0;
  /// Answer anomalous queries (far from all training neighbors) with the
  /// optimizer baseline; the paper's model is explicitly untrustworthy
  /// there. Requires the request to carry an optimizer cost.
  bool fallback_on_anomalous = true;
  /// Result-cache entries (exact feature-vector match); 0 disables.
  size_t cache_capacity = 4096;
  /// Per-request span tracing (queue wait, batch assembly, cache lookup,
  /// predict stages, respond) into this recorder; null (the default)
  /// disables tracing at the cost of one pointer test per stage — the
  /// serve throughput gate runs in this mode and must not move. The
  /// recorder must outlive the service.
  obs::TraceRecorder* trace = nullptr;
  /// Circuit breaker guarding the model path (see circuit_breaker.h);
  /// disabled by default — the hot path then pays one bool test.
  CircuitBreakerConfig breaker;
  /// Fault injection session (chaos testing); null (the default) compiles
  /// the fault points down to one pointer test each. The injector must
  /// outlive the service.
  fault::FaultInjector* faults = nullptr;
  /// Name of the replica this service instance backs. Stamped onto every
  /// response (`ServeResponse::shard`) and matched against the fault
  /// plan's `target_replica_label` for targeted worker stalls; empty (the
  /// default) for a standalone deployment. Fabric replicas use
  /// "group#index" labels (see fabric/fabric.h).
  std::string shard_label;
  /// Observer invoked on every response (including inline fallbacks) just
  /// before the future resolves, from whichever thread answers. Used by
  /// fabric::AdmissionController to feed its windowed-p99 load signal;
  /// null (the default) costs one test per response. Must not Submit back
  /// into the same service (the queue lock is not held, but worker threads
  /// calling themselves recursively would deadlock Shutdown).
  std::function<void(const ServeResponse&)> on_response;
  /// The shadow lane (serve/shadow_observer.h): sees every model/cache
  /// response — features, served bits, generation — just before the future
  /// resolves, so a lifecycle::LifecycleManager can score challengers
  /// against live traffic without touching what clients receive. Fallback
  /// responses are NOT observed (there is no model prediction to compare).
  /// Null (the default) costs one test per response; the observer must
  /// outlive the service and must not Submit back into it.
  ShadowObserver* shadow = nullptr;
};

class PredictionService {
 public:
  /// The registry is the service's model source and must outlive it.
  /// Publishing to it mid-traffic hot-swaps the model between batches.
  PredictionService(ModelRegistry* registry, ServiceConfig config = {},
                    CostCalibration calibration = {});
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Enqueues a request; blocks while the queue is full (backpressure).
  /// The future resolves once a worker answers.
  std::future<ServeResponse> Submit(ServeRequest request);

  /// Non-blocking submit that fulfills a caller-owned promise: on success
  /// the promise is moved into the queue and resolves when a worker
  /// answers; false (and a counted rejection) when the queue is full or
  /// the service is shutting down, and the caller keeps the promise. Fault
  /// injection may refuse an attempt here as if the queue were saturated
  /// (counted the same). This is how the fabric bridges deferred-admission
  /// requests: the front door hands out the future at defer time and the
  /// service fulfills it when the request is finally dispatched.
  bool TrySubmit(ServeRequest request, std::promise<ServeResponse>* promise);

  /// TrySubmit with exponential backoff under `policy`. Never returns a
  /// broken future: when every attempt is refused the request is answered
  /// inline with the labeled "overload" fallback, so callers under a
  /// rejection storm still get the degradation contract instead of an
  /// error path to handle.
  std::future<ServeResponse> SubmitWithRetry(ServeRequest request,
                                             const RetryPolicy& policy);

  /// Stops accepting requests, drains everything already queued, joins the
  /// workers. Idempotent.
  void Shutdown();

  // Hash/equality for exact feature-vector cache keys: doubles hashed by
  // bit pattern, so a hit implies bit-identical input. Public because the
  // fabric keys its route cache the same way.
  struct FeatureHash {
    size_t operator()(const linalg::Vector& v) const;
  };

  /// Requests currently queued (a point-in-time load signal; the fabric's
  /// power-of-two-choices spread compares replicas on this).
  size_t queue_depth() const { return queue_.size(); }

  ServiceStatsSnapshot stats() const { return stats_.Snapshot(); }
  /// The service's metrics registry (Prometheus export surface; see
  /// docs/OBSERVABILITY.md for the metric names).
  obs::MetricsRegistry* metrics() { return stats_.registry(); }
  const obs::MetricsRegistry& metrics() const { return stats_.registry(); }
  const ServiceConfig& config() const { return config_; }
  const CircuitBreaker& breaker() const { return breaker_; }
  /// Mutable breaker access for deployment wiring (the fabric installs a
  /// transition hook per replica); not for flipping state by hand.
  CircuitBreaker* mutable_breaker() { return &breaker_; }

 private:
  struct Pending {
    ServeRequest request;
    std::promise<ServeResponse> promise;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  /// Per-worker reusable buffers: the predictor's batch scratch plus the
  /// miss-collection and result vectors. Owned by one worker thread and
  /// reused across batches, so the steady-state model path runs through
  /// core::Predictor::PredictBatchInto without reallocating per batch.
  struct WorkerScratch {
    core::Predictor::BatchScratch predict;
    std::vector<size_t> miss_indices;
    /// The misses' feature vectors, moved out of their requests for the
    /// prediction and moved back after it: no copy per miss.
    std::vector<linalg::Vector> miss_features;
    std::vector<core::Prediction> predictions;
  };

  void WorkerLoop();
  void ProcessBatch(std::vector<Pending>* batch, WorkerScratch* scratch);
  /// Stamps `response` with the serving generation, this replica's label,
  /// the request's trace id and its latency, then resolves the future.
  void Respond(Pending* pending, ServeResponse response, uint64_t generation);
  /// Counts a fallback under `reason` and responds with FallbackResponse.
  void RespondFallback(Pending* pending, const char* reason,
                       uint64_t generation, bool anomalous = false);

  // Cached entries are tagged with the model generation that produced
  // them; a hot-swap makes older entries miss (and get overwritten) rather
  // than serve predictions from a retired model.
  struct CachedPrediction {
    uint64_t generation = 0;
    core::Prediction prediction;
  };

  ModelRegistry* const registry_;
  const ServiceConfig config_;
  const CostCalibration calibration_;
  BoundedQueue<Pending> queue_;
  ServiceStats stats_;
  CircuitBreaker breaker_;
  std::mutex cache_mu_;
  LruCache<linalg::Vector, CachedPrediction, FeatureHash> cache_;
  std::vector<std::thread> workers_;
  std::once_flag shutdown_once_;
};

/// Admission control riding on the service: the WorkloadManager thresholds
/// applied to a served response. Works for degraded responses too — a
/// fallback triggered by an anomaly keeps the anomalous flag, so the
/// review-anomalies policy still routes it to a human.
core::WorkloadManager::Outcome AdmitServed(const core::WorkloadManager& wm,
                                           const ServeResponse& response);

}  // namespace qpp::serve
