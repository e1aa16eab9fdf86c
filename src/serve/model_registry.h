// Atomic model hot-swap (the missing piece between the paper's offline
// training and a service that never stops answering: the vendor retrains,
// the customer site publishes the new model under live traffic).
//
// Readers call Acquire() and get an immutable snapshot — a
// std::shared_ptr<const core::Predictor> plus the generation it was
// published as — and hold it for a whole micro-batch (workers) or one
// request (the fabric front door). One mutex guards the {model,
// generation} pair; each call holds it only to copy or swap that pair, so
// a swap is atomic to every reader. A replaced model is released after
// the lock drops, and lives on until its last snapshot does. Publishers
// are rare (one per retrain).
//
// The published Predictor must never be mutated afterwards — see the
// thread-safety contract in core/predictor.h.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "core/predictor.h"

namespace qpp::serve {

class ModelRegistry {
 public:
  struct Snapshot {
    std::shared_ptr<const core::Predictor> model;  ///< null before publish
    uint64_t generation = 0;                       ///< 0 = nothing published
    bool valid() const { return model != nullptr; }
  };

  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Publishes a new model; traffic switches to it at the next Acquire().
  /// Returns the generation assigned to this model (1, 2, ...).
  uint64_t Publish(std::shared_ptr<const core::Predictor> model) {
    QPP_CHECK(model != nullptr && model->trained());
    std::lock_guard<std::mutex> lock(mu_);
    model_.swap(model);  // the old model is released after the unlock
    return ++generation_;
  }

  /// Convenience overload: copies a trained predictor into a shared
  /// snapshot (the copy is what makes in-place retraining safe to publish).
  uint64_t Publish(const core::Predictor& model) {
    return Publish(std::make_shared<const core::Predictor>(model));
  }

  /// Removes the published model (replica kill / decommission): Acquire()
  /// then returns an invalid snapshot and the service degrades to its
  /// labeled no-model fallback. The generation counter is retained so a
  /// later Publish keeps advancing it and generation-tagged caches never
  /// confuse a revived registry with the model it served before the kill.
  void Unpublish() {
    std::shared_ptr<const core::Predictor> released;
    std::lock_guard<std::mutex> lock(mu_);
    model_.swap(released);
  }

  /// Current model + generation; {nullptr, 0} before the first publish.
  /// After Unpublish() the snapshot is invalid but keeps the generation.
  Snapshot Acquire() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {model_, generation_};
  }

  bool has_model() const {
    std::lock_guard<std::mutex> lock(mu_);
    return model_ != nullptr;
  }
  uint64_t generation() const {
    std::lock_guard<std::mutex> lock(mu_);
    return generation_;
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const core::Predictor> model_;  ///< null when unpublished
  uint64_t generation_ = 0;                       ///< 0 = nothing published
};

}  // namespace qpp::serve
