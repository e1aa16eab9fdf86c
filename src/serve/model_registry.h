// Atomic model hot-swap (the missing piece between the paper's offline
// training and a service that never stops answering: the vendor retrains,
// the customer site publishes the new model under live traffic).
//
// Readers call Acquire() and get an immutable snapshot — a
// std::shared_ptr<const core::Predictor> plus the generation it was
// published as. They hold the snapshot for a whole micro-batch and never
// take a caller-visible lock; the swap itself is a single atomic
// shared_ptr store (libstdc++ guards the control block with an internal
// per-object spinlock, paid once per batch, not per query). Publishers are
// rare (one per retrain) and serialize on the atomic exchange loop.
//
// The published Predictor must never be mutated afterwards — see the
// thread-safety contract in core/predictor.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

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
    auto entry = std::make_shared<Entry>();
    entry->model = std::move(model);
    std::shared_ptr<const Entry> prev = entry_.load();
    do {
      entry->generation = (prev ? prev->generation : 0) + 1;
    } while (!entry_.compare_exchange_weak(prev, entry));
    return entry->generation;
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
    std::shared_ptr<const Entry> prev = entry_.load();
    std::shared_ptr<const Entry> cleared;
    do {
      if (!prev || prev->model == nullptr) return;  // already empty
      auto entry = std::make_shared<Entry>();
      entry->generation = prev->generation;  // model stays null
      cleared = std::move(entry);
    } while (!entry_.compare_exchange_weak(prev, cleared));
  }

  /// Current model + generation; {nullptr, 0} before the first publish.
  /// After Unpublish() the snapshot is invalid but keeps the generation.
  Snapshot Acquire() const {
    const std::shared_ptr<const Entry> entry = entry_.load();
    if (!entry) return {};
    return {entry->model, entry->generation};
  }

  bool has_model() const {
    const std::shared_ptr<const Entry> entry = entry_.load();
    return entry != nullptr && entry->model != nullptr;
  }
  uint64_t generation() const {
    const std::shared_ptr<const Entry> entry = entry_.load();
    return entry ? entry->generation : 0;
  }

 private:
  struct Entry {
    std::shared_ptr<const core::Predictor> model;
    uint64_t generation = 0;
  };
  std::atomic<std::shared_ptr<const Entry>> entry_;
};

}  // namespace qpp::serve
