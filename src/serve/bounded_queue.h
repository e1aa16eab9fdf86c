// Bounded MPMC blocking queue — the admission edge of the prediction
// service. Clients push requests (blocking when the queue is full, which is
// the service's backpressure mechanism), workers drain them in micro-batches.
//
// Semantics:
//  * Push blocks while full, returns false once the queue is closed;
//  * TryPush never blocks, returns false when full or closed;
//  * PopBatch blocks while empty; after Close() it drains whatever is
//    still queued and then reports exhaustion, so no accepted request is
//    ever dropped on shutdown.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.h"

namespace qpp::serve {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {
    QPP_CHECK(capacity_ >= 1);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full. Returns false iff the queue was
  /// closed before space became available; on failure the item is NOT
  /// consumed (the caller still owns it and can answer it directly).
  bool Push(T&& item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push: false when full or closed (item not consumed).
  bool TryPush(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Micro-batch drain: blocks for the first item, then takes whatever else
  /// is already queued, up to `max_items`. Appends to `*out` and returns
  /// the number taken; 0 means closed and fully drained. Draining only
  /// what is ready (instead of waiting to fill the batch) keeps latency
  /// low under light load while amortizing work under heavy load.
  size_t PopBatch(size_t max_items, std::vector<T>* out) {
    QPP_CHECK(max_items >= 1 && out != nullptr);
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    size_t taken = 0;
    while (taken < max_items && !items_.empty()) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
      ++taken;
    }
    lock.unlock();
    if (taken > 0) not_full_.notify_all();
    return taken;
  }

  /// Closes the queue: subsequent pushes fail, poppers drain then stop.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  const size_t capacity_;
  bool closed_ = false;
};

}  // namespace qpp::serve
