// A per-epoch derived view: one whole-graph answer vector (CC labels,
// coreness, PageRank) computed at most once per graph entry and shared by
// every point query against that entry (docs/ENGINE.md "Registry").
//
// Built lazily on first touch and single-flighted: concurrent first touches
// share one build; the others wait for it. A build that throws — the
// builder's token was cancelled or its deadline passed — publishes nothing
// and wakes the waiters, one of which builds again under its own token, so
// an abandoned first touch never poisons the view. Waiters poll their own
// token while they wait, so a waiter's cancel or deadline still lands
// within about a millisecond.
//
// Once built the vector is immutable; readers take one acquire load and
// never lock. The view's footprint is published through an atomic after
// the build, so memory accounting can read it race-free at any time.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <vector>

#include "engine/cancel.h"

namespace ligra::engine {

template <class T>
class derived_view {
 public:
  derived_view() = default;
  derived_view(const derived_view&) = delete;
  derived_view& operator=(const derived_view&) = delete;

  // The view, building it with `build()` (-> std::vector<T>) first if no
  // build has succeeded yet. Returns true in `*built` when this call was
  // the one that published it. Throws whatever `build` throws, or the
  // typed error of `token` if it trips while waiting on another builder.
  template <class Build>
  const std::vector<T>& get(const cancel_token& token, Build&& build,
                            bool* built = nullptr) {
    if (ready_.load(std::memory_order_acquire)) return value_;
    std::unique_lock<std::mutex> lock(mutex_);
    while (building_) {
      if (token.active()) {
        cv_.wait_for(lock, std::chrono::milliseconds(1));
        token.poll();
      } else {
        cv_.wait(lock);
      }
    }
    if (ready_.load(std::memory_order_relaxed)) return value_;
    building_ = true;
    lock.unlock();
    std::vector<T> v;
    try {
      v = build();
    } catch (...) {
      lock.lock();
      building_ = false;
      cv_.notify_all();
      throw;
    }
    lock.lock();
    value_ = std::move(v);
    bytes_.store(value_.capacity() * sizeof(T), std::memory_order_relaxed);
    ready_.store(true, std::memory_order_release);
    building_ = false;
    cv_.notify_all();
    if (built != nullptr) *built = true;
    return value_;
  }

  bool ready() const { return ready_.load(std::memory_order_acquire); }
  // Bytes held by the built vector; 0 until a build has succeeded.
  size_t memory_bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool building_ = false;  // guarded by mutex_
  std::vector<T> value_;   // written once, before ready_ publishes it
  std::atomic<bool> ready_{false};
  std::atomic<size_t> bytes_{0};
};

}  // namespace ligra::engine
