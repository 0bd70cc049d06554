// Annotated synchronization primitives: std::mutex semantics, visible to
// Clang's thread-safety analysis.
//
// libstdc++'s std::mutex / std::lock_guard carry no capability attributes,
// so `GUARDED_BY(some_std_mutex)` checks nothing. These thin wrappers are
// the project's lockable types: every mutex-protected structure
// (LiveEngine's writer/slot state, the transports' run-queue and session
// tables, obs::Registry's instrument list) declares a util::Mutex and
// annotates the fields it guards, and the CI Clang leg compiles src/ with
// -Wthread-safety -Werror so an unguarded access is a build break.
// Zero-cost: both types compile to exactly the std::mutex /
// std::lock_guard code they wrap.
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace probgraph::util {

/// std::mutex with the CAPABILITY attribute: the object named by
/// GUARDED_BY/REQUIRES annotations. Not recursive, not timed — exactly
/// the subset the serving stack uses.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// std::lock_guard over a Mutex, visible to the analysis as a scoped
/// capability: construction acquires, destruction releases, and the
/// guarded fields are accessible exactly within the scope.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable usable with util::Mutex. wait() REQUIRES the mutex
/// — the analysis checks the caller holds it — and internally adopts the
/// already-held native handle so the std wait/relock machinery runs
/// unannotated (the lock state on return is the same as on entry, which
/// is exactly what the analysis assumes).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  template <typename Predicate>
  void wait(Mutex& mu, Predicate pred) REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native, std::move(pred));
    native.release();  // still held; MutexLock/caller owns the unlock
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace probgraph::util
