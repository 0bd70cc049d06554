// Annotated synchronization primitives: std::mutex semantics, visible to
// Clang's thread-safety analysis.
//
// libstdc++'s std::mutex / std::lock_guard carry no capability attributes,
// so `GUARDED_BY(some_std_mutex)` checks nothing. These thin wrappers are
// the project's lockable types: every mutex-protected structure
// (LiveEngine's writer/slot state, net::Server's session table,
// obs::Registry's instrument list) declares a util::Mutex and
// annotates the fields it guards, and the CI Clang leg compiles src/ with
// -Wthread-safety -Werror so an unguarded access is a build break.
// Zero-cost: both types compile to exactly the std::mutex /
// std::lock_guard code they wrap.
#pragma once

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

}  // namespace probgraph::util
