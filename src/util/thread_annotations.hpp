// Clang thread-safety-analysis attribute macros.
//
// These turn the prose concurrency contracts (engine.hpp "Thread safety",
// the QSBR protocol in engine/generation.hpp, net::Server's session table,
// obs::Registry's creation lock) into
// machine-checked invariants: under Clang with -Wthread-safety (the CI
// `clang-thread-safety` job compiles all of src/ with -Werror), reading a
// GUARDED_BY field without its mutex, calling a REQUIRES function
// unlocked, or forgetting a RELEASE path is a COMPILE ERROR, not a TSan
// roll of the dice. On every other compiler the macros expand to nothing.
//
// Annotate with the wrapper types in util/sync.hpp (util::Mutex,
// util::MutexLock) — std::mutex carries no capability attributes on
// libstdc++, so the analysis cannot see through it.
//
// Negative-compile tests (tests/negative_compile/, wired through CMake
// try_compile) pin that these annotations are live, not decorative: a
// seeded guarded-field misuse must FAIL the Clang leg.
#pragma once

#if defined(__clang__) && !defined(SWIG)
#define PROBGRAPH_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PROBGRAPH_THREAD_ANNOTATION(x)  // no-op: GCC/MSVC have no analysis
#endif

/// A type that is a lock/capability (util::Mutex).
#define CAPABILITY(x) PROBGRAPH_THREAD_ANNOTATION(capability(x))

/// An RAII type that acquires a capability at construction and releases it
/// at destruction (util::MutexLock).
#define SCOPED_CAPABILITY PROBGRAPH_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only with the named mutex held.
#define GUARDED_BY(x) PROBGRAPH_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose POINTEE is guarded by the named mutex.
#define PT_GUARDED_BY(x) PROBGRAPH_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function callable only with the named mutex(es) already held.
#define REQUIRES(...) \
  PROBGRAPH_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function that acquires the named mutex(es) and returns holding them.
#define ACQUIRE(...) PROBGRAPH_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function that releases the named mutex(es).
#define RELEASE(...) PROBGRAPH_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function that acquires the mutex iff it returns `ret`.
#define TRY_ACQUIRE(ret, ...) \
  PROBGRAPH_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

/// Function that must NOT be called with the named mutex(es) held
/// (deadlock guard for self-locking entry points).
#define EXCLUDES(...) PROBGRAPH_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (trusted by the analysis).
#define ASSERT_CAPABILITY(x) PROBGRAPH_THREAD_ANNOTATION(assert_capability(x))

/// Function returning a reference to the named capability.
#define RETURN_CAPABILITY(x) PROBGRAPH_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch — every use needs a comment saying WHY the analysis is
/// wrong or out of scope (tools/lint/check_layout.py does not police this,
/// but reviewers do).
#define NO_THREAD_SAFETY_ANALYSIS \
  PROBGRAPH_THREAD_ANNOTATION(no_thread_safety_analysis)
