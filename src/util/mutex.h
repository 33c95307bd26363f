#ifndef CQBOUNDS_UTIL_MUTEX_H_
#define CQBOUNDS_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace cqbounds {

/// std::mutex behind the Clang thread-safety capability attributes
/// (util/thread_annotations.h). The analysis can only track lock state
/// through lock functions that carry acquire/release attributes, which
/// libstdc++'s std::mutex / std::lock_guard lack -- so every mutex that
/// guards annotated state in this codebase is a cqbounds::Mutex, locked via
/// MutexLock (scoped) or Lock()/Unlock() (for the hand-over-hand patterns a
/// scope cannot express). Zero overhead: Mutex is exactly a std::mutex plus
/// attributes the compiler erases.
class CQB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() CQB_ACQUIRE() { mu_.lock(); }
  void Unlock() CQB_RELEASE() { mu_.unlock(); }

  /// The wrapped std::mutex, for interop with std waiting primitives
  /// (CondVar::Wait adopts it). Invisible to the analysis -- never lock it
  /// directly outside this header.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII scoped lock over Mutex, attribute-equivalent to std::lock_guard:
/// acquires in the constructor, releases in the destructor, and tells the
/// analysis so.
class CQB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CQB_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() CQB_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. Wait requires the mutex held (the
/// analysis checks callers); the internal release/reacquire across the block
/// is invisible to the analysis, matching the semantics callers observe --
/// the capability is held before and after, and guarded state must be
/// re-checked in a loop after every wakeup:
///
///   while (!predicate_over_guarded_state) cv.Wait(mu);
///
/// Predicates stay at the call site (not a lambda parameter) on purpose:
/// the analysis does not propagate REQUIRES into lambda bodies, so a
/// wait-with-predicate overload would force guarded reads into unanalyzed
/// code.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks until notified, reacquiring `mu`
  /// before returning. Spurious wakeups happen; always re-check the
  /// predicate.
  void Wait(Mutex& mu) CQB_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.native(), std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller still holds mu; do not unlock on scope exit
  }

  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace cqbounds

#endif  // CQBOUNDS_UTIL_MUTEX_H_
