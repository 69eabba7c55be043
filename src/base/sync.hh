/**
 * @file
 * Synchronization capability layer: annotated mutex/condvar wrappers
 * plus a runtime lock-order checker.
 *
 * Every mutex and condition variable in the library goes through this
 * header — the linter (statsched-raw-sync-primitive) rejects raw
 * std::mutex / std::condition_variable anywhere else — so that two
 * complementary checkers see the whole concurrent surface:
 *
 *  1. Clang thread-safety analysis (compile time). base::Mutex is a
 *     CAPABILITY, base::MutexLock a SCOPED_CAPABILITY, and shared
 *     members carry SCHED_GUARDED_BY(mutex_); Clang builds run with
 *     -Werror=thread-safety, so a guarded member touched without its
 *     lock, or a SCHED_REQUIRES function called lock-free, fails the
 *     build. The SCHED_* macros expand to nothing on non-Clang
 *     compilers. Convention: condition-variable waits are
 *     predicate-free — callers loop `while (!ready_) cv_.wait(mu_);`
 *     so every guarded access stays lexically inside a region the
 *     analysis can see (lambda bodies are analyzed as separate,
 *     unannotated functions and would leak accesses past it).
 *
 *  2. A process-wide lock-order graph (run time, in every build). Each
 *     thread keeps a stack of the base::Mutex objects it holds; every
 *     acquisition records "held before acquired" edges in a global
 *     directed graph, and the first acquisition that would close a
 *     cycle — the signature of a potential deadlock, even if this
 *     interleaving did not deadlock — raises a structured
 *     ContractViolation naming both locks. Recursive acquisition of a
 *     non-reentrant base::Mutex is reported the same way instead of
 *     deadlocking silently.
 *
 * The order graph only ever grows edges while a Mutex lives (a
 * destroyed Mutex retires its node, so id reuse across short-lived
 * engines cannot fabricate cycles), and known edges are re-checked
 * only against a hash set — the DFS runs once per NEW edge, so steady
 * state costs one small critical section per nested acquisition.
 */

#ifndef STATSCHED_BASE_SYNC_HH
#define STATSCHED_BASE_SYNC_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/check.hh"

#if defined(__SANITIZE_THREAD__) // GCC
#define STATSCHED_TSAN 1
#elif defined(__has_feature) // Clang
#if __has_feature(thread_sanitizer)
#define STATSCHED_TSAN 1
#endif
#endif
#ifdef STATSCHED_TSAN
#include <sanitizer/tsan_interface.h>
#endif

// --- Thread-safety annotation macros ------------------------------
//
// Thin names over Clang's capability attributes; they expand to
// nothing elsewhere, so annotated code stays portable. See
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html for the
// attribute semantics.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SCHED_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef SCHED_THREAD_ANNOTATION_
#define SCHED_THREAD_ANNOTATION_(x)
#endif

/** Marks a class as a lockable capability (mutex-like). */
#define SCHED_CAPABILITY(x) SCHED_THREAD_ANNOTATION_(capability(x))

/** Marks an RAII class whose lifetime holds a capability. */
#define SCHED_SCOPED_CAPABILITY \
    SCHED_THREAD_ANNOTATION_(scoped_lockable)

/** Declares that a member may only be touched while `x` is held. */
#define SCHED_GUARDED_BY(x) SCHED_THREAD_ANNOTATION_(guarded_by(x))

/** Declares that the pointee of a pointer member is guarded by `x`. */
#define SCHED_PT_GUARDED_BY(x) \
    SCHED_THREAD_ANNOTATION_(pt_guarded_by(x))

/** Function precondition: the listed capabilities must be held. */
#define SCHED_REQUIRES(...) \
    SCHED_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/** Function acquires the listed capabilities (defaults to `this`). */
#define SCHED_ACQUIRE(...) \
    SCHED_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/** Function releases the listed capabilities (defaults to `this`). */
#define SCHED_RELEASE(...) \
    SCHED_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/** Function must be called with the listed capabilities NOT held. */
#define SCHED_EXCLUDES(...) \
    SCHED_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/** Escape hatch for code the analysis cannot follow; every use needs
 *  a comment explaining why the access is safe. */
#define SCHED_NO_THREAD_SAFETY_ANALYSIS \
    SCHED_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace statsched
{
namespace base
{

namespace detail
{

/** One entry of a thread's lock-acquisition stack. */
struct HeldLock
{
    const void *mutex;  //!< identity of the held base::Mutex
    std::uint32_t id;   //!< its node id in the order graph
    const char *name;   //!< its diagnostic name (owner outlives hold)
};

/** @return the calling thread's stack of held base::Mutex locks. */
inline std::vector<HeldLock> &
heldLocks()
{
    thread_local std::vector<HeldLock> held;
    return held;
}

/**
 * Process-wide "must be acquired before" graph over live Mutex
 * objects. An edge a -> b means some thread held a while acquiring b;
 * the first edge that would make the graph cyclic is refused with a
 * ContractViolation, because two threads replaying the two recorded
 * orders can deadlock.
 */
class LockOrderGraph
{
  public:
    /** The graph is intentionally leaked: function-static Mutexes may
     *  unregister during teardown, after a destructor-managed graph
     *  would already be gone. */
    static LockOrderGraph &
    instance()
    {
        static LockOrderGraph *graph = new LockOrderGraph;
        return *graph;
    }

    /** @return a fresh node id for a newly constructed Mutex. */
    std::uint32_t
    registerNode()
    {
        return nextId_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Retires a destroyed Mutex: its node and every edge touching it
     *  disappear, so a reused id cannot inherit stale constraints. */
    void
    unregisterNode(std::uint32_t id)
    {
        std::lock_guard<std::mutex> lock(m_);
        edges_.erase(id);
        for (auto &entry : edges_)
            entry.second.erase(id);
    }

    /**
     * Records the constraint heldId -> acquiringId. Raises a
     * ContractViolation naming both locks if the new edge closes a
     * cycle; an already-known edge was vetted when first recorded and
     * returns after one hash probe.
     */
    void
    checkEdge(std::uint32_t heldId, const char *heldName,
              std::uint32_t acquiringId, const char *acquiringName)
    {
        std::lock_guard<std::mutex> lock(m_);
        std::unordered_set<std::uint32_t> &successors =
            edges_[heldId];
        if (successors.count(acquiringId) != 0)
            return;
        if (reaches(acquiringId, heldId)) {
            std::string message("lock-order inversion: acquiring \"");
            message += acquiringName;
            message += "\" while holding \"";
            message += heldName;
            message += "\" contradicts the recorded \"";
            message += acquiringName;
            message += "\" before \"";
            message += heldName;
            message += "\" order; threads replaying both orders can "
                       "deadlock";
            failCheck(message);
        }
        successors.insert(acquiringId);
    }

    /** Reports a recursive acquisition (base::Mutex is non-reentrant:
     *  std::mutex would deadlock or worse). */
    [[noreturn]] static void
    failRecursive(const char *name)
    {
        std::string message("recursive acquisition of \"");
        message += name;
        message += "\": base::Mutex is not reentrant";
        failCheck(message);
    }

  private:
    /** Raises the violation as a ContractViolation. */
    [[noreturn]] static void
    failCheck(const std::string &message)
    {
        contractThrow(ContractKind::Invariant,
                      "lock acquisitions keep the order graph acyclic",
                      message, __FILE__, __LINE__);
    }

    /** DFS: is `to` reachable from `from`? Caller holds m_. */
    bool
    reaches(std::uint32_t from, std::uint32_t to) const
    {
        std::vector<std::uint32_t> stack{from};
        std::unordered_set<std::uint32_t> visited;
        while (!stack.empty()) {
            const std::uint32_t node = stack.back();
            stack.pop_back();
            if (node == to)
                return true;
            if (!visited.insert(node).second)
                continue;
            const auto it = edges_.find(node);
            if (it == edges_.end())
                continue;
            for (const std::uint32_t next : it->second)
                stack.push_back(next);
        }
        return false;
    }

    /** Raw by design: the graph's own lock cannot track itself. */
    std::mutex m_;
    std::atomic<std::uint32_t> nextId_{1};
    std::unordered_map<std::uint32_t,
                       std::unordered_set<std::uint32_t>>
        edges_;
};

/** Pre-acquisition hook: rejects recursion, then vets one order edge
 *  per currently held lock. Runs BEFORE the underlying lock, so a
 *  refused acquisition leaves nothing to unwind. */
inline void
noteAcquire(const void *self, std::uint32_t id, const char *name)
{
    const std::vector<HeldLock> &held = heldLocks();
    for (const HeldLock &entry : held) {
        if (entry.mutex == self)
            LockOrderGraph::failRecursive(name);
    }
    for (const HeldLock &entry : held)
        LockOrderGraph::instance().checkEdge(entry.id, entry.name, id,
                                             name);
}

/** Post-acquisition hook: pushes onto the thread's held stack. */
inline void
notePush(const void *self, std::uint32_t id, const char *name)
{
    heldLocks().push_back(HeldLock{self, id, name});
}

/** Pre-release hook: pops the most recent entry for this mutex (locks
 *  are not required to be released in LIFO order). */
inline void
notePop(const void *self)
{
    std::vector<HeldLock> &held = heldLocks();
    for (auto it = held.rbegin(); it != held.rend(); ++it) {
        if (it->mutex == self) {
            held.erase(std::next(it).base());
            return;
        }
    }
}

} // namespace detail

/**
 * Non-reentrant mutual-exclusion capability. Exactly std::mutex plus
 * (a) a capability annotation the Clang analysis enforces and (b) the
 * lock-order bookkeeping described in the file comment. Give every
 * instance a name — it is what the deadlock diagnostic prints.
 */
class SCHED_CAPABILITY("mutex") Mutex
{
  public:
    explicit Mutex(const char *name = "base::Mutex")
        : name_(name),
          id_(detail::LockOrderGraph::instance().registerNode())
    {
    }

    ~Mutex()
    {
        detail::LockOrderGraph::instance().unregisterNode(id_);
#ifdef STATSCHED_TSAN
        // libstdc++'s std::mutex never calls pthread_mutex_destroy, so
        // TSan would pass this lock order on to a mutex reusing m_.
        __tsan_mutex_destroy(&m_, 0);
#endif
    }

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() SCHED_ACQUIRE()
    {
        detail::noteAcquire(this, id_, name_);
        m_.lock();
        detail::notePush(this, id_, name_);
    }

    void
    unlock() SCHED_RELEASE()
    {
        detail::notePop(this);
        m_.unlock();
    }

    /** Diagnostic name, as printed by the lock-order checker. */
    const char *name() const { return name_; }

  private:
    std::mutex m_;
    const char *name_;
    const std::uint32_t id_;
};

/**
 * RAII scope holding a Mutex; the only sanctioned way to lock one
 * outside of sync-layer internals.
 */
class SCHED_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) SCHED_ACQUIRE(mutex)
        : mutex_(mutex)
    {
        mutex_.lock();
    }

    ~MutexLock() SCHED_RELEASE() { mutex_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mutex_;
};

/**
 * Condition variable waiting on a base::Mutex. Waits are
 * predicate-free by convention (see the file comment): call inside a
 * `while (!condition)` loop with the mutex held. The wait releases
 * and reacquires through Mutex::unlock()/lock(), so the held-stack
 * and order-graph bookkeeping stay exact across the sleep.
 */
class CondVar
{
  public:
    CondVar() = default;

    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Atomically releases `mutex`, sleeps until notified (or
     *  spuriously woken), and reacquires before returning. */
    void
    wait(Mutex &mutex) SCHED_REQUIRES(mutex)
    {
        cv_.wait(mutex);
    }

    /** wait() bounded by a timeout. */
    template <typename Rep, typename Period>
    std::cv_status
    waitFor(Mutex &mutex,
            const std::chrono::duration<Rep, Period> &timeout)
        SCHED_REQUIRES(mutex)
    {
        return cv_.wait_for(mutex, timeout);
    }

    /** wait() bounded by an absolute deadline. */
    template <typename Clock, typename Duration>
    std::cv_status
    waitUntil(Mutex &mutex,
              const std::chrono::time_point<Clock, Duration> &deadline)
        SCHED_REQUIRES(mutex)
    {
        return cv_.wait_until(mutex, deadline);
    }

    void notifyOne() { cv_.notify_one(); }
    void notifyAll() { cv_.notify_all(); }

  private:
    std::condition_variable_any cv_;
};

} // namespace base
} // namespace statsched

#endif // STATSCHED_BASE_SYNC_HH
