/**
 * @file
 * Tests for the base/sync.hh capability layer: wrapper semantics
 * under real contention (the TSan CI job runs this suite), the
 * timeout paths, and the lock-order checker's cycle and recursion
 * diagnostics.
 *
 * The deliberately-wrong acquisition orders live in helpers marked
 * SCHED_NO_THREAD_SAFETY_ANALYSIS: the runtime checker is the subject
 * under test here, and the compile-time analysis would (correctly)
 * reject the double-lock shapes it can see through.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "base/check.hh"
#include "base/sync.hh"

namespace
{

using statsched::base::CondVar;
using statsched::base::Mutex;
using statsched::base::MutexLock;

/** Shared state for the contention tests, annotated the same way
 *  production classes are so Clang's analysis covers the test too. */
struct Counter
{
    Mutex mutex{"test::Counter::mutex"};
    std::uint64_t value SCHED_GUARDED_BY(mutex) = 0;
    CondVar changed;
};

TEST(Sync, MutexLockSerializesConcurrentIncrements)
{
    Counter counter;
    constexpr int kThreads = 4;
    constexpr int kIncrements = 2000;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (int i = 0; i < kIncrements; ++i) {
                MutexLock lock(counter.mutex);
                ++counter.value;
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    MutexLock lock(counter.mutex);
    EXPECT_EQ(static_cast<std::uint64_t>(kThreads) * kIncrements,
              counter.value);
}

TEST(Sync, CondVarHandshakeDeliversValue)
{
    // The predicate-free wait convention from sync.hh: the condition
    // is re-checked in a caller-side while loop under the lock.
    Counter counter;
    std::thread producer([&counter] {
        MutexLock lock(counter.mutex);
        counter.value = 42;
        counter.changed.notifyAll();
    });

    {
        MutexLock lock(counter.mutex);
        while (counter.value == 0)
            counter.changed.wait(counter.mutex);
        EXPECT_EQ(42u, counter.value);
    }
    producer.join();
}

TEST(Sync, CondVarWaitForTimesOutWithoutNotification)
{
    Counter counter;
    MutexLock lock(counter.mutex);
    EXPECT_EQ(std::cv_status::timeout,
              counter.changed.waitFor(counter.mutex,
                                      std::chrono::milliseconds(1)));
}

TEST(Sync, CondVarWaitUntilHonorsAnExpiredDeadline)
{
    Counter counter;
    MutexLock lock(counter.mutex);
    EXPECT_EQ(std::cv_status::timeout,
              counter.changed.waitUntil(
                  counter.mutex, std::chrono::steady_clock::now()));
}

TEST(Sync, MutexReportsItsDiagnosticName)
{
    Mutex named("core::Example::mutex_");
    EXPECT_STREQ("core::Example::mutex_", named.name());
    Mutex anonymous;
    EXPECT_STREQ("base::Mutex", anonymous.name());
}

/** Acquires `first` then `second`, recording one order edge. Marked
 *  no-analysis: the second lock is taken while the first is held by
 *  design, which is exactly what the runtime checker inspects. */
void
acquireInOrder(Mutex &first, Mutex &second)
    SCHED_NO_THREAD_SAFETY_ANALYSIS
{
    MutexLock outer(first);
    MutexLock inner(second);
}

TEST(Sync, LockOrderInversionThrowsNamingBothLocks)
{
    Mutex a("sync-test-order-a");
    Mutex b("sync-test-order-b");
    acquireInOrder(a, b); // records a -> b

    try {
        acquireInOrder(b, a); // would record b -> a: a cycle
        ADD_FAILURE() << "inverted acquisition was not refused";
    } catch (const statsched::ContractViolation &violation) {
        const std::string what = violation.what();
        EXPECT_NE(std::string::npos, what.find("sync-test-order-a"))
            << what;
        EXPECT_NE(std::string::npos, what.find("sync-test-order-b"))
            << what;
        EXPECT_NE(std::string::npos,
                  what.find("lock-order inversion"))
            << what;
    }
}

TEST(Sync, LockOrderInversionLeavesBothLocksReleased)
{
    Mutex a("sync-test-unwind-a");
    Mutex b("sync-test-unwind-b");
    acquireInOrder(a, b);
    EXPECT_THROW(acquireInOrder(b, a),
                 statsched::ContractViolation);

    // The refused acquisition must have unwound cleanly: both locks
    // are free and the recorded a -> b order still works.
    acquireInOrder(a, b);
}

TEST(Sync, ConsistentNestingNeverTrips)
{
    Mutex a("sync-test-consistent-a");
    Mutex b("sync-test-consistent-b");
    for (int i = 0; i < 100; ++i)
        acquireInOrder(a, b);
    { MutexLock lone(b); } // b alone is not an inversion
    acquireInOrder(a, b);
}

TEST(Sync, ThreeLockCycleIsRefusedOnTheClosingEdge)
{
    // a -> b and b -> c are fine individually; c -> a closes the
    // cycle through the transitive order, which a two-lock check
    // would miss.
    Mutex a("sync-test-cycle-a");
    Mutex b("sync-test-cycle-b");
    Mutex c("sync-test-cycle-c");
    acquireInOrder(a, b);
    acquireInOrder(b, c);
    EXPECT_THROW(acquireInOrder(c, a),
                 statsched::ContractViolation);
}

TEST(Sync, RetiredMutexDropsItsOrderConstraints)
{
    // The edges die with the Mutex: a fresh pair is free to pick the
    // opposite order, even if the allocator reuses the storage.
    {
        Mutex a("sync-test-retire-a");
        Mutex b("sync-test-retire-b");
        acquireInOrder(a, b);
    }
    {
        Mutex a("sync-test-retire-a");
        Mutex b("sync-test-retire-b");
        acquireInOrder(b, a);
    }
}

/** Locks `mutex` twice on one thread; no-analysis for the same reason
 *  as acquireInOrder. */
void
acquireRecursively(Mutex &mutex) SCHED_NO_THREAD_SAFETY_ANALYSIS
{
    MutexLock outer(mutex);
    MutexLock inner(mutex);
}

TEST(Sync, RecursiveAcquisitionThrowsInsteadOfDeadlocking)
{
    Mutex mutex("sync-test-recursive");
    try {
        acquireRecursively(mutex);
        ADD_FAILURE() << "recursive acquisition was not refused";
    } catch (const statsched::ContractViolation &violation) {
        const std::string what = violation.what();
        EXPECT_NE(std::string::npos, what.find("sync-test-recursive"))
            << what;
        EXPECT_NE(std::string::npos, what.find("not reentrant"))
            << what;
    }
    // The refusal happened before the second lock; the first was
    // released by unwinding and the mutex is usable again.
    MutexLock lock(mutex);
}

} // anonymous namespace
