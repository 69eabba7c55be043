/**
 * @file
 * Persistent worker pool for embarrassingly parallel index ranges.
 *
 * Extracted from core::ParallelEngine so other fan-out sites (the
 * bootstrap resampler, benchmarks) can share the same machinery: a
 * fixed set of std::thread workers pulling fixed-size chunks of an
 * index range from an atomic claim counter. The calling thread
 * participates in every run, so a pool constructed with `threads == 1`
 * has no workers and degenerates to a serial loop — callers never need
 * a separate serial code path.
 *
 * Determinism: run() invokes task(begin, end) over disjoint chunks
 * covering [0, n) exactly once each. Which thread runs a chunk is
 * scheduling-dependent, but as long as the task writes only to
 * per-index slots the overall result is independent of thread count
 * and interleaving.
 */

#ifndef STATSCHED_BASE_WORKER_POOL_HH
#define STATSCHED_BASE_WORKER_POOL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "base/sync.hh"

namespace statsched
{
namespace base
{

/**
 * Pool of persistent workers executing chunked index ranges.
 */
class WorkerPool
{
  public:
    /** Task over a half-open index chunk [begin, end). */
    using ChunkTask = std::function<void(std::size_t, std::size_t)>;

    /** Maps 0 to defaultThreads() of the hardware concurrency. */
    static unsigned
    resolveThreads(unsigned requested)
    {
        if (requested != 0)
            return requested;
        return defaultThreads(std::thread::hardware_concurrency());
    }

    /**
     * @return the pool size for `hw` hardware threads (0 = unknown):
     *         all but one from three up, so that the rest of the
     *         machine's work runs beside the pool rather than in a
     *         pool thread's time slice. On a 4-cpu host, a 24-task
     *         campaign at 4 threads was preempted 3-6 times and a
     *         one-cpu busy loop slowed it by 25-30%; at 3 threads it
     *         was preempted 0-1 times and the busy loop did not slow
     *         it (METHOD.md §2).
     */
    static unsigned
    defaultThreads(unsigned hw)
    {
        if (hw == 0)
            return 1;
        return hw >= 3 ? hw - 1 : hw;
    }

    /**
     * Chunks small enough to balance uneven item costs, large enough
     * to amortize the atomic claim.
     */
    static std::size_t
    defaultChunk(std::size_t n, unsigned threads)
    {
        const std::size_t target =
            n / (static_cast<std::size_t>(threads) * 4);
        return std::clamp<std::size_t>(target, 1, 64);
    }

    /**
     * @param threads Total threads participating in each run including
     *                the caller; 0 selects defaultThreads().
     */
    explicit WorkerPool(unsigned threads = 0)
        : threads_(resolveThreads(threads))
    {
        // The calling thread participates in every run, so the pool
        // holds threads_ - 1 workers.
        for (unsigned i = 1; i < threads_; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~WorkerPool()
    {
        {
            MutexLock lock(mutex_);
            stopping_ = true;
        }
        wake_.notifyAll();
        for (auto &worker : workers_)
            worker.join();
    }

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** @return threads participating per run (caller + workers). */
    unsigned threads() const { return threads_; }

    /**
     * Runs task over every chunk of [0, n) and returns once all n
     * indices are done. The caller participates; with no workers this
     * is a plain serial loop.
     *
     * The task may throw. An exception must never unwind a pool
     * thread, nor leave run() while workers still call the task, so
     * each chunk's exception is caught where it is raised; once every
     * chunk has finished, the one from the lowest chunk is rethrown on
     * the caller. For a task that stops a chunk at its first failure,
     * that is the exception a serial loop over [0, n) would have
     * raised.
     *
     * @param n     Number of indices.
     * @param chunk Chunk size (>= 1); use defaultChunk() if unsure.
     * @param task  Chunk body; must only touch per-index state.
     */
    void
    run(std::size_t n, std::size_t chunk, const ChunkTask &task)
    {
        if (n == 0)
            return;
        if (workers_.empty() || n == 1) {
            task(0, n);
            return;
        }

        auto job = std::make_shared<Job>();
        job->n = n;
        job->chunk = std::max<std::size_t>(chunk, 1);
        job->task = &task;
        job->errors.resize((n + job->chunk - 1) / job->chunk);

        {
            MutexLock lock(mutex_);
            job_ = job;
        }
        wake_.notifyAll();

        runChunks(*job);

        {
            MutexLock lock(mutex_);
            while (job->done.load(std::memory_order_acquire) != job->n)
                finished_.wait(mutex_);
            // Clear the published job so destruction cannot race a
            // worker that never woke for it.
            job_.reset();
        }
        for (const std::exception_ptr &error : job->errors) {
            if (error)
                std::rethrow_exception(error);
        }
    }

  private:
    /**
     * One run in flight. Workers take a shared_ptr snapshot of the
     * current job under the pool mutex, so a late worker from a
     * previous run can never touch the fields of the next one.
     */
    struct Job
    {
        std::size_t n = 0;
        std::size_t chunk = 1;
        const ChunkTask *task = nullptr;
        /** Each chunk's exception, written by the thread that ran it
         *  and read by the caller once every chunk is done. */
        std::vector<std::exception_ptr> errors;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
    };

    /** Claims and evaluates chunks until the job is drained. */
    void
    runChunks(Job &job)
    {
        for (;;) {
            const std::size_t begin =
                job.next.fetch_add(job.chunk,
                                   std::memory_order_relaxed);
            if (begin >= job.n)
                return;
            const std::size_t end = std::min(begin + job.chunk, job.n);
            try {
                (*job.task)(begin, end);
            } catch (...) {
                job.errors[begin / job.chunk] = std::current_exception();
            }
            const std::size_t finished =
                job.done.fetch_add(end - begin,
                                   std::memory_order_acq_rel) +
                (end - begin);
            if (finished == job.n) {
                // Pair the notification with the mutex so the waiter
                // cannot miss it between predicate check and sleep.
                { MutexLock lock(mutex_); }
                finished_.notifyAll();
            }
        }
    }

    void
    workerLoop()
    {
        std::shared_ptr<Job> seen;
        for (;;) {
            std::shared_ptr<Job> job;
            {
                MutexLock lock(mutex_);
                while (!stopping_ && (!job_ || job_ == seen))
                    wake_.wait(mutex_);
                if (stopping_)
                    return;
                job = job_;
                seen = job;
            }
            runChunks(*job);
        }
    }

    const unsigned threads_;

    Mutex mutex_{"base::WorkerPool::mutex_"};
    CondVar wake_;
    CondVar finished_;
    /** Current job; workers snapshot it under the lock. */
    std::shared_ptr<Job> job_ SCHED_GUARDED_BY(mutex_);
    bool stopping_ SCHED_GUARDED_BY(mutex_) = false;
    std::vector<std::thread> workers_; // NOLINT(statsched-unguarded-member): populated by the constructor before any worker can observe it, joined by the destructor after every worker stopped; never mutated while shared
};

} // namespace base
} // namespace statsched

#endif // STATSCHED_BASE_WORKER_POOL_HH
