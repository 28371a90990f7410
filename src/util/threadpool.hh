/**
 * @file
 * Reusable worker-thread pool with a chunked parallel-for API.
 *
 * Campaign layers are embarrassingly parallel (independent DTA shards,
 * independent injection runs) but must stay bit-deterministic for any
 * thread count. The pool therefore promises nothing about *which*
 * worker executes a task — tasks are handed out dynamically from an
 * atomic counter — and callers make per-task results depend only on the
 * task index (per-task forked Rng, per-shard state reset), never on
 * the worker assignment or completion order.
 */

#ifndef TEA_UTIL_THREADPOOL_HH
#define TEA_UTIL_THREADPOOL_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tea {

/**
 * Fixed-size pool of worker threads. The calling thread participates
 * in every parallelFor as worker 0, so a pool of size 1 spawns no
 * threads at all and runs tasks inline — the serial and parallel code
 * paths are literally the same code.
 */
class ThreadPool
{
  public:
    /**
     * Largest worker count any configuration may ask for: REPRO_THREADS
     * is clamped to it, and a fleet plan asking for more is malformed.
     */
    static constexpr unsigned kMaxThreads = 1024;

    /**
     * @param threads worker count including the caller; 0 selects
     *        defaultThreads() (REPRO_THREADS or hardware concurrency).
     */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned numThreads() const { return numThreads_; }

    /**
     * Run fn(taskIndex, workerIndex) for every index in [begin, end)
     * and block until all tasks finish. workerIndex is in
     * [0, numThreads()) and identifies the executing worker so tasks
     * can use per-worker scratch state (which they must re-initialize
     * per task if results are to be thread-count-invariant). Tasks are
     * claimed one index at a time from an atomic cursor, so indices
     * should be coarse shards, not single cheap iterations. The first
     * exception thrown by a task is rethrown on the calling thread
     * after the loop drains.
     */
    void parallelFor(uint64_t begin, uint64_t end,
                     const std::function<void(uint64_t, unsigned)> &fn);

    /** parallelFor that collects fn's return values, in index order. */
    template <typename T, typename Fn>
    std::vector<T> parallelMap(uint64_t n, Fn &&fn)
    {
        std::vector<T> out(n);
        parallelFor(0, n, [&](uint64_t i, unsigned w) {
            out[i] = fn(i, w);
        });
        return out;
    }

    /**
     * Thread count from the REPRO_THREADS environment variable, or
     * hardware_concurrency() when unset/invalid (never less than 1).
     * If REPRO_THREADS holds a comma-separated sweep list, the first
     * entry governs this default.
     */
    static unsigned defaultThreads();

    /** Lazily-constructed process-wide pool of defaultThreads(). */
    static ThreadPool &global();

    /**
     * Process-wide telemetry across every pool instance: total tasks
     * claimed by runTasks and total nanoseconds workers spent parked
     * waiting for a job. Plain monotonic counters (no reset) so the
     * observability layer can sample them at export time without
     * tea_util depending on tea_obs.
     */
    static uint64_t tasksExecuted();
    static uint64_t idleNanos();

  private:
    struct Job;

    void workerLoop(unsigned workerIndex);
    void runTasks(Job &job, unsigned workerIndex);

    unsigned numThreads_;
    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;   ///< workers wait for a job
    std::condition_variable done_;   ///< caller waits for completion
    Job *job_ = nullptr;             ///< current job (guarded by mutex_)
    uint64_t jobSerial_ = 0;         ///< bumps per job so workers rewake
    bool stopping_ = false;
};

} // namespace tea

#endif // TEA_UTIL_THREADPOOL_HH
