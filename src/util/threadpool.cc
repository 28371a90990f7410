#include "util/threadpool.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "util/env.hh"
#include "util/logging.hh"

namespace tea {

namespace {
// Process-wide across all pool instances; sampled by the obs layer.
std::atomic<uint64_t> totalTasks{0};
std::atomic<uint64_t> totalIdleNanos{0};
} // namespace

/** One parallelFor invocation: a shared cursor plus completion state. */
struct ThreadPool::Job
{
    uint64_t begin = 0;
    uint64_t end = 0;
    const std::function<void(uint64_t, unsigned)> *fn = nullptr;
    std::atomic<uint64_t> cursor{0};
    std::atomic<unsigned> active{0}; ///< workers still inside runTasks
    std::exception_ptr error;        ///< first task exception (mutex_)
};

ThreadPool::ThreadPool(unsigned threads)
    : numThreads_(threads ? threads : defaultThreads())
{
    if (numThreads_ == 0)
        numThreads_ = 1;
    workers_.reserve(numThreads_ - 1);
    for (unsigned w = 1; w < numThreads_; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
ThreadPool::runTasks(Job &job, unsigned workerIndex)
{
    for (;;) {
        uint64_t i = job.cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= job.end)
            break;
        totalTasks.fetch_add(1, std::memory_order_relaxed);
        try {
            (*job.fn)(i, workerIndex);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!job.error)
                job.error = std::current_exception();
        }
    }
}

void
ThreadPool::workerLoop(unsigned workerIndex)
{
    uint64_t seen = 0;
    for (;;) {
        Job *job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            auto idleFrom = std::chrono::steady_clock::now();
            wake_.wait(lock, [&] {
                return stopping_ || (job_ && jobSerial_ != seen);
            });
            totalIdleNanos.fetch_add(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - idleFrom)
                    .count(),
                std::memory_order_relaxed);
            if (stopping_)
                return;
            seen = jobSerial_;
            job = job_;
            job->active.fetch_add(1, std::memory_order_relaxed);
        }
        runTasks(*job, workerIndex);
        if (job->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // Notify under the lock: parallelFor tests `active` with
            // mutex_ held, so an unlocked notify could land between
            // its check and its wait and be lost, hanging the caller.
            std::lock_guard<std::mutex> lock(mutex_);
            done_.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(uint64_t begin, uint64_t end,
                        const std::function<void(uint64_t, unsigned)> &fn)
{
    if (begin >= end)
        return;
    Job job;
    job.begin = begin;
    job.end = end;
    job.fn = &fn;
    job.cursor.store(begin, std::memory_order_relaxed);

    if (numThreads_ > 1) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            job_ = &job;
            ++jobSerial_;
        }
        wake_.notify_all();
    }

    // The caller is worker 0.
    runTasks(job, 0);

    if (numThreads_ > 1) {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] {
            return job.active.load(std::memory_order_acquire) == 0;
        });
        job_ = nullptr;
    }
    if (job.error)
        std::rethrow_exception(job.error);
}

unsigned
ThreadPool::defaultThreads()
{
    if (const char *env = std::getenv("REPRO_THREADS")) {
        // Accept "4" or a sweep list "1,2,4": the first entry governs,
        // and it must be one clean integer — "4abc" is a typo, not 4.
        int64_t n;
        std::string first(env, std::strcspn(env, ","));
        if (parseNumber(first.c_str(), n) && n > 0) {
            if (n > int64_t{kMaxThreads}) {
                warn("REPRO_THREADS=%s is out of range; clamped to %u",
                     first.c_str(), kMaxThreads);
                n = kMaxThreads;
            }
            return static_cast<unsigned>(n);
        }
        warn("ignoring invalid REPRO_THREADS='%s'", env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(defaultThreads());
    return pool;
}

uint64_t
ThreadPool::tasksExecuted()
{
    return totalTasks.load(std::memory_order_relaxed);
}

uint64_t
ThreadPool::idleNanos()
{
    return totalIdleNanos.load(std::memory_order_relaxed);
}

} // namespace tea
