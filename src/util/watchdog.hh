/**
 * @file
 * Cooperative cancellation and per-run wall-clock watchdogs.
 *
 * Campaign work is cut off, never killed: a CancelToken is a shared
 * flag that signal handlers (SIGINT/SIGTERM) and tests set, and a
 * Watchdog combines that flag with an optional wall-clock deadline
 * armed at construction. Long inner loops (OooSim::run, DTA shards)
 * poll the watchdog every few thousand iterations and unwind in an
 * orderly way — journals get flushed, partial results get printed, and
 * a pathologically slow run stops occupying a worker thread.
 *
 * Determinism note: cancellation and deadlines are *infrastructure*
 * events. A deadline-cut run is recorded as an EngineFault (excluded
 * from AVM), and a cancelled run is simply not recorded — so campaign
 * statistics never depend on wall-clock behaviour.
 */

#ifndef TEA_UTIL_WATCHDOG_HH
#define TEA_UTIL_WATCHDOG_HH

#include <atomic>
#include <chrono>
#include <cstdint>

namespace tea {

/** Shared stop flag; safe to set from a signal handler. */
class CancelToken
{
  public:
    void cancel() noexcept
    {
        flag_.store(true, std::memory_order_release);
    }
    bool cancelled() const noexcept
    {
        return flag_.load(std::memory_order_acquire);
    }
    /** Re-arm (tests; a process handles one shutdown in real use). */
    void reset() noexcept
    {
        flag_.store(false, std::memory_order_release);
    }

    /** The token shutdown signal handlers cancel. */
    static CancelToken &processWide();

  private:
    std::atomic<bool> flag_{false};
};

/**
 * Install SIGINT/SIGTERM handlers that cancel processWide().
 * Idempotent; the handler only sets the atomic flag (async-signal-safe)
 * and the campaign layers do the orderly unwind. An uncaught
 * TeaException(Cancelled) then exits 130 rather than aborting.
 */
void installShutdownHandlers();

/**
 * One run's stop condition: an optional shared CancelToken plus an
 * optional wall-clock deadline measured from construction
 * (deadlineMs <= 0 disables the deadline). Cheap to poll.
 */
class Watchdog
{
  public:
    enum class Stop
    {
        None,
        Cancelled,
        Deadline,
    };

    Watchdog() = default;
    explicit Watchdog(const CancelToken *token, int64_t deadlineMs = 0)
        : token_(token), deadlineMs_(deadlineMs)
    {
        if (deadlineMs_ > 0)
            deadline_ = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadlineMs_);
    }

    Stop poll() const
    {
        if (token_ && token_->cancelled())
            return Stop::Cancelled;
        if (deadlineMs_ > 0 &&
            std::chrono::steady_clock::now() >= deadline_)
            return Stop::Deadline;
        return Stop::None;
    }

    const CancelToken *token() const { return token_; }

  private:
    const CancelToken *token_ = nullptr;
    int64_t deadlineMs_ = 0;
    std::chrono::steady_clock::time_point deadline_{};
};

} // namespace tea

#endif // TEA_UTIL_WATCHDOG_HH
