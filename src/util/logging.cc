#include "util/logging.hh"

#include <atomic>
#include <cstdarg>
#include <cstring>
#include <iostream>

namespace tea {

namespace {

/**
 * setQuiet() state. Atomic because the thread that toggles it (a bench
 * main, a test fixture) is rarely the worker thread that logs.
 */
std::atomic<bool> quietFlag{false};

constexpr int kLevelUnset = -1;
std::atomic<int> levelOverride{kLevelUnset}; ///< setLogLevel() wins

LogLevel
levelFromEnv()
{
    const char *env = std::getenv("REPRO_LOG_LEVEL");
    if (!env || env[0] == '\0')
        return LogLevel::Info;
    if (!std::strcmp(env, "silent") || !std::strcmp(env, "0"))
        return LogLevel::Silent;
    if (!std::strcmp(env, "warn") || !std::strcmp(env, "1"))
        return LogLevel::Warn;
    if (!std::strcmp(env, "info") || !std::strcmp(env, "2"))
        return LogLevel::Info;
    std::fprintf(stderr,
                 "warn: ignoring invalid REPRO_LOG_LEVEL='%s' "
                 "(want silent|warn|info or 0|1|2)\n",
                 env);
    return LogLevel::Info;
}

/** Whether a diagnostic at `level` reaches its sink right now. */
bool
enabled(LogLevel level)
{
    return !quietFlag.load(std::memory_order_relaxed) &&
           logLevel() >= level;
}

} // namespace

LogLevel
logLevel()
{
    int forced = levelOverride.load(std::memory_order_relaxed);
    if (forced != kLevelUnset)
        return static_cast<LogLevel>(forced);
    static const LogLevel fromEnv = levelFromEnv();
    return fromEnv;
}

void
setLogLevel(LogLevel level)
{
    levelOverride.store(static_cast<int>(level),
                        std::memory_order_relaxed);
}

void
logWarn(const char *fmt, ...)
{
    if (!enabled(LogLevel::Warn))
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = detail::vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
logInfo(const char *fmt, ...)
{
    if (!enabled(LogLevel::Info))
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = detail::vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

void
setQuiet(bool q)
{
    quietFlag.store(q, std::memory_order_relaxed);
}

bool
quiet()
{
    return quietFlag.load(std::memory_order_relaxed);
}

namespace detail {

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    if (n < 0) {
        va_end(ap2);
        return std::string(fmt);
    }
    std::string out(static_cast<size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

std::string
format(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string out = vformat(fmt, ap);
    va_end(ap);
    return out;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const char *file, int line, const std::string &msg)
{
    if (enabled(LogLevel::Warn))
        std::fprintf(stderr, "warn: %s (%s:%d)\n", msg.c_str(), file, line);
}

void
informImpl(const std::string &msg)
{
    if (enabled(LogLevel::Info))
        std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace detail
} // namespace tea
