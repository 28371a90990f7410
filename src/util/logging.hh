/**
 * @file
 * Logging and error-reporting primitives in the gem5 idiom.
 *
 * panic()  — an internal invariant was violated (a bug in this library);
 *            aborts so a debugger/core dump can capture the state.
 * fatal()  — the user asked for something impossible (bad configuration,
 *            invalid arguments); exits with status 1.
 * warn()   — something is suspicious but execution can continue.
 * inform() — plain status output.
 *
 * Every diagnostic routes through one leveled sink: `REPRO_LOG_LEVEL`
 * (silent|warn|info, or 0|1|2) picks how much reaches stderr/stdout,
 * so CI can run benches quiet (`REPRO_LOG_LEVEL=silent`) without
 * per-call-site flags. logWarn()/logInfo() are the function-style
 * spellings for call sites that do not want the file:line suffix the
 * warn() macro appends. panic/fatal are never suppressed.
 */

#ifndef TEA_UTIL_LOGGING_HH
#define TEA_UTIL_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace tea {

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const char *file, int line, const std::string &msg);
void informImpl(const std::string &msg);

/** Render a printf-style format string into a std::string. */
std::string vformat(const char *fmt, va_list ap);
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace detail

/**
 * Verbosity threshold for warn()/inform()/logWarn()/logInfo().
 * panic()/fatal() ignore it: a dying process always says why.
 */
enum class LogLevel {
    Silent = 0, ///< suppress warnings and status output
    Warn = 1,   ///< warnings only
    Info = 2,   ///< warnings + status output (the default)
};

/**
 * Effective level: setLogLevel() if called, else REPRO_LOG_LEVEL
 * ("silent"/"warn"/"info" or 0/1/2, read once), else Info.
 * setQuiet(true) additionally silences every sink while it is set.
 * Both are safe to change while other threads log.
 */
LogLevel logLevel();
void setLogLevel(LogLevel level);

/**
 * Function-style leveled diagnostics for call sites that do not want
 * the file:line suffix the warn() macro appends (e.g. user-facing
 * bench diagnostics). Same sinks and REPRO_LOG_LEVEL gate as the
 * macros: logWarn -> stderr at Warn+, logInfo -> stdout at Info.
 */
void logWarn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
void logInfo(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Suppress warn()/inform()/logWarn()/logInfo() output (useful in noisy
 * campaigns); panic/fatal still print.
 */
void setQuiet(bool quiet);
bool quiet();

} // namespace tea

#define panic(...)                                                          \
    ::tea::detail::panicImpl(__FILE__, __LINE__,                            \
                             ::tea::detail::format(__VA_ARGS__))

#define fatal(...)                                                          \
    ::tea::detail::fatalImpl(__FILE__, __LINE__,                            \
                             ::tea::detail::format(__VA_ARGS__))

#define warn(...)                                                           \
    ::tea::detail::warnImpl(__FILE__, __LINE__,                             \
                            ::tea::detail::format(__VA_ARGS__))

#define inform(...)                                                         \
    ::tea::detail::informImpl(::tea::detail::format(__VA_ARGS__))

/** panic() unless the condition holds. */
#define panic_if(cond, ...)                                                 \
    do {                                                                    \
        if (cond)                                                           \
            panic(__VA_ARGS__);                                             \
    } while (0)

#define fatal_if(cond, ...)                                                 \
    do {                                                                    \
        if (cond)                                                           \
            fatal(__VA_ARGS__);                                             \
    } while (0)

#endif // TEA_UTIL_LOGGING_HH
