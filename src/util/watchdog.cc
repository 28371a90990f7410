#include "util/watchdog.hh"

#include <csignal>
#include <cstdlib>
#include <exception>
#include <mutex>

#include "util/errors.hh"

namespace tea {

CancelToken &
CancelToken::processWide()
{
    static CancelToken token;
    return token;
}

namespace {

extern "C" void
shutdownHandler(int)
{
    // Only the lock-free atomic store; everything else (journal flush,
    // partial-result printing) happens on the campaign threads when
    // they next poll.
    CancelToken::processWide().cancel();
}

std::terminate_handler previousTerminate = std::abort;

/**
 * A characterization cut short by a cancelled token throws
 * TeaException(Cancelled); where nothing catches it (a bench main, a
 * fleet worker) the process ends interrupted, exit 130.
 */
[[noreturn]] void
terminateOnCancel()
{
    try {
        if (std::exception_ptr e = std::current_exception())
            std::rethrow_exception(e);
    } catch (const TeaException &e) {
        if (e.error().code == ErrorCode::Cancelled)
            std::exit(130);
    } catch (...) {
    }
    previousTerminate();
    std::abort();
}

} // namespace

void
installShutdownHandlers()
{
    static std::once_flag once;
    std::call_once(once, [] {
        std::signal(SIGINT, shutdownHandler);
        std::signal(SIGTERM, shutdownHandler);
        if (auto prev = std::set_terminate(terminateOnCancel))
            previousTerminate = prev;
    });
}

} // namespace tea
