/**
 * @file
 * `tea-daemon` — the standalone campaign service.
 *
 * Binds the Unix-domain socket (and optionally loopback TCP), serves
 * campaign submissions until SIGINT/SIGTERM or a DRAIN request, and
 * exits 0 once drained. Configuration comes from REPRO_DAEMON_* /
 * REPRO_FLEET_* (docs/OPERATIONS.md) with command-line overrides.
 */

#include <cstdio>
#include <cstring>
#include <thread>

#include "obs/obs.hh"
#include "service/daemon.hh"
#include "util/watchdog.hh"

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: tea-daemon [--socket PATH] [--tcp PORT] [--queue N]\n"
        "                  [--concurrency N] [--inflight N]\n"
        "                  [--workers N] [--spool DIR]\n"
        "\n"
        "Defaults come from REPRO_DAEMON_* / REPRO_FLEET_* env vars\n"
        "(see docs/OPERATIONS.md); flags override them.\n");
}

/** Parse a flag's integer (util/env syntax) that must lie in `range`. */
bool
intArg(const char *flag, const char *value, tea::IntRange range, int &out)
{
    int64_t v;
    if (!value || !tea::parseNumber(value, v) || !range.contains(v)) {
        std::fprintf(stderr,
                     "tea-daemon: bad %s value '%s' (%lld..%lld)\n", flag,
                     value ? value : "",
                     static_cast<long long>(range.lo),
                     static_cast<long long>(range.hi));
        return false;
    }
    out = static_cast<int>(v);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tea;
    service::DaemonOptions opt = service::daemonOptionsFromEnv();
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (!std::strcmp(a, "--socket") && v) {
            opt.socketPath = v;
            ++i;
        } else if (!std::strcmp(a, "--tcp")) {
            if (!intArg(a, v, service::kTcpPortRange, opt.tcpPort))
                return 2;
            ++i;
        } else if (!std::strcmp(a, "--queue")) {
            if (!intArg(a, v, service::kQueueCapRange, opt.queueCap))
                return 2;
            ++i;
        } else if (!std::strcmp(a, "--concurrency")) {
            if (!intArg(a, v, service::kConcurrencyRange,
                        opt.concurrency))
                return 2;
            ++i;
        } else if (!std::strcmp(a, "--inflight")) {
            if (!intArg(a, v, service::kClientInflightRange,
                        opt.clientInflight))
                return 2;
            ++i;
        } else if (!std::strcmp(a, "--workers")) {
            if (!intArg(a, v, fleet::kWorkersRange, opt.fleet.workers))
                return 2;
            ++i;
        } else if (!std::strcmp(a, "--spool") && v) {
            opt.spoolRoot = v;
            ++i;
        } else {
            usage();
            return 2;
        }
    }

    installShutdownHandlers();
    obs::configureFromEnv();

    service::ServiceDaemon daemon(opt);
    if (!daemon.start())
        return 1;
    std::fprintf(stderr, "tea-daemon: serving on %s%s\n",
                 daemon.socketPath().c_str(),
                 daemon.tcpPort() > 0 ? " (+tcp)" : "");
    if (daemon.tcpPort() > 0)
        std::fprintf(stderr, "tea-daemon: tcp port %d\n",
                     daemon.tcpPort());

    const CancelToken &cancel = CancelToken::processWide();
    while (!cancel.cancelled()) {
        if (daemon.drainRequested()) {
            daemon.awaitDrained();
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    daemon.stop();
    obs::flush();
    return 0;
}
