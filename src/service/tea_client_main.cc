/**
 * @file
 * `tea-client` — command-line front end for a running tea-daemon.
 *
 *     tea-client [--socket PATH | --tcp PORT] [--name NAME] CMD ...
 *
 *     submit <plan-file|->   admit a serialized FleetPlan; prints id
 *     status <id>            one-line state/progress snapshot
 *     watch <id>             stream cells to stdout until terminal
 *     cancel <id>            cancel a queued or running campaign
 *     drain                  ask the daemon to finish up and exit
 *
 * Exit codes: 0 success, 1 daemon-side error, 2 usage, 75 (EX_TEMPFAIL)
 * when the daemon answered RETRY_AFTER — scripts can back off and
 * resubmit. docs/PROTOCOL.md shows a worked transcript.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "models/error_models.hh"
#include "service/client.hh"
#include "util/fsatomic.hh"

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: tea-client [--socket PATH | --tcp PORT] [--name NAME]\n"
        "                  {submit <plan-file|-> | status <id> |\n"
        "                   watch <id> | cancel <id> | drain}\n");
}

int
failWith(const tea::service::Client::Error &err)
{
    std::fprintf(stderr, "tea-client: %s%s%s\n",
                 tea::service::errorCodeName(err.code),
                 err.detail.empty() ? "" : ": ",
                 err.detail.c_str());
    if (err.code == tea::service::ErrorCode::RetryAfter) {
        std::fprintf(stderr, "tea-client: retry after %lld ms\n",
                     static_cast<long long>(err.retryMs));
        return 75; // EX_TEMPFAIL
    }
    return 1;
}

bool
readAllStdin(std::string &out)
{
    char chunk[4096];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), stdin)) > 0)
        out.append(chunk, n);
    return !std::ferror(stdin);
}

void
printStatus(uint64_t id, const tea::service::Client::Status &s)
{
    std::printf("id %llu state %s cells %llu/%llu%s\n",
                static_cast<unsigned long long>(id), s.state.c_str(),
                static_cast<unsigned long long>(s.cellsDone),
                static_cast<unsigned long long>(s.cellsTotal),
                s.interrupted ? " interrupted" : "");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tea;
    std::string socketPath = "tea_daemon.sock";
    if (const char *v = std::getenv("REPRO_DAEMON_SOCKET"))
        socketPath = v;
    int64_t tcpPort = -1;
    std::string name = "tea-client";
    int i = 1;
    for (; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strcmp(a, "--socket") && i + 1 < argc) {
            socketPath = argv[++i];
        } else if (!std::strcmp(a, "--tcp") && i + 1 < argc) {
            if (!parseNumber(argv[++i], tcpPort) || tcpPort < 1 ||
                tcpPort > 65535) {
                usage();
                return 2;
            }
        } else if (!std::strcmp(a, "--name") && i + 1 < argc) {
            name = argv[++i];
        } else {
            break;
        }
    }
    if (i >= argc) {
        usage();
        return 2;
    }
    std::string cmd = argv[i++];

    auto client =
        tcpPort >= 0
            ? service::Client::connectTcp(static_cast<int>(tcpPort), name)
            : service::Client::connectUnix(socketPath, name);
    if (!client) {
        std::fprintf(stderr, "tea-client: cannot connect to %s\n",
                     tcpPort >= 0 ? "daemon tcp port"
                                  : socketPath.c_str());
        return 1;
    }

    if (cmd == "submit") {
        if (i >= argc) {
            usage();
            return 2;
        }
        std::string planBytes;
        std::string src = argv[i];
        if (src == "-") {
            if (!readAllStdin(planBytes)) {
                std::fprintf(stderr,
                             "tea-client: error reading stdin\n");
                return 1;
            }
        } else if (auto bytes = readFileToString(src)) {
            planBytes = std::move(*bytes);
        } else {
            std::fprintf(stderr, "tea-client: cannot read '%s'\n",
                         src.c_str());
            return 1;
        }
        service::Client::Submitted sub;
        if (!client->submit(planBytes, sub))
            return failWith(client->lastError());
        std::printf("id %llu deduped %d cells %llu\n",
                    static_cast<unsigned long long>(sub.id),
                    sub.deduped ? 1 : 0,
                    static_cast<unsigned long long>(sub.cellsTotal));
        return 0;
    }
    if (cmd == "status" || cmd == "watch" || cmd == "cancel") {
        uint64_t id;
        if (i >= argc || !parseNumber(argv[i], id)) {
            usage();
            return 2;
        }
        service::Client::Status st;
        if (cmd == "status") {
            if (!client->status(id, st))
                return failWith(client->lastError());
            printStatus(id, st);
            return 0;
        }
        if (cmd == "cancel") {
            if (!client->cancel(id, st))
                return failWith(client->lastError());
            printStatus(id, st);
            return 0;
        }
        // watch
        if (!client->watch(
                id,
                [](const core::CampaignCell &cell) {
                    std::printf("cell %s %s vr %.4f runs %llu masked "
                                "%llu sdc %llu crash %llu timeout "
                                "%llu fault %llu\n",
                                cell.workload.c_str(),
                                models::modelKindName(cell.model),
                                cell.vrFrac,
                                static_cast<unsigned long long>(
                                    cell.result.runs),
                                static_cast<unsigned long long>(
                                    cell.result.masked),
                                static_cast<unsigned long long>(
                                    cell.result.sdc),
                                static_cast<unsigned long long>(
                                    cell.result.crash),
                                static_cast<unsigned long long>(
                                    cell.result.timeout),
                                static_cast<unsigned long long>(
                                    cell.result.engineFault));
                },
                st))
            return failWith(client->lastError());
        printStatus(id, st);
        return st.state == "done" ? 0 : 1;
    }
    if (cmd == "drain") {
        if (!client->drain())
            return failWith(client->lastError());
        std::printf("draining\n");
        return 0;
    }
    usage();
    return 2;
}
