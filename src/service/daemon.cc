#include "service/daemon.hh"

#include <sstream>

#include "core/results.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "util/logging.hh"

namespace tea::service {

namespace {

/** Per-connection recv timeout: the serve loop's shutdown poll rate. */
constexpr int kRecvTimeoutMs = 250;

obs::Counter
requestCounter(MsgType t)
{
    std::string label = std::string("type=\"") + msgTypeName(t) + "\"";
    return obs::Registry::global().counter(
        obs::metric::kDaemonRequests, label,
        "requests dispatched, by message type");
}

bool
sendError(Socket &sock, ErrorCode code, const std::string &detail,
          int64_t retryMs = 0)
{
    std::string body = kvLine("code", errorCodeName(code));
    if (retryMs > 0)
        body += kvLine("retryms", static_cast<uint64_t>(retryMs));
    if (!detail.empty())
        body += kvLine("detail", detail);
    return sendFrame(sock, MsgType::Error, body);
}

std::string
progressBody(uint64_t id, const Scheduler::Progress &p)
{
    std::string body = kvLine("id", id);
    body += kvLine("state", campaignStateName(p.state));
    body += kvLine("cells", p.cellsDone);
    body += kvLine("total", p.cellsTotal);
    body += kvLine("interrupted", uint64_t(p.interrupted ? 1 : 0));
    return body;
}

/** Parse the campaign id out of a request payload; false if absent. */
bool
parseId(const std::map<std::string, std::string> &kv, uint64_t &id)
{
    auto it = kv.find("id");
    return it != kv.end() && parseNumber(it->second.c_str(), id);
}

} // namespace

ServiceDaemon::ServiceDaemon(DaemonOptions opt)
    : opt_(opt), sched_(std::move(opt))
{
}

ServiceDaemon::~ServiceDaemon() { stop(); }

bool
ServiceDaemon::start()
{
    auto uds = Listener::listenUnix(opt_.socketPath);
    if (!uds) {
        warn("tea-daemon: cannot listen on %s", opt_.socketPath.c_str());
        return false;
    }
    listeners_.push_back(std::move(*uds));
    if (opt_.tcpPort >= 0) {
        auto tcp = Listener::listenTcp(opt_.tcpPort);
        if (!tcp) {
            warn("tea-daemon: cannot listen on 127.0.0.1:%d",
                 opt_.tcpPort);
            listeners_.clear();
            return false;
        }
        tcpPort_ = tcp->port();
        listeners_.push_back(std::move(*tcp));
    }
    for (auto &l : listeners_)
        acceptThreads_.emplace_back(
            [this, lp = &l] { acceptLoop(std::move(*lp)); });
    return true;
}

void
ServiceDaemon::stop()
{
    bool was = stopping_.exchange(true);
    sched_.stop();
    if (was) // idempotent: a second stop only re-joins (no-op) below
        return;
    for (auto &t : acceptThreads_)
        if (t.joinable())
            t.join();
    acceptThreads_.clear();
    listeners_.clear();
    std::vector<std::thread> conns;
    {
        std::lock_guard<std::mutex> lock(connMu_);
        conns.swap(connThreads_);
    }
    for (auto &t : conns)
        if (t.joinable())
            t.join();
}

void
ServiceDaemon::drain()
{
    drainRequested_.store(true, std::memory_order_relaxed);
    sched_.drain();
}

void
ServiceDaemon::awaitDrained()
{
    sched_.awaitIdle();
}

void
ServiceDaemon::acceptLoop(Listener listener)
{
    auto connections = obs::Registry::global().counter(
        obs::metric::kDaemonConnections, "",
        "client connections accepted");
    while (!stopping_.load(std::memory_order_relaxed)) {
        auto sock = listener.accept(kRecvTimeoutMs);
        if (!sock)
            continue;
        connections.inc();
        std::lock_guard<std::mutex> lock(connMu_);
        connThreads_.emplace_back(
            [this, s = std::move(*sock)]() mutable {
                serveConnection(std::move(s));
            });
    }
}

void
ServiceDaemon::serveConnection(Socket sock)
{
    auto badFrames = obs::Registry::global().counter(
        obs::metric::kDaemonBadFrames, "",
        "structurally invalid frames (connection cut)");
    std::string buf;
    std::string client = "anon";
    Frame req;
    while (!stopping_.load(std::memory_order_relaxed)) {
        RecvStatus st = recvFrame(sock, buf, req, kRecvTimeoutMs);
        if (st == RecvStatus::Timeout)
            continue;
        if (st == RecvStatus::Closed)
            return;
        if (st == RecvStatus::Bad) {
            // Framing is lost: answer best-effort, then cut.
            badFrames.inc();
            sendError(sock, ErrorCode::BadRequest,
                      "unrecognized or corrupt frame");
            return;
        }
        if (st == RecvStatus::VersionSkew) {
            // The frame itself was sound (CRC passed), so the stream
            // is still in sync — reject the request, keep listening.
            sendError(sock, ErrorCode::VersionSkew,
                      std::string("daemon speaks version ") +
                          std::to_string(kProtocolVersion));
            continue;
        }
        if (!knownMsgType(req.type) ||
            req.type >= static_cast<uint16_t>(MsgType::HelloOk)) {
            sendError(sock, ErrorCode::BadRequest,
                      "unknown or non-request message type");
            continue;
        }
        MsgType type = static_cast<MsgType>(req.type);
        requestCounter(type).inc();
        switch (type) {
          case MsgType::Hello: {
            auto kv = parseKv(req.payload);
            auto it = kv.find("client");
            if (it != kv.end() && !it->second.empty())
                client = it->second;
            std::string body =
                kvLine("version", uint64_t(kProtocolVersion));
            body += kvLine("features",
                           "submit status watch cancel drain");
            if (!sendFrame(sock, MsgType::HelloOk, body))
                return;
            break;
          }
          case MsgType::Submit: {
            auto res = sched_.submit(req.payload, client);
            if (!res.accepted) {
                if (!sendError(sock, res.rej.code, res.rej.detail,
                               res.rej.retryMs))
                    return;
                break;
            }
            std::string body = kvLine("id", res.sub.id);
            body += kvLine("deduped",
                           uint64_t(res.sub.deduped ? 1 : 0));
            body += kvLine("cells", res.sub.cellsTotal);
            if (!sendFrame(sock, MsgType::SubmitOk, body))
                return;
            break;
          }
          case MsgType::Status: {
            auto kv = parseKv(req.payload);
            uint64_t id = 0;
            std::optional<Scheduler::Progress> p;
            if (parseId(kv, id))
                p = sched_.status(id);
            if (!p) {
                if (!sendError(sock, ErrorCode::NotFound,
                               "no such campaign"))
                    return;
                break;
            }
            if (!sendFrame(sock, MsgType::StatusOk,
                           progressBody(id, *p)))
                return;
            break;
          }
          case MsgType::Watch: {
            auto kv = parseKv(req.payload);
            uint64_t id = 0;
            if (!parseId(kv, id) || !sched_.status(id)) {
                if (!sendError(sock, ErrorCode::NotFound,
                               "no such campaign"))
                    return;
                break;
            }
            uint64_t cursor = 0;
            if (auto from = kv.find("from"); from != kv.end())
                parseNumber(from->second.c_str(), cursor);
            auto streamed = obs::Registry::global().counter(
                obs::metric::kDaemonCellsStreamed, "",
                "cell frames streamed to watchers");
            bool done = false;
            while (!done &&
                   !stopping_.load(std::memory_order_relaxed)) {
                Scheduler::Event ev;
                if (!sched_.next(id, cursor, kRecvTimeoutMs, ev))
                    return; // campaign vanished (daemon stopping)
                if (ev.haveCell) {
                    std::string body = kvLine("id", id);
                    body += kvLine("index", cursor);
                    body += cellToKv(ev.cell);
                    if (!sendFrame(sock, MsgType::Cell, body))
                        return;
                    streamed.inc();
                    ++cursor;
                    continue;
                }
                if (ev.terminal) {
                    if (!sendFrame(sock, MsgType::Done,
                                   progressBody(id, ev.progress)))
                        return;
                    done = true;
                }
            }
            break;
          }
          case MsgType::Cancel: {
            auto kv = parseKv(req.payload);
            uint64_t id = 0;
            if (!parseId(kv, id) || !sched_.cancel(id)) {
                if (!sendError(sock, ErrorCode::NotFound,
                               "no such campaign"))
                    return;
                break;
            }
            auto p = sched_.status(id);
            std::string body =
                p ? progressBody(id, *p) : kvLine("id", id);
            if (!sendFrame(sock, MsgType::StatusOk, body))
                return;
            break;
          }
          case MsgType::Drain: {
            drain();
            std::string body = kvLine("state", "draining");
            if (!sendFrame(sock, MsgType::StatusOk, body))
                return;
            break;
          }
          default:
            // knownMsgType + the request-range check exclude this.
            sendError(sock, ErrorCode::BadRequest, "unhandled type");
            break;
        }
    }
}

} // namespace tea::service
