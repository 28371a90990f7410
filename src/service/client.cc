#include "service/client.hh"


#include "core/results.hh"
#include "util/logging.hh"

namespace tea::service {

namespace {

uint64_t
kvU64(const std::map<std::string, std::string> &kv, const char *key)
{
    uint64_t v = 0;
    if (auto it = kv.find(key); it != kv.end())
        parseNumber(it->second.c_str(), v);
    return v;
}

Client::Status
statusFromKv(const std::map<std::string, std::string> &kv)
{
    Client::Status s;
    auto it = kv.find("state");
    if (it != kv.end())
        s.state = it->second;
    s.cellsDone = kvU64(kv, "cells");
    s.cellsTotal = kvU64(kv, "total");
    s.interrupted = kvU64(kv, "interrupted") != 0;
    return s;
}

} // namespace

std::optional<Client>
Client::connectUnix(const std::string &path, const std::string &name)
{
    auto sock = Socket::connectUnix(path);
    if (!sock)
        return std::nullopt;
    Client c(std::move(*sock));
    if (!c.hello(name))
        return std::nullopt;
    return c;
}

std::optional<Client>
Client::connectTcp(int port, const std::string &name)
{
    auto sock = Socket::connectTcp(port);
    if (!sock)
        return std::nullopt;
    Client c(std::move(*sock));
    if (!c.hello(name))
        return std::nullopt;
    return c;
}

bool
Client::hello(const std::string &name)
{
    std::string body;
    if (!name.empty())
        body = kvLine("client", name);
    Frame resp;
    return roundTrip(MsgType::Hello, body, MsgType::HelloOk, resp);
}

bool
Client::recvOne(Frame &resp)
{
    RecvStatus st = recvFrame(sock_, buf_, resp, -1);
    if (st != RecvStatus::Ok && st != RecvStatus::VersionSkew) {
        err_ = Error{ErrorCode::Internal, 0, "connection lost"};
        return false;
    }
    return true;
}

bool
Client::roundTrip(MsgType type, const std::string &payload,
                  MsgType expect, Frame &resp)
{
    if (!sendFrame(sock_, type, payload)) {
        err_ = Error{ErrorCode::Internal, 0, "send failed"};
        return false;
    }
    if (!recvOne(resp))
        return false;
    if (resp.type == static_cast<uint16_t>(MsgType::Error)) {
        auto kv = parseKv(resp.payload);
        err_ = Error{};
        auto it = kv.find("code");
        if (it == kv.end() ||
            !errorCodeFromName(it->second, err_.code))
            err_.code = ErrorCode::Internal;
        err_.retryMs =
            static_cast<int64_t>(kvU64(kv, "retryms"));
        auto dt = kv.find("detail");
        if (dt != kv.end())
            err_.detail = dt->second;
        return false;
    }
    if (resp.type != static_cast<uint16_t>(expect)) {
        err_ = Error{ErrorCode::Internal, 0,
                     "unexpected response type"};
        return false;
    }
    return true;
}

bool
Client::submit(const std::string &planBytes, Submitted &out)
{
    Frame resp;
    if (!roundTrip(MsgType::Submit, planBytes, MsgType::SubmitOk,
                   resp))
        return false;
    auto kv = parseKv(resp.payload);
    out.id = kvU64(kv, "id");
    out.deduped = kvU64(kv, "deduped") != 0;
    out.cellsTotal = kvU64(kv, "cells");
    return true;
}

bool
Client::status(uint64_t id, Status &out)
{
    Frame resp;
    if (!roundTrip(MsgType::Status, kvLine("id", id),
                   MsgType::StatusOk, resp))
        return false;
    out = statusFromKv(parseKv(resp.payload));
    return true;
}

bool
Client::watch(
    uint64_t id,
    const std::function<void(const core::CampaignCell &)> &onCell,
    Status &final)
{
    std::string body = kvLine("id", id);
    body += kvLine("from", uint64_t(0));
    if (!sendFrame(sock_, MsgType::Watch, body)) {
        err_ = Error{ErrorCode::Internal, 0, "send failed"};
        return false;
    }
    for (;;) {
        Frame resp;
        if (!recvOne(resp))
            return false;
        if (resp.type == static_cast<uint16_t>(MsgType::Cell)) {
            core::CampaignCell cell;
            if (!cellFromKv(parseKv(resp.payload), cell)) {
                err_ = Error{ErrorCode::Internal, 0,
                             "malformed cell frame"};
                return false;
            }
            if (onCell)
                onCell(cell);
            continue;
        }
        if (resp.type == static_cast<uint16_t>(MsgType::Done)) {
            final = statusFromKv(parseKv(resp.payload));
            return true;
        }
        if (resp.type == static_cast<uint16_t>(MsgType::Error)) {
            auto kv = parseKv(resp.payload);
            err_ = Error{};
            auto it = kv.find("code");
            if (it == kv.end() ||
                !errorCodeFromName(it->second, err_.code))
                err_.code = ErrorCode::Internal;
            auto dt = kv.find("detail");
            if (dt != kv.end())
                err_.detail = dt->second;
            return false;
        }
        err_ = Error{ErrorCode::Internal, 0,
                     "unexpected frame in watch stream"};
        return false;
    }
}

bool
Client::cancel(uint64_t id, Status &out)
{
    Frame resp;
    if (!roundTrip(MsgType::Cancel, kvLine("id", id),
                   MsgType::StatusOk, resp))
        return false;
    out = statusFromKv(parseKv(resp.payload));
    return true;
}

bool
Client::drain()
{
    Frame resp;
    return roundTrip(MsgType::Drain, "", MsgType::StatusOk, resp);
}

} // namespace tea::service
