#include "service/protocol.hh"

#include <cstring>

#include "util/crc32.hh"

namespace tea::service {

namespace {

void
putU16(std::string &out, uint16_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void
putU32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

uint16_t
getU16(std::string_view buf, size_t at)
{
    return static_cast<uint16_t>(
        static_cast<uint8_t>(buf[at]) |
        (static_cast<uint8_t>(buf[at + 1]) << 8));
}

uint32_t
getU32(std::string_view buf, size_t at)
{
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | static_cast<uint8_t>(buf[at + i]);
    return v;
}

} // namespace

bool
knownMsgType(uint16_t raw)
{
    switch (static_cast<MsgType>(raw)) {
      case MsgType::Hello:
      case MsgType::Submit:
      case MsgType::Status:
      case MsgType::Watch:
      case MsgType::Cancel:
      case MsgType::Drain:
      case MsgType::HelloOk:
      case MsgType::SubmitOk:
      case MsgType::StatusOk:
      case MsgType::Cell:
      case MsgType::Done:
      case MsgType::Error:
        return true;
    }
    return false;
}

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::Hello: return "HELLO";
      case MsgType::Submit: return "SUBMIT";
      case MsgType::Status: return "STATUS";
      case MsgType::Watch: return "WATCH";
      case MsgType::Cancel: return "CANCEL";
      case MsgType::Drain: return "DRAIN";
      case MsgType::HelloOk: return "HELLO_OK";
      case MsgType::SubmitOk: return "SUBMIT_OK";
      case MsgType::StatusOk: return "STATUS_OK";
      case MsgType::Cell: return "CELL";
      case MsgType::Done: return "DONE";
      case MsgType::Error: return "ERROR";
    }
    return "UNKNOWN";
}

const char *
errorCodeName(ErrorCode c)
{
    switch (c) {
      case ErrorCode::BadRequest: return "BAD_REQUEST";
      case ErrorCode::VersionSkew: return "VERSION_SKEW";
      case ErrorCode::NotFound: return "NOT_FOUND";
      case ErrorCode::RetryAfter: return "RETRY_AFTER";
      case ErrorCode::InflightLimit: return "INFLIGHT_LIMIT";
      case ErrorCode::ShuttingDown: return "SHUTTING_DOWN";
      case ErrorCode::Internal: return "INTERNAL";
    }
    return "INTERNAL";
}

bool
errorCodeFromName(const std::string &name, ErrorCode &out)
{
    for (uint16_t raw = 1; raw <= 7; ++raw) {
        ErrorCode c = static_cast<ErrorCode>(raw);
        if (name == errorCodeName(c)) {
            out = c;
            return true;
        }
    }
    return false;
}

std::string
encodeFrame(MsgType type, std::string_view payload)
{
    std::string frame;
    frame.reserve(kFrameHeaderSize + payload.size() + 4);
    frame.append(kFrameMagic, sizeof(kFrameMagic));
    putU16(frame, kProtocolVersion);
    putU16(frame, static_cast<uint16_t>(type));
    putU32(frame, static_cast<uint32_t>(payload.size()));
    frame.append(payload.data(), payload.size());
    putU32(frame, crc32(frame.data(), frame.size()));
    return frame;
}

DecodeStatus
decodeFrame(std::string_view buf, Frame &out, size_t &consumed)
{
    if (buf.size() < kFrameHeaderSize)
        return DecodeStatus::NeedMore;
    if (std::memcmp(buf.data(), kFrameMagic, sizeof(kFrameMagic)) != 0)
        return DecodeStatus::Bad;
    uint32_t len = getU32(buf, 8);
    if (len > kMaxPayload)
        return DecodeStatus::Bad;
    size_t total = kFrameHeaderSize + len + 4;
    if (buf.size() < total)
        return DecodeStatus::NeedMore;
    uint32_t stored = getU32(buf, kFrameHeaderSize + len);
    if (crc32(buf.data(), kFrameHeaderSize + len) != stored)
        return DecodeStatus::Bad;
    out.version = getU16(buf, 4);
    out.type = getU16(buf, 6);
    out.payload.assign(buf.data() + kFrameHeaderSize, len);
    consumed = total;
    // The CRC already proved the frame intact, so a version mismatch
    // is genuine skew (an old client or a new daemon), reportable with
    // a structured Error instead of a cut connection.
    return out.version == kProtocolVersion ? DecodeStatus::Ok
                                           : DecodeStatus::VersionSkew;
}

std::string
kvLine(const std::string &key, const std::string &value)
{
    return key + " " + value + "\n";
}

std::string
kvLine(const std::string &key, uint64_t value)
{
    return key + " " + std::to_string(value) + "\n";
}

} // namespace tea::service
