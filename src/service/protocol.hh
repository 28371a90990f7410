/**
 * @file
 * The tea-daemon wire protocol: CRC-framed, versioned request/response
 * messages. docs/PROTOCOL.md is the normative spec; this header is the
 * single code-side source of truth for message types and error codes
 * (scripts/check_docs.sh greps the enums below against the doc's
 * tables, so the two cannot drift).
 *
 * Frame layout (little-endian):
 *
 *     offset  size  field
 *     0       4     magic "TEAF"
 *     4       2     protocol version (kProtocolVersion)
 *     6       2     message type (MsgType)
 *     8       4     payload length (<= kMaxPayload)
 *     12      n     payload bytes
 *     12+n    4     CRC-32 over bytes [0, 12+n)
 *
 * Payloads are the repo's established `key value` line format (one
 * key, space, rest-of-line value; unknown keys ignored) — the same
 * convention the fleet spool files use, minus the `crc` seal line
 * because the frame trailer already covers the payload. A SUBMIT
 * payload is a complete serialized FleetPlan (which *does* carry its
 * own seal; it is stored verbatim as the spool's plan.tfp).
 */

#ifndef TEA_SERVICE_PROTOCOL_HH
#define TEA_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "util/env.hh"

namespace tea::service {

/** First frame bytes; a connection speaking anything else is cut. */
inline constexpr char kFrameMagic[4] = {'T', 'E', 'A', 'F'};
/** Protocol revision; bumped on any incompatible frame/payload change. */
inline constexpr uint16_t kProtocolVersion = 1;
/** Frame bytes before the payload (magic + version + type + length). */
inline constexpr size_t kFrameHeaderSize = 12;
/** Hard cap on payload size — a garbage length field must not OOM. */
inline constexpr size_t kMaxPayload = 16u << 20;

/**
 * Message types. Requests (client -> daemon) occupy [1, 63], responses
 * (daemon -> client) [64, 127]; the split leaves room for both sides
 * to grow without renumbering.
 */
enum class MsgType : uint16_t
{
    // ---- requests ---------------------------------------------------
    Hello = 1,  ///< version/feature negotiation; first on a connection
    Submit = 2, ///< submit a campaign (payload: serialized FleetPlan)
    Status = 3, ///< poll one campaign's state and progress
    Watch = 4,  ///< stream per-cell results as they merge
    Cancel = 5, ///< stop a queued or running campaign
    Drain = 6,  ///< finish active campaigns, reject new, then exit
    // ---- responses --------------------------------------------------
    HelloOk = 64,  ///< negotiated version + feature list
    SubmitOk = 65, ///< campaign accepted (or deduplicated): its id
    StatusOk = 66, ///< state/progress snapshot
    Cell = 67,     ///< one completed grid cell (Watch stream element)
    Done = 68,     ///< terminal Watch frame: final state + cell count
    Error = 69,    ///< request failed: ErrorCode + detail
};

/** True for the exact values the enum names (both directions). */
bool knownMsgType(uint16_t raw);
/** Stable wire/debug name ("SUBMIT", "RETRY_AFTER" style). */
const char *msgTypeName(MsgType t);

/** Error codes carried by Error frames (`code` key, wire-name value). */
enum class ErrorCode : uint16_t
{
    BadRequest = 1,    ///< malformed payload or unknown message type
    VersionSkew = 2,   ///< frame version != daemon version
    NotFound = 3,      ///< no such campaign id
    RetryAfter = 4,    ///< admission queue full; retry after `retryms`
    InflightLimit = 5, ///< this client's in-flight campaign cap hit
    ShuttingDown = 6,  ///< daemon is draining; submit elsewhere
    Internal = 7,      ///< daemon-side failure (spool, plan, executor)
};

const char *errorCodeName(ErrorCode c);
/** Parse a wire name back to the code; false when unknown. */
bool errorCodeFromName(const std::string &name, ErrorCode &out);

/** One decoded frame. `type` is raw: the peer may speak future types. */
struct Frame
{
    uint16_t version = kProtocolVersion;
    uint16_t type = 0;
    std::string payload;
};

/** Wrap a payload into a sealed frame, ready to send. */
std::string encodeFrame(MsgType type, std::string_view payload);

enum class DecodeStatus
{
    Ok,          ///< one whole valid frame decoded; `consumed` advanced
    NeedMore,    ///< prefix of a frame; read more bytes and retry
    Bad,         ///< structurally invalid (magic/length/CRC): cut the
                 ///< connection — framing is lost
    VersionSkew, ///< valid frame, wrong protocol version
};

/**
 * Decode the first frame in `buf`. On Ok (and VersionSkew, whose frame
 * is structurally sound) `out` is filled and `consumed` is the frame's
 * total size; otherwise both are untouched.
 */
DecodeStatus decodeFrame(std::string_view buf, Frame &out,
                         size_t &consumed);

// ---- key=value payload helpers -------------------------------------

// Payloads parse with tea::parseKv (util/env.hh; first key wins).
/** One `key value` line (value may be empty, may not contain '\n'). */
std::string kvLine(const std::string &key, const std::string &value);
std::string kvLine(const std::string &key, uint64_t value);

} // namespace tea::service

#endif // TEA_SERVICE_PROTOCOL_HH
