#pragma once

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/dist/shard_service.h"

namespace relgraph {
namespace net {

/// The shard wire format, version 4. Every message is one *frame*:
///
///     [u32 payload_len][u8 frame_type][u32 payload_crc][payload_len bytes]
///
/// with all integers little-endian regardless of host order, and
/// `payload_crc` the CRC32C of the payload bytes — RecvFrame verifies it,
/// so a byte flipped anywhere on the socket decodes to Status::Corruption,
/// never to a mangled response. The payload of each frame type is a fixed
/// field sequence (below); decoding is bounds-checked everywhere and must
/// consume the payload exactly, so a truncated, oversized, or
/// trailing-garbage frame is rejected as Status::Corruption instead of
/// being misread. An ExpandRequest is
///
///     [u8 forward][i64 session][u64 n][n x i64 node]
///     [u64 n][n x i64 dist][i64 bound]
///
/// and decodes to Corruption when its dist count is not n, a dist lies
/// outside [0, kInfinity], or the bound outside [-kInfinity, kInfinity].
///
/// A connection opens with Handshake -> HandshakeAck (magic + version + the
/// shard identity the client expects, so a client dialed at the wrong
/// server fails fast), then carries any number of ExpandRequest ->
/// ExpandResponse / Heartbeat -> HeartbeatAck exchanges. A shard-side
/// failure answers with an Error frame carrying the typed Status; transport
/// growth happens by bumping kWireVersion and extending the handshake.
constexpr uint32_t kWireMagic = 0x52475348;  // "RGSH"
/// Version history. Both sides live in this tree, so each bump is clean: a
/// peer speaking another version is refused at handshake with
/// InvalidArgument naming both versions.
///  - v2 added the session id to ExpandRequest, so shard-side admission
///    can be per-session fair.
///  - v3 added the payload CRC32C to the frame header.
///  - v4 added each frontier node's dist and the bound minCost - l to
///    ExpandRequest, so the shard prunes and combines its rows before they
///    ship.
constexpr uint16_t kWireVersion = 4;
/// Upper bound on one frame's payload; a length field beyond this is
/// corruption (or a peer speaking another protocol), not a real message.
constexpr uint32_t kMaxFramePayload = 64u << 20;
/// Bytes of the fixed frame header ([u32 len][u8 type][u32 payload crc]).
constexpr size_t kFrameHeaderBytes = 9;

enum class FrameType : uint8_t {
  kHandshake = 1,
  kHandshakeAck = 2,
  kExpandRequest = 3,
  kExpandResponse = 4,
  kError = 5,
  kHeartbeat = 6,
  kHeartbeatAck = 7,
};

/// Client side of the connection opening: what it expects of the peer.
struct HandshakeRequest {
  uint32_t magic = kWireMagic;
  uint16_t version = kWireVersion;
  int32_t shard = -1;       // shard the client believes it dialed
  int32_t num_shards = -1;  // partition count the client routed with
};

/// Server's acceptance: its own version and the shard it actually serves.
struct HandshakeAck {
  uint16_t version = kWireVersion;
  int32_t shard = -1;
};

/// Appends little-endian fields to a payload string.
class WireWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutBytes(const std::string& s);  // u32 length prefix + raw bytes

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked little-endian reads over one frame payload. Every getter
/// fails with Status::Corruption on a short buffer; Finish() additionally
/// rejects trailing bytes, so decoders prove they consumed the payload
/// exactly.
class WireReader {
 public:
  WireReader(const char* data, size_t len) : data_(data), len_(len) {}
  explicit WireReader(const std::string& payload)
      : WireReader(payload.data(), payload.size()) {}

  Status GetU8(uint8_t* v);
  Status GetU16(uint16_t* v);
  Status GetU32(uint32_t* v);
  Status GetU64(uint64_t* v);
  Status GetI32(int32_t* v);
  Status GetI64(int64_t* v);
  Status GetBytes(std::string* s);

  size_t remaining() const { return len_ - pos_; }
  /// Corruption unless the payload was consumed exactly.
  Status Finish() const;

 private:
  const char* data_;
  size_t len_;
  size_t pos_ = 0;
};

/// ----- frame header ---------------------------------------------------------

/// Renders the 9-byte header for a `payload_len`-byte frame of `type`
/// whose payload hashes to `payload_crc` (CRC32C).
void EncodeFrameHeader(FrameType type, uint32_t payload_len,
                       uint32_t payload_crc, char out[kFrameHeaderBytes]);

/// Parses and validates a frame header: known type, payload length within
/// kMaxFramePayload. Corruption otherwise. `payload_crc` receives the
/// stated payload checksum; verifying it against the received payload
/// bytes is the transport's job (RecvFrame).
Status DecodeFrameHeader(const char in[kFrameHeaderBytes], FrameType* type,
                         uint32_t* payload_len, uint32_t* payload_crc);

/// ----- payload codecs -------------------------------------------------------

std::string EncodeExpandRequest(const ShardExpandRequest& req);
Status DecodeExpandRequest(const std::string& payload,
                           ShardExpandRequest* req);

std::string EncodeExpandResponse(const ShardExpandResponse& resp);
Status DecodeExpandResponse(const std::string& payload,
                            ShardExpandResponse* resp);

std::string EncodeHandshakeRequest(const HandshakeRequest& req);
Status DecodeHandshakeRequest(const std::string& payload,
                              HandshakeRequest* req);

std::string EncodeHandshakeAck(const HandshakeAck& ack);
Status DecodeHandshakeAck(const std::string& payload, HandshakeAck* ack);

/// An Error frame ships a typed non-OK Status (code + message) back to the
/// client, which returns it from Expand() as if the local service had
/// produced it.
std::string EncodeErrorStatus(const Status& status);
Status DecodeErrorStatus(const std::string& payload, Status* status);

}  // namespace net
}  // namespace relgraph
