#include "src/net/wire.h"

#include <cstring>
#include <utility>
#include <vector>

namespace relgraph {
namespace net {

namespace {

constexpr uint8_t kMinFrameType = static_cast<uint8_t>(FrameType::kHandshake);
constexpr uint8_t kMaxFrameType =
    static_cast<uint8_t>(FrameType::kHeartbeatAck);

constexpr uint32_t kMaxStatusCode =
    static_cast<uint32_t>(Status::Code::kDeadlineExceeded);

Status MakeStatus(Status::Code code, std::string msg) {
  switch (code) {
    case Status::Code::kOk:
      return Status::OK();
    case Status::Code::kNotFound:
      return Status::NotFound(std::move(msg));
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case Status::Code::kIOError:
      return Status::IOError(std::move(msg));
    case Status::Code::kCorruption:
      return Status::Corruption(std::move(msg));
    case Status::Code::kNotSupported:
      return Status::NotSupported(std::move(msg));
    case Status::Code::kOutOfRange:
      return Status::OutOfRange(std::move(msg));
    case Status::Code::kResourceExhausted:
      return Status::ResourceExhausted(std::move(msg));
    case Status::Code::kAlreadyExists:
      return Status::AlreadyExists(std::move(msg));
    case Status::Code::kInternal:
      return Status::Internal(std::move(msg));
    case Status::Code::kUnavailable:
      return Status::Unavailable(std::move(msg));
    case Status::Code::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(msg));
  }
  return Status::Corruption("unknown status code on the wire");
}

}  // namespace

void WireWriter::PutU16(uint16_t v) {
  PutU8(static_cast<uint8_t>(v & 0xff));
  PutU8(static_cast<uint8_t>(v >> 8));
}

void WireWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; i++) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void WireWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; i++) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void WireWriter::PutBytes(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_.append(s);
}

Status WireReader::GetU8(uint8_t* v) {
  if (remaining() < 1) return Status::Corruption("truncated frame payload");
  *v = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status WireReader::GetU16(uint16_t* v) {
  if (remaining() < 2) return Status::Corruption("truncated frame payload");
  uint16_t out = 0;
  for (int i = 0; i < 2; i++) {
    out |= static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_++]))
           << (8 * i);
  }
  *v = out;
  return Status::OK();
}

Status WireReader::GetU32(uint32_t* v) {
  if (remaining() < 4) return Status::Corruption("truncated frame payload");
  uint32_t out = 0;
  for (int i = 0; i < 4; i++) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++]))
           << (8 * i);
  }
  *v = out;
  return Status::OK();
}

Status WireReader::GetU64(uint64_t* v) {
  if (remaining() < 8) return Status::Corruption("truncated frame payload");
  uint64_t out = 0;
  for (int i = 0; i < 8; i++) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++]))
           << (8 * i);
  }
  *v = out;
  return Status::OK();
}

Status WireReader::GetI32(int32_t* v) {
  uint32_t raw;
  RELGRAPH_RETURN_IF_ERROR(GetU32(&raw));
  *v = static_cast<int32_t>(raw);
  return Status::OK();
}

Status WireReader::GetI64(int64_t* v) {
  uint64_t raw;
  RELGRAPH_RETURN_IF_ERROR(GetU64(&raw));
  *v = static_cast<int64_t>(raw);
  return Status::OK();
}

Status WireReader::GetBytes(std::string* s) {
  uint32_t len;
  RELGRAPH_RETURN_IF_ERROR(GetU32(&len));
  if (remaining() < len) return Status::Corruption("truncated frame payload");
  s->assign(data_ + pos_, len);
  pos_ += len;
  return Status::OK();
}

Status WireReader::Finish() const {
  if (remaining() != 0) {
    return Status::Corruption("trailing bytes after frame payload");
  }
  return Status::OK();
}

void EncodeFrameHeader(FrameType type, uint32_t payload_len,
                       uint32_t payload_crc, char out[kFrameHeaderBytes]) {
  for (int i = 0; i < 4; i++) {
    out[i] = static_cast<char>(payload_len >> (8 * i));
  }
  out[4] = static_cast<char>(type);
  for (int i = 0; i < 4; i++) {
    out[5 + i] = static_cast<char>(payload_crc >> (8 * i));
  }
}

Status DecodeFrameHeader(const char in[kFrameHeaderBytes], FrameType* type,
                         uint32_t* payload_len, uint32_t* payload_crc) {
  uint32_t len = 0;
  for (int i = 0; i < 4; i++) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(in[i])) << (8 * i);
  }
  const uint8_t raw_type = static_cast<uint8_t>(in[4]);
  if (raw_type < kMinFrameType || raw_type > kMaxFrameType) {
    return Status::Corruption("unknown frame type " +
                              std::to_string(raw_type));
  }
  if (len > kMaxFramePayload) {
    return Status::Corruption("frame payload length " + std::to_string(len) +
                              " exceeds limit");
  }
  uint32_t crc = 0;
  for (int i = 0; i < 4; i++) {
    crc |= static_cast<uint32_t>(static_cast<uint8_t>(in[5 + i])) << (8 * i);
  }
  *type = static_cast<FrameType>(raw_type);
  *payload_len = len;
  *payload_crc = crc;
  return Status::OK();
}

std::string EncodeExpandRequest(const ShardExpandRequest& req) {
  WireWriter w;
  w.PutU8(req.forward ? 1 : 0);
  w.PutI64(req.session_id);
  w.PutU64(req.nodes.size());
  for (node_id_t n : req.nodes) w.PutI64(n);
  // One distance per node, always: an empty `dists` goes out as zeros.
  w.PutU64(req.nodes.size());
  for (size_t i = 0; i < req.nodes.size(); i++) w.PutI64(req.DistAt(i));
  w.PutI64(req.bound);
  return w.Take();
}

Status DecodeExpandRequest(const std::string& payload,
                           ShardExpandRequest* req) {
  WireReader r(payload);
  uint8_t forward;
  RELGRAPH_RETURN_IF_ERROR(r.GetU8(&forward));
  if (forward > 1) return Status::Corruption("bad direction flag");
  int64_t session_id;
  RELGRAPH_RETURN_IF_ERROR(r.GetI64(&session_id));
  uint64_t count;
  RELGRAPH_RETURN_IF_ERROR(r.GetU64(&count));
  // The count must be coverable by the bytes actually present — reject it
  // up front so a corrupt length cannot drive a huge allocation.
  if (count > r.remaining() / 8) {
    return Status::Corruption("frontier count exceeds payload");
  }
  std::vector<node_id_t> nodes;
  nodes.reserve(count);
  for (uint64_t i = 0; i < count; i++) {
    int64_t n;
    RELGRAPH_RETURN_IF_ERROR(r.GetI64(&n));
    nodes.push_back(n);
  }
  uint64_t dist_count;
  RELGRAPH_RETURN_IF_ERROR(r.GetU64(&dist_count));
  if (dist_count != count) {
    return Status::Corruption("dist count " + std::to_string(dist_count) +
                              " differs from node count " +
                              std::to_string(count));
  }
  if (count > r.remaining() / 8) {
    return Status::Corruption("dist count exceeds payload");
  }
  std::vector<weight_t> dists;
  dists.reserve(count);
  for (uint64_t i = 0; i < count; i++) {
    int64_t d;
    RELGRAPH_RETURN_IF_ERROR(r.GetI64(&d));
    if (d < 0 || d > kInfinity) {
      return Status::Corruption("frontier dist " + std::to_string(d) +
                                " outside [0, kInfinity]");
    }
    dists.push_back(d);
  }
  int64_t bound;
  RELGRAPH_RETURN_IF_ERROR(r.GetI64(&bound));
  if (bound < -kInfinity || bound > kInfinity) {
    return Status::Corruption("expand bound " + std::to_string(bound) +
                              " outside [-kInfinity, kInfinity]");
  }
  RELGRAPH_RETURN_IF_ERROR(r.Finish());
  req->forward = forward == 1;
  req->session_id = session_id;
  req->nodes = std::move(nodes);
  req->dists = std::move(dists);
  req->bound = bound;
  return Status::OK();
}

std::string EncodeExpandResponse(const ShardExpandResponse& resp) {
  WireWriter w;
  w.PutU64(resp.edges.size());
  for (const ShippedEdge& e : resp.edges) {
    w.PutI64(e.frontier_node);
    w.PutI64(e.emit_node);
    w.PutI64(e.cost);
  }
  w.PutI64(resp.statements);
  w.PutI64(resp.elapsed_us);
  return w.Take();
}

Status DecodeExpandResponse(const std::string& payload,
                            ShardExpandResponse* resp) {
  WireReader r(payload);
  uint64_t count;
  RELGRAPH_RETURN_IF_ERROR(r.GetU64(&count));
  if (count > r.remaining() / 24) {
    return Status::Corruption("edge count exceeds payload");
  }
  resp->edges.clear();
  resp->edges.reserve(count);
  for (uint64_t i = 0; i < count; i++) {
    ShippedEdge e;
    RELGRAPH_RETURN_IF_ERROR(r.GetI64(&e.frontier_node));
    RELGRAPH_RETURN_IF_ERROR(r.GetI64(&e.emit_node));
    RELGRAPH_RETURN_IF_ERROR(r.GetI64(&e.cost));
    resp->edges.push_back(e);
  }
  RELGRAPH_RETURN_IF_ERROR(r.GetI64(&resp->statements));
  RELGRAPH_RETURN_IF_ERROR(r.GetI64(&resp->elapsed_us));
  return r.Finish();
}

std::string EncodeHandshakeRequest(const HandshakeRequest& req) {
  WireWriter w;
  w.PutU32(req.magic);
  w.PutU16(req.version);
  w.PutI32(req.shard);
  w.PutI32(req.num_shards);
  return w.Take();
}

Status DecodeHandshakeRequest(const std::string& payload,
                              HandshakeRequest* req) {
  WireReader r(payload);
  RELGRAPH_RETURN_IF_ERROR(r.GetU32(&req->magic));
  RELGRAPH_RETURN_IF_ERROR(r.GetU16(&req->version));
  RELGRAPH_RETURN_IF_ERROR(r.GetI32(&req->shard));
  RELGRAPH_RETURN_IF_ERROR(r.GetI32(&req->num_shards));
  return r.Finish();
}

std::string EncodeHandshakeAck(const HandshakeAck& ack) {
  WireWriter w;
  w.PutU16(ack.version);
  w.PutI32(ack.shard);
  return w.Take();
}

Status DecodeHandshakeAck(const std::string& payload, HandshakeAck* ack) {
  WireReader r(payload);
  RELGRAPH_RETURN_IF_ERROR(r.GetU16(&ack->version));
  RELGRAPH_RETURN_IF_ERROR(r.GetI32(&ack->shard));
  return r.Finish();
}

std::string EncodeErrorStatus(const Status& status) {
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(status.code()));
  w.PutBytes(status.message());
  return w.Take();
}

Status DecodeErrorStatus(const std::string& payload, Status* status) {
  WireReader r(payload);
  uint32_t code;
  RELGRAPH_RETURN_IF_ERROR(r.GetU32(&code));
  if (code > kMaxStatusCode) {
    return Status::Corruption("unknown status code on the wire");
  }
  std::string msg;
  RELGRAPH_RETURN_IF_ERROR(r.GetBytes(&msg));
  RELGRAPH_RETURN_IF_ERROR(r.Finish());
  *status = MakeStatus(static_cast<Status::Code>(code), std::move(msg));
  return Status::OK();
}

}  // namespace net
}  // namespace relgraph
