// The shard wire format: every message must survive serialize→deserialize
// bit-identically (property-tested over random and adversarially shaped
// payloads), and every malformed frame — truncated, oversized, trailing
// garbage, unknown type, bad status code, out-of-range dist or bound —
// must be rejected as Status::Corruption, never misread or crashed on. A
// peer speaking another wire version is refused at handshake.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/rng.h"
#include "src/graph/generators.h"
#include "src/net/shard_server.h"
#include "src/net/socket.h"
#include "src/net/wire.h"

namespace relgraph {
namespace net {
namespace {

ShardExpandRequest RandomRequest(Rng* rng, size_t max_nodes) {
  ShardExpandRequest req;
  req.forward = rng->NextBounded(2) == 0;
  req.session_id = rng->NextInt(0, 1'000'000);
  const size_t n = rng->NextBounded(max_nodes + 1);
  for (size_t i = 0; i < n; i++) {
    req.nodes.push_back(rng->NextInt(0, 1'000'000'000));
    // Mostly small distances, sometimes the ends of the legal range.
    const uint64_t pick = rng->NextBounded(8);
    req.dists.push_back(pick == 0   ? 0
                        : pick == 1 ? kInfinity
                                    : rng->NextInt(0, 1'000'000));
  }
  const uint64_t pick = rng->NextBounded(4);
  req.bound = pick == 0   ? kInfinity
              : pick == 1 ? -kInfinity
                          : rng->NextInt(-1'000'000, 1'000'000);
  return req;
}

ShardExpandResponse RandomResponse(Rng* rng, size_t max_edges) {
  ShardExpandResponse resp;
  const size_t m = rng->NextBounded(max_edges + 1);
  for (size_t i = 0; i < m; i++) {
    resp.edges.push_back({rng->NextInt(0, 1'000'000),
                          rng->NextInt(0, 1'000'000),
                          rng->NextInt(0, 100)});
  }
  resp.statements = rng->NextInt(0, 1'000'000);
  resp.elapsed_us = rng->NextInt(0, 10'000'000);
  return resp;
}

TEST(WireRoundTrip, RandomExpandRequestsSurviveBitIdentically) {
  Rng rng(20260807);
  for (int i = 0; i < 200; i++) {
    ShardExpandRequest req = RandomRequest(&rng, 64);
    ShardExpandRequest back;
    ASSERT_TRUE(DecodeExpandRequest(EncodeExpandRequest(req), &back).ok());
    EXPECT_EQ(req, back) << "iteration " << i;
  }
}

TEST(WireRoundTrip, RandomExpandResponsesSurviveBitIdentically) {
  Rng rng(777123);
  for (int i = 0; i < 200; i++) {
    ShardExpandResponse resp = RandomResponse(&rng, 64);
    ShardExpandResponse back;
    ASSERT_TRUE(
        DecodeExpandResponse(EncodeExpandResponse(resp), &back).ok());
    EXPECT_EQ(resp, back) << "iteration " << i;
  }
}

// The shapes most likely to hide an off-by-one: empty frontiers, zero-cost
// edges, and extreme node ids (max int64, kInvalidNode's -1, kInfinity).
TEST(WireRoundTrip, EdgeShapedPayloadsSurvive) {
  constexpr int64_t kMaxI64 = std::numeric_limits<int64_t>::max();

  ShardExpandRequest empty;
  empty.forward = false;
  ShardExpandRequest back_req;
  ASSERT_TRUE(DecodeExpandRequest(EncodeExpandRequest(empty), &back_req).ok());
  EXPECT_EQ(empty, back_req);

  ShardExpandRequest extremes;
  extremes.session_id = kMaxI64;  // session ids must survive the full range
  extremes.nodes = {0, kMaxI64, kInvalidNode, 1, kMaxI64 - 1};
  extremes.dists = {0, kInfinity, 0, kInfinity - 1, 1};
  extremes.bound = -kInfinity;
  ASSERT_TRUE(
      DecodeExpandRequest(EncodeExpandRequest(extremes), &back_req).ok());
  EXPECT_EQ(extremes, back_req);

  // An in-process request may leave `dists` empty (every node at 0); the
  // wire always carries one dist per node, so it decodes as zeros.
  ShardExpandRequest no_dists;
  no_dists.nodes = {4, 5, 6};
  no_dists.bound = 17;
  ASSERT_TRUE(
      DecodeExpandRequest(EncodeExpandRequest(no_dists), &back_req).ok());
  EXPECT_EQ(back_req.nodes, no_dists.nodes);
  EXPECT_EQ(back_req.dists, (std::vector<weight_t>{0, 0, 0}));
  EXPECT_EQ(back_req.bound, 17);

  ShardExpandResponse empty_resp;  // all defaults
  ShardExpandResponse back_resp;
  ASSERT_TRUE(
      DecodeExpandResponse(EncodeExpandResponse(empty_resp), &back_resp)
          .ok());
  EXPECT_EQ(empty_resp, back_resp);

  ShardExpandResponse extreme_resp;
  extreme_resp.edges = {{0, 0, 0},                          // zero cost
                        {kMaxI64, kInvalidNode, kInfinity},  // extreme ids
                        {1, 2, 0}};                          // zero cost again
  extreme_resp.statements = kMaxI64;
  extreme_resp.elapsed_us = 0;
  ASSERT_TRUE(
      DecodeExpandResponse(EncodeExpandResponse(extreme_resp), &back_resp)
          .ok());
  EXPECT_EQ(extreme_resp, back_resp);
}

TEST(WireRoundTrip, HandshakeAndErrorFramesSurvive) {
  HandshakeRequest hs;
  hs.shard = 3;
  hs.num_shards = 8;
  HandshakeRequest hs_back;
  ASSERT_TRUE(
      DecodeHandshakeRequest(EncodeHandshakeRequest(hs), &hs_back).ok());
  EXPECT_EQ(hs.magic, hs_back.magic);
  EXPECT_EQ(hs.version, hs_back.version);
  EXPECT_EQ(hs.shard, hs_back.shard);
  EXPECT_EQ(hs.num_shards, hs_back.num_shards);

  HandshakeAck ack;
  ack.shard = 5;
  HandshakeAck ack_back;
  ASSERT_TRUE(DecodeHandshakeAck(EncodeHandshakeAck(ack), &ack_back).ok());
  EXPECT_EQ(ack.version, ack_back.version);
  EXPECT_EQ(ack.shard, ack_back.shard);

  for (const Status& st :
       {Status::Unavailable("shard 2 gone"), Status::DeadlineExceeded(""),
        Status::Internal("probe blew up"), Status::InvalidArgument("nope")}) {
    Status back;
    ASSERT_TRUE(DecodeErrorStatus(EncodeErrorStatus(st), &back).ok());
    EXPECT_EQ(back.code(), st.code());
    EXPECT_EQ(back.message(), st.message());
  }
}

// Every strict prefix of a valid payload must decode as Corruption: the
// bounds checks cannot be fooled by any truncation point.
TEST(WireReject, EveryTruncationOfARequestIsCorruption) {
  Rng rng(5150);
  ShardExpandRequest req = RandomRequest(&rng, 8);
  if (req.nodes.empty()) req.nodes.push_back(42);
  const std::string full = EncodeExpandRequest(req);
  for (size_t cut = 0; cut < full.size(); cut++) {
    ShardExpandRequest back;
    Status st = DecodeExpandRequest(full.substr(0, cut), &back);
    EXPECT_TRUE(st.IsCorruption()) << "cut=" << cut << ": " << st.ToString();
  }
}

TEST(WireReject, EveryTruncationOfAResponseIsCorruption) {
  Rng rng(6160);
  ShardExpandResponse resp = RandomResponse(&rng, 6);
  if (resp.edges.empty()) resp.edges.push_back({1, 2, 3});
  const std::string full = EncodeExpandResponse(resp);
  for (size_t cut = 0; cut < full.size(); cut++) {
    ShardExpandResponse back;
    Status st = DecodeExpandResponse(full.substr(0, cut), &back);
    EXPECT_TRUE(st.IsCorruption()) << "cut=" << cut << ": " << st.ToString();
  }
}

TEST(WireReject, TrailingGarbageIsCorruption) {
  ShardExpandRequest req;
  req.nodes = {1, 2, 3};
  std::string bytes = EncodeExpandRequest(req) + std::string("x", 1);
  ShardExpandRequest back_req;
  EXPECT_TRUE(DecodeExpandRequest(bytes, &back_req).IsCorruption());

  ShardExpandResponse resp;
  bytes = EncodeExpandResponse(resp) + std::string(4, '\0');
  ShardExpandResponse back_resp;
  EXPECT_TRUE(DecodeExpandResponse(bytes, &back_resp).IsCorruption());
}

// A corrupt count field must be rejected *before* any allocation sized by
// it: a count claiming more elements than the payload has bytes is
// corruption however huge it is.
TEST(WireReject, LyingCountFieldIsCorruptionNotAllocation) {
  WireWriter w;
  w.PutU8(1);                                        // forward
  w.PutI64(0);                                       // session id
  w.PutU64(std::numeric_limits<uint64_t>::max());    // absurd node count
  w.PutI64(7);                                       // one real node
  ShardExpandRequest req;
  EXPECT_TRUE(DecodeExpandRequest(w.Take(), &req).IsCorruption());

  WireWriter w2;
  w2.PutU64(1u << 30);  // a billion edges in a 24-byte payload
  w2.PutI64(1);
  w2.PutI64(2);
  w2.PutI64(3);
  ShardExpandResponse resp;
  EXPECT_TRUE(DecodeExpandResponse(w2.Take(), &resp).IsCorruption());
}

TEST(WireReject, FrameHeaderValidation) {
  char hdr[kFrameHeaderBytes];
  FrameType type;
  uint32_t len;
  uint32_t crc;

  EncodeFrameHeader(FrameType::kExpandRequest, 128, 0xDEADBEEF, hdr);
  ASSERT_TRUE(DecodeFrameHeader(hdr, &type, &len, &crc).ok());
  EXPECT_EQ(type, FrameType::kExpandRequest);
  EXPECT_EQ(len, 128u);
  EXPECT_EQ(crc, 0xDEADBEEFu);

  hdr[4] = 0;  // frame type 0 does not exist
  EXPECT_TRUE(DecodeFrameHeader(hdr, &type, &len, &crc).IsCorruption());
  hdr[4] = 99;  // nor does 99
  EXPECT_TRUE(DecodeFrameHeader(hdr, &type, &len, &crc).IsCorruption());

  EncodeFrameHeader(FrameType::kError, kMaxFramePayload + 1, 0, hdr);
  EXPECT_TRUE(DecodeFrameHeader(hdr, &type, &len, &crc).IsCorruption());
}

// ----- wire integrity (v3): frame payload CRC over a real socket -----------

/// A connected AF_UNIX pair in the non-blocking mode Socket's deadline
/// loops require (see tests/test_net_socket.cc for the full rationale).
void MakeSocketPair(Socket* a, Socket* b) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0)
      << strerror(errno);
  *a = Socket(fds[0]);
  *b = Socket(fds[1]);
}

// The regression the v3 frame CRC exists for: a single byte flipped on the
// socket between sender and receiver — in the payload OR in the checksum
// field itself — must surface from RecvFrame as typed Corruption, before
// any payload decoder sees the bytes. An untampered frame on the same
// connection must keep working.
TEST(WireIntegrity, FlippedByteOnSocketIsCorruption) {
  Socket tx, rx;
  MakeSocketPair(&tx, &rx);

  ShardExpandRequest req;
  req.forward = true;
  req.session_id = 42;
  req.nodes = {1, 2, 3, 4, 5};
  const std::string payload = EncodeExpandRequest(req);

  // Control: the frame survives the socket intact.
  ASSERT_TRUE(SendFrame(&tx, FrameType::kExpandRequest, payload,
                        DeadlineAfterMs(2000))
                  .ok());
  FrameType type;
  std::string got;
  ASSERT_TRUE(RecvFrame(&rx, &type, &got, DeadlineAfterMs(2000)).ok());
  EXPECT_EQ(type, FrameType::kExpandRequest);
  EXPECT_EQ(got, payload);

  // A frame whose header carries the CRC of the *original* payload but
  // whose payload has one flipped byte — what a flaky NIC or middlebox
  // produces.
  char hdr[kFrameHeaderBytes];
  EncodeFrameHeader(FrameType::kExpandRequest,
                    static_cast<uint32_t>(payload.size()),
                    crc32c::Value(payload.data(), payload.size()), hdr);
  std::string tampered = payload;
  tampered[tampered.size() / 2] =
      static_cast<char>(tampered[tampered.size() / 2] ^ 0x20);
  ASSERT_TRUE(tx.SendAll(hdr, sizeof(hdr), DeadlineAfterMs(2000)).ok());
  ASSERT_TRUE(
      tx.SendAll(tampered.data(), tampered.size(), DeadlineAfterMs(2000))
          .ok());
  Status st = RecvFrame(&rx, &type, &got, DeadlineAfterMs(2000));
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();

  // A flipped byte in the checksum field is the same verdict.
  EncodeFrameHeader(FrameType::kExpandRequest,
                    static_cast<uint32_t>(payload.size()),
                    crc32c::Value(payload.data(), payload.size()), hdr);
  hdr[kFrameHeaderBytes - 1] =
      static_cast<char>(hdr[kFrameHeaderBytes - 1] ^ 0xFF);
  ASSERT_TRUE(tx.SendAll(hdr, sizeof(hdr), DeadlineAfterMs(2000)).ok());
  ASSERT_TRUE(
      tx.SendAll(payload.data(), payload.size(), DeadlineAfterMs(2000)).ok());
  st = RecvFrame(&rx, &type, &got, DeadlineAfterMs(2000));
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();

  // And the connection is still usable for a clean frame afterwards —
  // corruption poisons the frame, not the transport.
  ASSERT_TRUE(SendFrame(&tx, FrameType::kExpandRequest, payload,
                        DeadlineAfterMs(2000))
                  .ok());
  ASSERT_TRUE(RecvFrame(&rx, &type, &got, DeadlineAfterMs(2000)).ok());
  EXPECT_EQ(got, payload);
}

// An empty payload (heartbeats) must round-trip under the CRC too: the
// CRC of zero bytes is well-defined and must match.
TEST(WireIntegrity, EmptyPayloadFrameSurvives) {
  Socket tx, rx;
  MakeSocketPair(&tx, &rx);
  ASSERT_TRUE(
      SendFrame(&tx, FrameType::kHeartbeat, "", DeadlineAfterMs(2000)).ok());
  FrameType type;
  std::string got;
  Status st = RecvFrame(&rx, &type, &got, DeadlineAfterMs(2000));
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(type, FrameType::kHeartbeat);
  EXPECT_TRUE(got.empty());
}

/// A v4 ExpandRequest payload written field by field, so a test can put
/// any value in any field.
std::string RawRequest(const std::vector<int64_t>& nodes,
                       const std::vector<int64_t>& dists, uint64_t dist_count,
                       int64_t bound) {
  WireWriter w;
  w.PutU8(1);   // forward
  w.PutI64(9);  // session id
  w.PutU64(nodes.size());
  for (int64_t n : nodes) w.PutI64(n);
  w.PutU64(dist_count);
  for (int64_t d : dists) w.PutI64(d);
  w.PutI64(bound);
  return w.Take();
}

// The fields v4 added are range-checked on decode: a dist count that is
// not the node count, a dist outside [0, kInfinity] or a bound outside
// [-kInfinity, kInfinity] is Corruption. The range checks are plain
// comparisons, so the int64 extremes decode without signed overflow
// (UBSan would flag one).
TEST(WireReject, HostileDistsAndBoundAreCorruption) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> nodes = {3, 1, 4};
  ShardExpandRequest req;
  ASSERT_TRUE(DecodeExpandRequest(RawRequest(nodes, {0, 5, kInfinity}, 3, 0),
                                  &req)
                  .ok());
  EXPECT_EQ(req.dists, (std::vector<weight_t>{0, 5, kInfinity}));
  ASSERT_TRUE(
      DecodeExpandRequest(RawRequest(nodes, {1, 2, 3}, 3, -kInfinity), &req)
          .ok());
  ASSERT_TRUE(
      DecodeExpandRequest(RawRequest(nodes, {1, 2, 3}, 3, kInfinity), &req)
          .ok());

  // Dist count differing from the node count, with the bytes to match the
  // stated count and without.
  for (uint64_t count : {0ull, 2ull, 4ull, ~0ull}) {
    std::vector<int64_t> dists(count <= 4 ? count : 3, 1);
    Status st = DecodeExpandRequest(RawRequest(nodes, dists, count, 0), &req);
    EXPECT_TRUE(st.IsCorruption()) << "count=" << count << ": "
                                   << st.ToString();
  }
  // A dist outside [0, kInfinity], in any position.
  for (int64_t bad : {int64_t{-1}, kInfinity + 1, kMin, kMax}) {
    for (size_t at = 0; at < nodes.size(); at++) {
      std::vector<int64_t> dists = {1, 2, 3};
      dists[at] = bad;
      Status st = DecodeExpandRequest(RawRequest(nodes, dists, 3, 0), &req);
      EXPECT_TRUE(st.IsCorruption())
          << "dist " << bad << " at " << at << ": " << st.ToString();
    }
  }
  // A bound outside [-kInfinity, kInfinity].
  for (int64_t bad : {-kInfinity - 1, kInfinity + 1, kMin, kMax}) {
    Status st = DecodeExpandRequest(RawRequest(nodes, {1, 2, 3}, 3, bad), &req);
    EXPECT_TRUE(st.IsCorruption()) << "bound " << bad << ": " << st.ToString();
  }
}

// A peer speaking wire v3 (no dists, no bound) is refused at handshake
// with a typed InvalidArgument that names both versions, before any
// expand request could be misread.
TEST(WireHandshake, VersionThreePeerIsRefused) {
  EdgeList list = GenerateBarabasiAlbert(40, 2, WeightRange{1, 10}, 3);
  ShardedGraphOptions sopts;
  sopts.num_shards = 1;
  std::unique_ptr<ShardedGraphStore> store;
  ASSERT_TRUE(ShardedGraphStore::Create(list, sopts, &store).ok());
  std::unique_ptr<ShardServer> server;
  ASSERT_TRUE(
      ShardServer::Start(store.get(), 0, ShardServerOptions{}, &server).ok());

  Socket sock;
  ASSERT_TRUE(
      TcpConnect("127.0.0.1", server->port(), DeadlineAfterMs(5000), &sock)
          .ok());
  HandshakeRequest hs;
  hs.version = 3;
  hs.shard = 0;
  hs.num_shards = 1;
  ASSERT_TRUE(SendFrame(&sock, FrameType::kHandshake,
                        EncodeHandshakeRequest(hs), DeadlineAfterMs(5000))
                  .ok());
  FrameType type;
  std::string payload;
  ASSERT_TRUE(RecvFrame(&sock, &type, &payload, DeadlineAfterMs(5000)).ok());
  ASSERT_EQ(type, FrameType::kError);
  Status refused;
  ASSERT_TRUE(DecodeErrorStatus(payload, &refused).ok());
  EXPECT_EQ(refused.code(), Status::Code::kInvalidArgument)
      << refused.ToString();
  EXPECT_NE(refused.message().find("client 3"), std::string::npos)
      << refused.ToString();
  EXPECT_NE(refused.message().find("server " + std::to_string(kWireVersion)),
            std::string::npos)
      << refused.ToString();
  EXPECT_EQ(kWireVersion, 4);
  server->Stop();
}

TEST(WireReject, BadStatusCodeAndBadDirectionFlag) {
  WireWriter w;
  w.PutU32(200);  // not a Status::Code
  w.PutBytes("whatever");
  Status decoded;
  EXPECT_TRUE(DecodeErrorStatus(w.Take(), &decoded).IsCorruption());

  WireWriter w2;
  w2.PutU8(2);  // direction flag must be 0 or 1
  w2.PutU64(0);
  ShardExpandRequest req;
  EXPECT_TRUE(DecodeExpandRequest(w2.Take(), &req).IsCorruption());
}

}  // namespace
}  // namespace net
}  // namespace relgraph
