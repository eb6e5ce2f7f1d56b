// Loopback daemon integration: rcbrd's Server against both the real
// Client and a raw hand-rolled peer.
//
// The Client half exercises the happy path, the ladder walk on
// admission, and byte-exact agreement after a clean session. The raw
// peer half drives the server off the rails on purpose — handshake
// violations, stale sequence numbers, metering fraud, draining refusals
// — and asserts every one dies as a clean kError frame, never a hang or
// a silent accept.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "fnv1a.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "signaling/port_controller.h"
#include "util/error.h"
#include "util/rng.h"

namespace rcbr::net {
namespace {

using testutil::Fnv1a;

bool SameBits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

class ServerFixture : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    options.port = 0;
    options.client_deadline_ms = 2000;
    server_.emplace(options);
    ASSERT_TRUE(server_->Start());
    thread_ = std::thread([this] { server_->Serve(); });
  }

  void TearDown() override {
    if (server_.has_value()) {
      server_->Stop();
      if (thread_.joinable()) thread_.join();
    }
  }

  ClientOptions BaseClient() {
    ClientOptions options;
    options.host = "127.0.0.1";
    options.port = server_->port();
    options.slots = 80;
    options.slot_seconds = 0.005;
    options.heuristic.initial_rate_bits_per_slot = 32e3;
    options.heuristic.granularity_bits_per_slot = 4e3;
    options.heuristic.max_rate_bits_per_slot = 96e3;
    options.retry.timeout_s = 0.05;
    options.retry.max_retries = 2;
    options.seed = 11;
    return options;
  }

  std::optional<Server> server_;
  std::thread thread_;
};

TEST_F(ServerFixture, HappyPathCompletesByteExact) {
  StartServer(ServerOptions{});
  ClientOptions options = BaseClient();
  Client client(options);
  ASSERT_TRUE(client.Run());
  const ClientStats& stats = client.stats();
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.desyncs, 0);
  EXPECT_EQ(stats.timeouts, 0);
  EXPECT_GT(stats.grants, 0);
  EXPECT_GT(stats.sent_bytes, 0);
  EXPECT_EQ(stats.acked_bytes, stats.sent_bytes);
  EXPECT_GE(client.log().Count(SessionEventKind::kBye), 1u);
  // The session released its reservation on Bye.
  EXPECT_EQ(server_->utilization_bps(), 0.0);
  EXPECT_EQ(server_->stats().sessions_opened, 1);
  EXPECT_EQ(server_->stats().byes, 1);
  EXPECT_EQ(server_->stats().protocol_errors, 0);
}

TEST_F(ServerFixture, AdmissionWalksLadderToAFeasibleRung) {
  // Initial ask: 32e3 bits / 0.005 s = 6.4 Mb/s at rung 0; capacity
  // admits only the rung-2 quarter-rate ask.
  ServerOptions server_options;
  server_options.capacity_bps = 2e6;
  StartServer(server_options);
  ClientOptions options = BaseClient();
  options.ladder =
      sim::RateLadder::FromScales({1.0, 0.5, 0.25}, {1.0, 0.5, 0.25});
  options.upgrade_every_slots = 0;  // hold the admitted rung
  Client client(options);
  ASSERT_TRUE(client.Run());
  EXPECT_EQ(client.rung(), 2u);
  EXPECT_EQ(client.log().Count(SessionEventKind::kConnectDenied), 2u);
  EXPECT_EQ(client.stats().desyncs, 0);
  // Bye released the reservation, and with it the upgrade-queue seat.
  EXPECT_FALSE(server_->IsUpgradeWaiter(options.vci));
  EXPECT_EQ(server_->utilization_bps(), 0.0);
}

TEST_F(ServerFixture, AdmissionBlockedOnEveryRungGivesUpWithoutRedial) {
  ServerOptions server_options;
  server_options.capacity_bps = 1e3;  // below even the deepest rung
  StartServer(server_options);
  ClientOptions options = BaseClient();
  options.ladder = sim::RateLadder::FromScales({1.0, 0.5}, {1.0, 0.5});
  Client client(options);
  EXPECT_FALSE(client.Run());
  EXPECT_TRUE(client.stats().gave_up);
  EXPECT_FALSE(client.stats().completed);
  EXPECT_EQ(client.log().Count(SessionEventKind::kConnectDenied), 2u);
  EXPECT_EQ(client.log().Count(SessionEventKind::kGiveUp), 1u);
  // Admission refusal is definitive: no reconnect storm.
  EXPECT_EQ(client.stats().reconnect_attempts, 0);
}

// --- Raw-peer tests: drive the protocol off the rails on purpose. ---

class RawPeer {
 public:
  static std::optional<RawPeer> Connect(std::uint16_t port) {
    auto stream = TcpStream::Connect("127.0.0.1", port, 1000);
    if (!stream.has_value()) return std::nullopt;
    RawPeer peer;
    peer.stream_ = std::move(*stream);
    return peer;
  }

  bool Send(Frame frame) {
    frame.seq = next_seq_++;
    const std::vector<std::uint8_t> bytes = Encode(frame);
    return stream_.SendAll(bytes.data(), bytes.size());
  }

  bool SendWithSeq(Frame frame, std::uint64_t seq) {
    frame.seq = seq;
    const std::vector<std::uint8_t> bytes = Encode(frame);
    return stream_.SendAll(bytes.data(), bytes.size());
  }

  bool SendRaw(const std::vector<std::uint8_t>& bytes) {
    return stream_.SendAll(bytes.data(), bytes.size());
  }

  /// Blocks until one frame arrives (2 s ceiling). nullopt = EOF/error.
  std::optional<Frame> Next() {
    Frame frame;
    for (int spins = 0; spins < 200; ++spins) {
      if (decoder_.Next(frame) == DecodeStatus::kFrame) return frame;
      if (decoder_.error() != WireError::kNone) return std::nullopt;
      std::uint8_t buf[4096];
      const RecvResult r = stream_.RecvSome(buf, sizeof buf, 10);
      if (r.status == RecvStatus::kData) {
        decoder_.Feed(buf, r.bytes);
      } else if (r.status != RecvStatus::kTimeout) {
        return std::nullopt;
      }
    }
    return std::nullopt;
  }

  /// True when the peer closes the stream (possibly after pending data).
  bool SawEof() {
    for (int spins = 0; spins < 200; ++spins) {
      std::uint8_t buf[4096];
      const RecvResult r = stream_.RecvSome(buf, sizeof buf, 10);
      if (r.status == RecvStatus::kClosed || r.status == RecvStatus::kError)
        return true;
      if (r.status == RecvStatus::kData) decoder_.Feed(buf, r.bytes);
    }
    return false;
  }

  std::uint64_t next_seq_ = 1;

 private:
  TcpStream stream_;
  FrameDecoder decoder_;
};

Frame HelloFrame(double rate_bps, std::uint64_t vci = 9,
                 std::uint32_t rung = 0) {
  Frame hello;
  hello.type = FrameType::kHello;
  hello.vci = vci;
  hello.rate_bps = rate_bps;
  hello.rung = rung;
  hello.slot_us = 10000;  // 10 ms slots
  return hello;
}

void ExpectError(RawPeer& peer, WireError code) {
  const std::optional<Frame> reply = peer.Next();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(reply->error_code, static_cast<std::uint32_t>(code));
  EXPECT_TRUE(peer.SawEof());
}

TEST_F(ServerFixture, DataBeforeHelloIsNotAdmitted) {
  StartServer(ServerOptions{});
  auto peer = RawPeer::Connect(server_->port());
  ASSERT_TRUE(peer.has_value());
  Frame data;
  data.type = FrameType::kData;
  data.data = {1, 2, 3};
  ASSERT_TRUE(peer->Send(data));
  ExpectError(*peer, WireError::kNotAdmitted);
}

TEST_F(ServerFixture, SecondHelloIsBadHandshake) {
  StartServer(ServerOptions{});
  auto peer = RawPeer::Connect(server_->port());
  ASSERT_TRUE(peer.has_value());
  ASSERT_TRUE(peer->Send(HelloFrame(1e6)));
  auto welcome = peer->Next();
  ASSERT_TRUE(welcome.has_value());
  ASSERT_EQ(welcome->type, FrameType::kWelcome);
  ASSERT_TRUE(welcome->accepted);
  ASSERT_TRUE(peer->Send(HelloFrame(2e6)));
  ExpectError(*peer, WireError::kBadHandshake);
}

TEST_F(ServerFixture, MalformedHelloFieldsAreBadHandshake) {
  StartServer(ServerOptions{});
  auto peer = RawPeer::Connect(server_->port());
  ASSERT_TRUE(peer.has_value());
  ASSERT_TRUE(peer->Send(HelloFrame(1e6, /*vci=*/0)));
  ExpectError(*peer, WireError::kBadHandshake);
}

TEST_F(ServerFixture, StaleSequenceIsReplay) {
  StartServer(ServerOptions{});
  auto peer = RawPeer::Connect(server_->port());
  ASSERT_TRUE(peer.has_value());
  ASSERT_TRUE(peer->SendWithSeq(HelloFrame(1e6), 5));
  auto welcome = peer->Next();
  ASSERT_TRUE(welcome.has_value());
  ASSERT_EQ(welcome->type, FrameType::kWelcome);
  Frame heartbeat;
  heartbeat.type = FrameType::kHeartbeat;
  ASSERT_TRUE(peer->SendWithSeq(heartbeat, 5));  // duplicate
  ExpectError(*peer, WireError::kStaleSequence);
}

TEST_F(ServerFixture, GarbageBytesPoisonTheConnectionCleanly) {
  StartServer(ServerOptions{});
  auto peer = RawPeer::Connect(server_->port());
  ASSERT_TRUE(peer.has_value());
  ASSERT_TRUE(peer->Send(HelloFrame(1e6)));
  ASSERT_TRUE(peer->Next().has_value());
  // Corrupt the length prefix of an otherwise valid frame: an oversized
  // prefix straight onto the wire poisons the server's decoder.
  Frame hb;
  hb.type = FrameType::kHeartbeat;
  hb.seq = 2;
  std::vector<std::uint8_t> bytes = Encode(hb);
  bytes[3] = 0xff;
  ASSERT_TRUE(peer->SendRaw(bytes));
  EXPECT_TRUE(peer->SawEof());
  EXPECT_GE(server_->stats().protocol_errors, 1);
}

TEST_F(ServerFixture, MeteringCatchesSustainedOverGrantSending) {
  StartServer(ServerOptions{});
  auto peer = RawPeer::Connect(server_->port());
  ASSERT_TRUE(peer.has_value());
  // 1e5 bps at 10 ms slots = 1e3 bits/slot. Tolerance is 4 slots + one
  // 1500-byte MTU of headroom; 40 KiB in a single slot busts it.
  ASSERT_TRUE(peer->Send(HelloFrame(1e5)));
  auto welcome = peer->Next();
  ASSERT_TRUE(welcome.has_value());
  ASSERT_TRUE(welcome->accepted);
  bool errored = false;
  for (int i = 0; i < 40 && !errored; ++i) {
    Frame data;
    data.type = FrameType::kData;
    data.slot = 1;  // no elapsed slots, no new credit
    data.data.assign(1024, 0x55);
    if (!peer->Send(data)) break;
    std::optional<Frame> reply = peer->Next();
    if (!reply.has_value()) break;
    if (reply->type == FrameType::kError) {
      EXPECT_EQ(reply->error_code,
                static_cast<std::uint32_t>(WireError::kRateViolation));
      errored = true;
    } else {
      EXPECT_EQ(reply->type, FrameType::kDataAck);
    }
  }
  EXPECT_TRUE(errored);
}

TEST_F(ServerFixture, FreshHelloWhileDrainingIsRefused) {
  StartServer(ServerOptions{});
  server_->RequestDrain();
  // Drain refuses new sessions but keeps the listener up briefly; a
  // freshly accepted connection gets the draining error.
  auto peer = RawPeer::Connect(server_->port());
  if (!peer.has_value()) {
    // Listener already closed: equally acceptable refusal.
    SUCCEED();
    return;
  }
  if (!peer->Send(HelloFrame(1e6))) {
    SUCCEED();  // connection reset by the drained server
    return;
  }
  const std::optional<Frame> reply = peer->Next();
  if (reply.has_value()) {
    ASSERT_EQ(reply->type, FrameType::kError);
    EXPECT_EQ(reply->error_code,
              static_cast<std::uint32_t>(WireError::kServerDraining));
  }
}

TEST_F(ServerFixture, ResyncHelloRepairsACrashedServerByteExactly) {
  StartServer(ServerOptions{});
  const double odd_rate = 0.1 + 0.2;  // 0.30000000000000004 — bits matter
  {
    auto peer = RawPeer::Connect(server_->port());
    ASSERT_TRUE(peer.has_value());
    ASSERT_TRUE(peer->Send(HelloFrame(odd_rate * 1e6, 9, 0)));
    auto welcome = peer->Next();
    ASSERT_TRUE(welcome.has_value());
    ASSERT_TRUE(welcome->accepted);
  }
  // Read the generation before requesting the wipe: the serve loop may
  // finish it before InjectCrash returns.
  const std::uint64_t generation = server_->crash_generation();
  server_->InjectCrash();
  for (int spins = 0; spins < 200 && server_->crash_generation() == generation;
       ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(server_->crash_generation(), generation);

  auto peer = RawPeer::Connect(server_->port());
  ASSERT_TRUE(peer.has_value());
  Frame hello = HelloFrame(odd_rate * 1e6, 9, 0);
  hello.resync = true;
  ASSERT_TRUE(peer->Send(hello));
  auto welcome = peer->Next();
  ASSERT_TRUE(welcome.has_value());
  ASSERT_TRUE(welcome->accepted);
  EXPECT_TRUE(SameBits(welcome->rate_bps, odd_rate * 1e6));

  Frame query;
  query.type = FrameType::kStateQuery;
  ASSERT_TRUE(peer->Send(query));
  auto report = peer->Next();
  ASSERT_TRUE(report.has_value());
  ASSERT_EQ(report->type, FrameType::kStateReport);
  EXPECT_TRUE(report->known);
  EXPECT_TRUE(SameBits(report->rate_bps, odd_rate * 1e6));
}

// --- The client's retry loop against a server that never answers deltas.

// A scripted peer for one client session: it applies every kDelta to its
// tracked rate but never answers one, echoes each kResync with a kGrant,
// and answers kStateQuery from its own tracked rate, so the final audit
// sees exactly what the client's rescinds left behind.
class SilentDeltaServer {
 public:
  SilentDeltaServer() : listener_(*TcpListener::Bind(0)) {}

  std::uint16_t port() const { return listener_.port(); }

  /// Serves one connection until Bye or EOF.
  void Serve() {
    std::optional<TcpStream> stream;
    for (int spins = 0; spins < 200 && !stream.has_value(); ++spins) {
      stream = listener_.Accept(10);
    }
    if (!stream.has_value()) return;
    FrameDecoder decoder;
    std::uint64_t seq = 1;
    for (;;) {
      std::uint8_t buf[4096];
      const RecvResult r = stream->RecvSome(buf, sizeof buf, 5000);
      if (r.status != RecvStatus::kData) return;
      decoder.Feed(buf, r.bytes);
      Frame in;
      while (decoder.Next(in) == DecodeStatus::kFrame) {
        if (in.type == FrameType::kData) continue;
        control_.push_back(in);
        Frame out;
        out.slot = in.slot;
        out.seq = seq++;
        out.rung = rung_;
        switch (in.type) {
          case FrameType::kHello:
            rate_ = in.rate_bps;
            out.rung = rung_ = in.rung;
            out.type = FrameType::kWelcome;
            out.accepted = true;
            out.rate_bps = rate_;
            break;
          case FrameType::kDelta:
            rate_ += in.delta_bps;  // applied, never answered
            continue;
          case FrameType::kResync:
            rate_ = in.rate_bps;
            out.rung = rung_ = in.rung;
            out.type = FrameType::kGrant;
            out.rate_bps = rate_;
            break;
          case FrameType::kStateQuery:
            out.type = FrameType::kStateReport;
            out.known = true;
            out.rate_bps = rate_;
            break;
          case FrameType::kHeartbeat:
            out.type = FrameType::kHeartbeatAck;
            break;
          default:  // kBye
            out.type = FrameType::kByeAck;
            break;
        }
        const std::vector<std::uint8_t> bytes = Encode(out);
        if (!stream->SendAll(bytes.data(), bytes.size()) ||
            out.type == FrameType::kByeAck) {
          return;
        }
      }
    }
  }

  // Call after Serve() has returned.
  const std::vector<Frame>& control() const { return control_; }
  double rate() const { return rate_; }

 private:
  TcpListener listener_;
  std::vector<Frame> control_;  // every non-data frame received, in order
  double rate_ = 0;
  std::uint32_t rung_ = 0;
};

TEST(ClientRetry, EveryDeltaTimeoutIsRescindedTheLastOneToo) {
  for (const std::int64_t max_retries : {0, 1}) {
    SCOPED_TRACE(max_retries);
    SilentDeltaServer server;
    std::thread thread([&server] { server.Serve(); });
    ClientOptions options;
    options.port = server.port();
    options.slots = 60;
    options.slot_seconds = 0.005;
    options.heuristic.initial_rate_bits_per_slot = 32e3;
    options.heuristic.granularity_bits_per_slot = 4e3;
    options.heuristic.max_rate_bits_per_slot = 96e3;
    options.retry.max_retries = max_retries;
    options.response_deadline_ms = 150;
    options.seed = 11;
    Client client(options);
    const bool completed = client.Run();
    thread.join();
    ASSERT_TRUE(completed);

    // No delta was ever granted, so the acknowledged rate is the
    // admitted one, and every delta attempt — the last of each request
    // included — is followed by a resync back to it.
    const std::vector<Frame>& frames = server.control();
    std::int64_t deltas = 0;
    std::vector<std::uint64_t> delta_seqs;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (frames[i].type != FrameType::kDelta) continue;
      ++deltas;
      delta_seqs.push_back(frames[i].seq);
      ASSERT_LT(i + 1, frames.size());
      EXPECT_EQ(frames[i + 1].type, FrameType::kResync);
      EXPECT_TRUE(SameBits(frames[i + 1].rate_bps, client.granted_bps()));
    }
    // Each timeout event names the attempt that timed out by the seq the
    // server decoded for it.
    std::vector<std::uint64_t> timeout_seqs;
    for (const SessionEvent& event : client.log().events()) {
      if (event.kind == SessionEventKind::kTimeout) {
        timeout_seqs.push_back(event.seq);
      }
    }
    EXPECT_EQ(timeout_seqs, delta_seqs);
    const ClientStats& stats = client.stats();
    EXPECT_GT(stats.holds, 0);
    EXPECT_EQ(deltas, stats.holds * (1 + max_retries));
    EXPECT_EQ(stats.timeouts, deltas);
    EXPECT_EQ(stats.resyncs, deltas);
    EXPECT_EQ(stats.grants, 0);
    EXPECT_EQ(stats.desyncs, 0);
    EXPECT_TRUE(SameBits(server.rate(), client.granted_bps()));
  }
}

// --- The client's ladder contract against a scripted server.

// A scripted peer for one client session: it refuses Hello below rung
// 2, denies every third ordinary delta and grants the rest, denies the
// first upgrade probe (a delta toward a better rung) and grants every
// later one, echoes kResync with a kGrant and answers kStateQuery from
// its tracked rate and rung. Every answer is immediate, so the session
// is a pure function of the client's seed.
class LadderScriptServer {
 public:
  LadderScriptServer() : listener_(*TcpListener::Bind(0)) {}

  std::uint16_t port() const { return listener_.port(); }

  /// Serves one connection until Bye or EOF.
  void Serve() {
    std::optional<TcpStream> stream;
    for (int spins = 0; spins < 200 && !stream.has_value(); ++spins) {
      stream = listener_.Accept(10);
    }
    if (!stream.has_value()) return;
    FrameDecoder decoder;
    std::uint64_t seq = 1;
    std::int64_t deltas = 0;
    std::int64_t probes = 0;
    for (;;) {
      std::uint8_t buf[4096];
      const RecvResult r = stream->RecvSome(buf, sizeof buf, 5000);
      if (r.status != RecvStatus::kData) return;
      decoder.Feed(buf, r.bytes);
      Frame in;
      while (decoder.Next(in) == DecodeStatus::kFrame) {
        if (in.type == FrameType::kData) continue;
        Frame out;
        out.slot = in.slot;
        out.seq = seq++;
        out.rung = rung_;
        switch (in.type) {
          case FrameType::kHello:
            out.type = FrameType::kWelcome;
            out.accepted = in.rung >= 2;
            if (out.accepted) {
              rate_ = in.rate_bps;
              rung_ = in.rung;
            }
            out.rate_bps = in.rate_bps;
            out.rung = in.rung;
            break;
          case FrameType::kDelta: {
            const bool probe = in.rung < rung_;
            const bool grant = probe ? probes++ > 0 : ++deltas % 3 != 0;
            out.type = grant ? FrameType::kGrant : FrameType::kDeny;
            if (grant) {
              rate_ += in.delta_bps;
              rung_ = in.rung;
            }
            out.rate_bps = rate_;
            out.rung = rung_;
            break;
          }
          case FrameType::kResync:
            rate_ = in.rate_bps;
            out.rung = rung_ = in.rung;
            out.type = FrameType::kGrant;
            out.rate_bps = rate_;
            break;
          case FrameType::kStateQuery:
            out.type = FrameType::kStateReport;
            out.known = true;
            out.rate_bps = rate_;
            break;
          case FrameType::kHeartbeat:
            out.type = FrameType::kHeartbeatAck;
            break;
          default:  // kBye
            out.type = FrameType::kByeAck;
            break;
        }
        const std::vector<std::uint8_t> bytes = Encode(out);
        if (!stream->SendAll(bytes.data(), bytes.size()) ||
            out.type == FrameType::kByeAck) {
          return;
        }
      }
    }
  }

  // Call after Serve() has returned.
  double rate() const { return rate_; }
  std::uint32_t rung() const { return rung_; }

 private:
  TcpListener listener_;
  double rate_ = 0;
  std::uint32_t rung_ = 0;
};

std::string RateBits(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return std::to_string(bits);
}

// Pins the session log and the contract's final rate bits of a client
// that connects downgraded to rung 2 of a {1, 0.6, 0.35} ladder, has
// deltas granted and denied at that rung, has its first upgrade probe
// denied and the next one granted, and ends the session at rung 0.
TEST(ClientPin, LadderSessionAgainstScriptedServer) {
  LadderScriptServer server;
  std::thread thread([&server] { server.Serve(); });
  ClientOptions options;
  options.port = server.port();
  options.slots = 120;
  options.slot_seconds = 0.003;
  options.ladder =
      sim::RateLadder::FromScales({1.0, 0.6, 0.35}, {1.0, 0.7, 0.4});
  options.upgrade_every_slots = 30;
  options.heuristic.initial_rate_bits_per_slot = 32e3;
  options.heuristic.granularity_bits_per_slot = 3e3;
  options.heuristic.max_rate_bits_per_slot = 96e3;
  options.heuristic.denial_cooldown_slots = 4;
  options.response_deadline_ms = 2000;
  options.seed = 23;
  Client client(options);
  const bool completed = client.Run();
  thread.join();
  ASSERT_TRUE(completed);

  const ClientStats& stats = client.stats();
  EXPECT_EQ(client.log().Count(SessionEventKind::kConnectDenied), 2u);
  EXPECT_GT(stats.grants, 0);
  EXPECT_GT(stats.denies, 0);
  EXPECT_EQ(stats.upgrades, 2);
  EXPECT_EQ(stats.timeouts, 0);
  EXPECT_EQ(stats.desyncs, 0);
  EXPECT_EQ(client.rung(), 0u);
  EXPECT_TRUE(SameBits(server.rate(), client.granted_bps()));

  const std::string jsonl = client.log().ToJsonl();
  EXPECT_EQ(jsonl.size(), 2280u) << jsonl;
  EXPECT_EQ(Fnv1a(jsonl), 13612883619768396410ull);
  EXPECT_EQ(RateBits(client.granted_bps()), "4718818273909538816");
  EXPECT_EQ(stats.grants, 10);
  EXPECT_EQ(stats.denies, 5);
  EXPECT_EQ(stats.slots, 120);
  EXPECT_EQ(RateBits(stats.lost_bits), "0");
}

// --- The client's half of the sequence contract.

// A scripted peer that answers every control frame at once, granting
// every delta, but on its first connection stamps its second reply with
// the first reply's seq: a replay the client must refuse. It serves the
// client's reconnect cleanly, until Bye.
class ReplayingServer {
 public:
  ReplayingServer() : listener_(*TcpListener::Bind(0)) {}

  std::uint16_t port() const { return listener_.port(); }

  /// Serves connections one at a time until Bye, or none arrives.
  void Serve() {
    for (;;) {
      std::optional<TcpStream> stream;
      for (int spins = 0; spins < 200 && !stream.has_value(); ++spins) {
        stream = listener_.Accept(10);
      }
      if (!stream.has_value()) return;
      ++connections_;
      if (ServeOne(*stream, /*replay=*/connections_ == 1)) return;
    }
  }

  // Call after Serve() has returned.
  int connections() const { return connections_; }

 private:
  /// True when the session ended with Bye, false on EOF.
  bool ServeOne(TcpStream& stream, bool replay) {
    FrameDecoder decoder;
    std::uint64_t seq = 1;
    for (;;) {
      std::uint8_t buf[4096];
      const RecvResult r = stream.RecvSome(buf, sizeof buf, 5000);
      if (r.status != RecvStatus::kData) return false;
      decoder.Feed(buf, r.bytes);
      Frame in;
      while (decoder.Next(in) == DecodeStatus::kFrame) {
        if (in.type == FrameType::kData) continue;
        Frame out;
        out.slot = in.slot;
        out.seq = replay && seq == 2 ? 1 : seq;
        ++seq;
        switch (in.type) {
          case FrameType::kHello:
            out.type = FrameType::kWelcome;
            out.accepted = true;
            rate_ = in.rate_bps;
            rung_ = in.rung;
            break;
          case FrameType::kDelta:
            out.type = FrameType::kGrant;
            rate_ += in.delta_bps;
            rung_ = in.rung;
            break;
          case FrameType::kResync:
            out.type = FrameType::kGrant;
            rate_ = in.rate_bps;
            rung_ = in.rung;
            break;
          case FrameType::kStateQuery:
            out.type = FrameType::kStateReport;
            out.known = true;
            break;
          case FrameType::kHeartbeat:
            out.type = FrameType::kHeartbeatAck;
            break;
          default:  // kBye
            out.type = FrameType::kByeAck;
            break;
        }
        out.rate_bps = rate_;
        out.rung = rung_;
        const std::vector<std::uint8_t> bytes = Encode(out);
        if (!stream.SendAll(bytes.data(), bytes.size())) return false;
        if (out.type == FrameType::kByeAck) return true;
      }
    }
  }

  TcpListener listener_;
  int connections_ = 0;
  double rate_ = 0;
  std::uint32_t rung_ = 0;
};

TEST(ClientSequence, ReplayedSeqIsAProtocolErrorAndTheClientReconnects) {
  ReplayingServer server;
  std::thread thread([&server] { server.Serve(); });
  ClientOptions options;  // the default controller is a runnable one
  options.port = server.port();
  options.slots = 60;
  options.slot_seconds = 0.005;
  options.response_deadline_ms = 2000;
  options.seed = 11;
  Client client(options);
  const bool completed = client.Run();
  thread.join();
  ASSERT_TRUE(completed);

  // The replay is refused as a protocol error naming its seq, the link
  // is declared suspect at once, and one re-dial repairs the session.
  const std::vector<SessionEvent>& events = client.log().events();
  const auto error = std::find_if(
      events.begin(), events.end(), [](const SessionEvent& e) {
        return e.kind == SessionEventKind::kProtocolError;
      });
  ASSERT_NE(error, events.end());
  EXPECT_EQ(error->detail, "stale_sequence");
  EXPECT_EQ(error->seq, 1u);
  ASSERT_NE(error + 1, events.end());
  EXPECT_EQ((error + 1)->kind, SessionEventKind::kLinkSuspect);
  EXPECT_EQ(client.log().Count(SessionEventKind::kProtocolError), 1);
  EXPECT_EQ(client.stats().reconnects, 1);
  EXPECT_EQ(client.stats().desyncs, 0);
  EXPECT_EQ(server.connections(), 2);
}

TEST(ClientRetry, ConstructorRejectsUnusableRetryOptions) {
  const auto with = [](auto edit) {
    ClientOptions options;
    options.heuristic.initial_rate_bits_per_slot = 32e3;
    options.heuristic.granularity_bits_per_slot = 4e3;
    options.heuristic.max_rate_bits_per_slot = 96e3;
    edit(options.retry);
    return options;
  };
  using R = signaling::RetryOptions;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Client(with([](R& r) { r.timeout_s = 0; })), InvalidArgument);
  EXPECT_THROW(Client(with([&](R& r) { r.timeout_s = nan; })),
               InvalidArgument);
  EXPECT_THROW(Client(with([](R& r) { r.max_retries = -1; })),
               InvalidArgument);
  EXPECT_THROW(Client(with([&](R& r) { r.backoff_base_s = nan; })),
               InvalidArgument);
  EXPECT_THROW(Client(with([](R& r) { r.backoff_multiplier = 0.5; })),
               InvalidArgument);
  EXPECT_THROW(Client(with([](R& r) { r.jitter_fraction = 1.0; })),
               InvalidArgument);
  EXPECT_THROW(Client(with([](R& r) { r.resync_every_grants = -1; })),
               InvalidArgument);
  EXPECT_NO_THROW(Client(with([](R&) {})));
}

// --- Sim<->daemon differential. ---

// One seeded sequence of Hello and Delta requests with rungs, spread over
// a few connections, runs through an in-process PortController and
// through the Server over unimpaired loopback with the same capacity and
// tolerance. Every verdict, rung and rate must agree bit for bit, and so
// must the ports' final state.
TEST_F(ServerFixture, DaemonMatchesInProcessPortControllerBitForBit) {
  ServerOptions server_options;
  server_options.capacity_bps = 10e6;
  StartServer(server_options);
  signaling::PortController model(server_options.capacity_bps,
                                  /*track_connections=*/true, nullptr,
                                  server_options.admission_tolerance_bps);

  constexpr std::size_t kConns = 4;
  std::vector<RawPeer> peers;
  for (std::size_t c = 0; c < kConns; ++c) {
    auto peer = RawPeer::Connect(server_->port());
    ASSERT_TRUE(peer.has_value());
    peers.push_back(std::move(*peer));
  }
  std::vector<bool> admitted(kConns, false);
  std::vector<double> rate(kConns, 0);
  std::vector<std::uint32_t> rung(kConns, 0);
  Rng rng(2024);
  std::int64_t delta_grants = 0;
  std::int64_t delta_denials = 0;
  for (std::uint32_t step = 1; step <= 300; ++step) {
    SCOPED_TRACE(step);
    const std::size_t c =
        static_cast<std::size_t>(rng.UniformInt(0, kConns - 1));
    const std::uint64_t vci = 100 + c;
    const auto want_rung = static_cast<std::uint32_t>(rng.UniformInt(0, 2));
    Frame request;
    bool accepted = false;
    double want_rate = 0;
    if (!admitted[c]) {
      request = HelloFrame(rng.Uniform(1e6, 5e6), vci, want_rung);
      want_rate = request.rate_bps;
      accepted = model.AdmitConnection(vci, want_rate, want_rung);
      admitted[c] = accepted;
    } else {
      request.type = FrameType::kDelta;
      request.delta_bps = std::max(rng.Uniform(-2e6, 3e6), -rate[c]);
      request.rung = want_rung;
      want_rate = rate[c] + request.delta_bps;
      accepted = model
                     .Handle(signaling::RmCell::Delta(vci, request.delta_bps,
                                                      want_rung),
                             step * 0.01)
                     .accepted;
      (accepted ? delta_grants : delta_denials) += 1;
    }
    if (accepted) {
      rate[c] = want_rate;
      rung[c] = want_rung;
    }
    request.slot = step;
    ASSERT_TRUE(peers[c].Send(request));
    const std::optional<Frame> reply = peers[c].Next();
    ASSERT_TRUE(reply.has_value());
    if (request.type == FrameType::kHello) {
      ASSERT_EQ(reply->type, FrameType::kWelcome);
      ASSERT_EQ(reply->accepted, accepted);
      if (!accepted) continue;  // a refused Hello carries no contract
    } else {
      ASSERT_EQ(reply->type,
                accepted ? FrameType::kGrant : FrameType::kDeny);
    }
    EXPECT_TRUE(SameBits(reply->rate_bps, rate[c]));
    EXPECT_EQ(reply->rung, rung[c]);
  }
  EXPECT_GT(delta_grants, 0);
  EXPECT_GT(delta_denials, 0);

  server_->Stop();
  thread_.join();
  EXPECT_TRUE(SameBits(server_->utilization_bps(), model.utilization_bps()));
  for (std::size_t c = 0; c < kConns; ++c) {
    EXPECT_TRUE(SameBits(server_->TrackedRate(100 + c),
                         model.TrackedRate(100 + c)));
    EXPECT_EQ(server_->IsUpgradeWaiter(100 + c),
              model.IsUpgradeWaiter(100 + c));
  }
}

}  // namespace
}  // namespace rcbr::net
