// daemon_loopback: an in-process net::Server thread against a closed-loop
// generator driving three sessions over three loopback connections.
//
// The generator copies the frame mix of a real rcbr_client: every slot it
// ships the granted rate's worth of payload as 1200 B kData chunks
// (without waiting for their acks), about every 5th slot it renegotiates
// with a kDelta drawn from a seeded two-time-scale rate process, and
// every 16th slot without a renegotiation it sends a kHeartbeat. A
// session's next control frame waits for the previous reply, so the load
// is a closed loop of three callers; the generator waits on poll() across
// the three sockets. Rates live on a 400 kb/s grid so every reservation
// sum is exact and the server's utilization returns to exactly 0.
#include <poll.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "common.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "signaling/port_controller.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using rcbr::net::DecodeStatus;
using rcbr::net::Frame;
using rcbr::net::FrameType;

constexpr std::size_t kSessions = 3;
constexpr std::uint32_t kSlotUs = 10000;
constexpr double kGridBitsPerSlot = 4000;  // 400 kb/s at 10 ms slots
constexpr int kQuietLevel = 6;             // 2.4 Mb/s
constexpr int kBurstLevel = 16;            // 6.4 Mb/s
constexpr int kMaxLevel = 24;
constexpr double kCapacityBps = 23e6;
constexpr std::size_t kChunkBytes = 1200;
constexpr std::uint32_t kHeartbeatEvery = 16;
constexpr std::size_t kPlanSlots = 1 << 16;
constexpr std::uint32_t kWarmupSlots = 500;
constexpr double kWindowSeconds = 2.0;

double LevelBps(int level) {
  return static_cast<double>(level) * kGridBitsPerSlot * 1e6 / kSlotUs;
}

/// The seeded request process of one session: per slot, 0 (no request)
/// or the grid level it asks for. Slow time scale: a quiet/burst scene
/// chain with geometric dwell (mean 32 slots). Fast time scale: a request
/// about every 5 slots at the scene level times a mean-1 lognormal factor.
std::vector<std::uint8_t> MakePlan(std::uint64_t seed, std::size_t session) {
  rcbr::Rng rng = rcbr::Rng::Stream(seed, session);
  std::vector<std::uint8_t> plan(kPlanSlots, 0);
  bool burst = false;
  constexpr double kSigma = 0.3;
  for (std::size_t t = 0; t < kPlanSlots; ++t) {
    if (rng.Uniform() < 1.0 / 32) burst = !burst;
    if (rng.Uniform() >= 1.0 / 5) continue;
    const double base = burst ? kBurstLevel : kQuietLevel;
    const double factor = rng.Lognormal(-kSigma * kSigma / 2, kSigma);
    const long level = std::lround(base * factor);
    plan[t] = static_cast<std::uint8_t>(std::clamp<long>(level, 2, kMaxLevel));
  }
  return plan;
}

/// Client-side costs recorded only in traced runs.
struct Trace {
  bool on = false;
  double encode_data_s = 0;
  double encode_control_s = 0;
  std::int64_t data_frames = 0;
  std::int64_t control_frames = 0;
  double send_s = 0;
  std::int64_t sends = 0;
  double recv_s = 0;
  std::int64_t recvs = 0;
  double decode_s = 0;
  std::int64_t decoded = 0;
  double wait_s = 0;
  /// A sample of encoded data frames, replayed through a decoder later.
  std::vector<std::uint8_t> data_sample;
  std::int64_t data_sample_frames = 0;
};

enum class CellKind : std::uint8_t { kAdmit, kDelta, kRelease };
struct Cell {
  CellKind kind;
  std::uint64_t vci;
  double value;
};

enum class Pending : std::uint8_t {
  kNone, kHello, kDelta, kHeartbeat, kQuery, kBye
};

struct Session {
  rcbr::net::TcpStream stream;
  rcbr::net::FrameDecoder decoder;
  std::uint64_t vci = 0;
  std::uint64_t seq_out = 1;
  std::uint64_t last_seq_in = 0;
  std::uint32_t slot = 0;
  std::size_t plan_pos = 0;
  const std::vector<std::uint8_t>* plan = nullptr;
  double granted_bps = 0;
  double carry_bits = 0;
  Pending pending = Pending::kNone;
  double pending_rate = 0;  // the rate a pending Hello/Delta asks for
  Clock::time_point sent_at;
  bool done = false;

  std::int64_t frames_sent = 0;
  std::int64_t data_bytes_sent = 0;
  std::int64_t acked_bytes = 0;
  std::int64_t grants = 0;
  std::int64_t denies = 0;
};

struct Episode {
  std::vector<double> rtt_us;
  std::int64_t answered = 0;  // grants + denies in the recorded phase
  std::int64_t increases = 0;
  std::int64_t increase_denies = 0;
  std::vector<double> window_rates;
  std::vector<double> window_p50_us;
  std::vector<double> window_mean_us;
  std::vector<double> window_p99_us;
  std::int64_t acked_bytes = 0;
  double recorded_s = 0;
  std::vector<Cell> cells;
  rcbr::net::ServerStats stats;
  double setup_s = 0;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

class Generator {
 public:
  Generator(std::uint64_t seed, Outcome& out, Trace& trace)
      : out_(out), trace_(trace) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      plans_.push_back(MakePlan(seed, s));
    }
    data_frame_.type = FrameType::kData;
    data_frame_.data.assign(kChunkBytes, 0x5a);
  }

  /// Connects every session and opens it with a Hello.
  bool Open(std::uint16_t port) {
    sessions_.resize(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
      Session& ss = sessions_[s];
      auto stream = rcbr::net::TcpStream::Connect("127.0.0.1", port, 2000);
      if (!stream) return false;
      ss.stream = std::move(*stream);
      ss.vci = s + 1;
      ss.plan = &plans_[s];
      ss.plan_pos = s * 977;  // decorrelate the sessions' plans
      Frame hello;
      hello.type = FrameType::kHello;
      hello.vci = ss.vci;
      hello.rate_bps = LevelBps(kQuietLevel);
      hello.slot_us = kSlotUs;
      ss.pending_rate = hello.rate_bps;
      SendControl(ss, hello, Pending::kHello);
    }
    return WaitAllIdle();
  }

  /// Runs closed-loop slots until every session has stepped `slots`.
  bool RunSlots(std::uint32_t slots) {
    while (true) {
      bool all = true;
      for (Session& s : sessions_) {
        if (s.slot < slots) {
          all = false;
          if (s.pending == Pending::kNone) StepUntilControl(s);
        }
      }
      if (all) return WaitAllIdle();
      if (!PollOnce()) return false;
    }
  }

  /// Runs closed-loop slots for `seconds` of wall time, counting answered
  /// renegotiations, their round trips and acked bytes into `ep`; the
  /// answered rate and the round-trip mean, p50 and p99 are also taken
  /// per kWindowSeconds window.
  bool RunFor(double seconds, Episode& ep) {
    std::int64_t acked0 = 0;
    for (const Session& s : sessions_) acked0 += s.acked_bytes;
    recording_ = &ep;
    const auto start = Clock::now();
    auto window_start = start;
    std::size_t window_first = ep.rtt_us.size();
    bool ok = true;
    while (ok && SecondsSince(start) < seconds) {
      for (Session& s : sessions_) {
        if (s.pending == Pending::kNone) StepUntilControl(s);
      }
      ok = PollOnce();
      const double window_s = SecondsSince(window_start);
      if (window_s >= kWindowSeconds) {
        std::vector<double> rtt(ep.rtt_us.begin() + window_first,
                                ep.rtt_us.end());
        std::sort(rtt.begin(), rtt.end());
        ep.window_rates.push_back(static_cast<double>(rtt.size()) / window_s);
        ep.window_p50_us.push_back(QuantileSorted(rtt, 0.50));
        double sum = 0;
        for (double v : rtt) sum += v;
        ep.window_mean_us.push_back(rtt.empty() ? 0.0 : sum / rtt.size());
        ep.window_p99_us.push_back(QuantileSorted(rtt, 0.99));
        window_first = ep.rtt_us.size();
        window_start = Clock::now();
      }
    }
    ep.recorded_s += SecondsSince(start);
    for (const Session& s : sessions_) ep.acked_bytes += s.acked_bytes;
    ep.acked_bytes -= acked0;
    recording_ = nullptr;
    return ok && WaitAllIdle();
  }

  /// StateQuery audit then Bye on every session.
  bool Close() {
    for (Session& s : sessions_) {
      Frame query;
      query.type = FrameType::kStateQuery;
      SendControl(s, query, Pending::kQuery);
    }
    if (!WaitAllIdle()) return false;
    for (Session& s : sessions_) {
      Frame bye;
      bye.type = FrameType::kBye;
      SendControl(s, bye, Pending::kBye);
    }
    if (!WaitAllIdle()) return false;
    for (Session& s : sessions_) s.stream.Close();
    return true;
  }

  const std::vector<Session>& sessions() const { return sessions_; }
  std::vector<Cell>& cells() { return cells_; }

 private:
  void Send(Session& s, Frame& frame, bool data) {
    frame.slot = s.slot;
    frame.seq = s.seq_out++;
    wire_.clear();
    if (trace_.on) {
      const auto t0 = Clock::now();
      rcbr::net::EncodeFrame(frame, wire_);
      const auto t1 = Clock::now();
      const bool ok = s.stream.SendAll(wire_.data(), wire_.size());
      trace_.send_s += SecondsSince(t1);
      ++trace_.sends;
      (data ? trace_.encode_data_s : trace_.encode_control_s) +=
          Seconds(t0, t1);
      ++(data ? trace_.data_frames : trace_.control_frames);
      if (data && trace_.data_sample_frames < 4096) {
        trace_.data_sample.insert(trace_.data_sample.end(), wire_.begin(),
                                  wire_.end());
        ++trace_.data_sample_frames;
      }
      out_.Check(ok, "daemon: send failed");
    } else {
      rcbr::net::EncodeFrame(frame, wire_);
      out_.Check(s.stream.SendAll(wire_.data(), wire_.size()),
                 "daemon: send failed");
    }
    ++s.frames_sent;
  }

  void SendControl(Session& s, Frame frame, Pending kind) {
    s.pending = kind;
    s.sent_at = Clock::now();
    Send(s, frame, false);
  }

  /// Steps slots (data, then at most one control frame) until the
  /// session has a control transaction in flight, reading whatever acks
  /// have arrived after each slot, as rcbr_client does.
  void StepUntilControl(Session& s) {
    while (true) {
      const double bits = s.granted_bps * kSlotUs / 1e6 + s.carry_bits;
      auto bytes = static_cast<std::int64_t>(bits / 8.0);
      s.carry_bits = bits - static_cast<double>(bytes) * 8.0;
      while (bytes > 0) {
        const auto chunk = static_cast<std::size_t>(
            std::min<std::int64_t>(bytes, kChunkBytes));
        data_frame_.data.resize(chunk, 0x5a);
        Send(s, data_frame_, true);
        s.data_bytes_sent += static_cast<std::int64_t>(chunk);
        bytes -= static_cast<std::int64_t>(chunk);
      }
      const std::uint8_t level = (*s.plan)[s.plan_pos++ % kPlanSlots];
      if (level != 0 && LevelBps(level) != s.granted_bps) {
        Frame delta;
        delta.type = FrameType::kDelta;
        delta.delta_bps = LevelBps(level) - s.granted_bps;
        s.pending_rate = LevelBps(level);
        SendControl(s, delta, Pending::kDelta);
      } else if (s.slot % kHeartbeatEvery == 0) {
        Frame hb;
        hb.type = FrameType::kHeartbeat;
        SendControl(s, hb, Pending::kHeartbeat);
      }
      ++s.slot;
      if (s.pending != Pending::kNone) return;
      Receive(s);
    }
  }

  bool WaitAllIdle() {
    while (std::any_of(sessions_.begin(), sessions_.end(),
                       [](const Session& s) {
                         return s.pending != Pending::kNone;
                       })) {
      if (!PollOnce()) return false;
    }
    return true;
  }

  /// Waits (up to 2 s) for replies and handles every readable session.
  bool PollOnce() {
    // A finished session's fd is closed by the server after its ByeAck;
    // poll ignores negative fds.
    pollfd pfds[kSessions];
    for (std::size_t i = 0; i < kSessions; ++i) {
      const Session& s = sessions_[i];
      pfds[i] = {s.done ? -1 : s.stream.fd(), POLLIN, 0};
    }
    const auto t0 = Clock::now();
    const int rc = ::poll(pfds, kSessions, 2000);
    if (trace_.on) trace_.wait_s += SecondsSince(t0);
    if (rc <= 0) {
      out_.Check(false, "daemon: poll timed out or failed");
      return false;
    }
    for (std::size_t i = 0; i < kSessions; ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        if (!Receive(sessions_[i])) return false;
      }
    }
    return true;
  }

  /// Reads what is buffered and handles every complete frame.
  bool Receive(Session& s) {
    std::uint8_t buf[1 << 16];
    for (;;) {
      const auto t0 = Clock::now();
      const rcbr::net::RecvResult r = s.stream.RecvSome(buf, sizeof(buf), 0);
      if (trace_.on) {
        trace_.recv_s += SecondsSince(t0);
        ++trace_.recvs;
      }
      if (r.status == rcbr::net::RecvStatus::kTimeout) return true;
      if (r.status != rcbr::net::RecvStatus::kData) {
        out_.Check(s.done, "daemon: connection lost");
        return s.done;
      }
      const auto t1 = Clock::now();
      s.decoder.Feed(buf, r.bytes);
      Frame frame;
      std::int64_t n = 0;
      while (true) {
        const DecodeStatus st = s.decoder.Next(frame);
        if (st == DecodeStatus::kNeedMore) break;
        if (st == DecodeStatus::kError) {
          out_.Check(false, "daemon: reply failed to decode");
          return false;
        }
        ++n;
        Handle(s, frame);
      }
      if (trace_.on) {
        trace_.decode_s += SecondsSince(t1);
        trace_.decoded += n;
      }
      if (r.bytes < sizeof(buf)) return true;
    }
  }

  void Handle(Session& s, const Frame& f) {
    if (f.seq <= s.last_seq_in) {
      out_.Check(false, "daemon: stale reply sequence");
    }
    s.last_seq_in = f.seq;
    if (f.type == FrameType::kDataAck) {
      s.acked_bytes = static_cast<std::int64_t>(f.total_bytes);
      return;
    }
    const Pending was = s.pending;
    s.pending = Pending::kNone;
    bool ok = false;
    switch (f.type) {
      case FrameType::kWelcome:
        ok = was == Pending::kHello && f.accepted &&
             SameBits(f.rate_bps, s.pending_rate);
        if (ok) {
          s.granted_bps = s.pending_rate;
          cells_.push_back({CellKind::kAdmit, s.vci, s.granted_bps});
        }
        break;
      case FrameType::kGrant:
      case FrameType::kDeny: {
        const bool grant = f.type == FrameType::kGrant;
        const double expect = grant ? s.pending_rate : s.granted_bps;
        ok = was == Pending::kDelta && SameBits(f.rate_bps, expect);
        cells_.push_back(
            {CellKind::kDelta, s.vci, s.pending_rate - s.granted_bps});
        const bool increase = s.pending_rate > s.granted_bps;
        if (grant) {
          s.granted_bps = s.pending_rate;
          ++s.grants;
        } else {
          ++s.denies;
        }
        if (recording_ != nullptr) {
          if (increase) {
            ++recording_->increases;
            if (!grant) ++recording_->increase_denies;
          }
          ++recording_->answered;
          recording_->rtt_us.push_back(SecondsSince(s.sent_at) * 1e6);
        }
        break;
      }
      case FrameType::kHeartbeatAck:
        ok = was == Pending::kHeartbeat;
        break;
      case FrameType::kStateReport:
        // The audit: the server's tracked rate is the acked rate,
        // bit-for-bit.
        ok = was == Pending::kQuery && f.known &&
             SameBits(f.rate_bps, s.granted_bps);
        break;
      case FrameType::kByeAck:
        ok = was == Pending::kBye;
        if (ok) {
          s.done = true;
          cells_.push_back({CellKind::kRelease, s.vci, s.granted_bps});
        }
        break;
      default:
        ok = false;  // kError, kDrain, or a server-bound type
        break;
    }
    out_.Op(ok, std::string("daemon: unexpected reply ") +
                    rcbr::net::FrameTypeName(f.type));
  }

  Outcome& out_;
  Trace& trace_;
  std::vector<std::vector<std::uint8_t>> plans_;
  std::vector<Session> sessions_;
  std::vector<std::uint8_t> wire_;
  Frame data_frame_;
  std::vector<Cell> cells_;
  Episode* recording_ = nullptr;
};

/// Owns the server thread: stops and joins it on every path.
class ServerThread {
 public:
  ServerThread(rcbr::net::Server& server, int cpu)
      : server_(server), thread_([this, cpu] {
          if (cpu >= 0) PinThisThread(cpu);
          server_.Serve();
        }) {}
  ~ServerThread() { Join(); }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  void Join() {
    if (thread_.joinable()) {
      server_.Stop();
      thread_.join();
    }
  }

 private:
  rcbr::net::Server& server_;
  std::thread thread_;
};

struct Cpus {
  int generator = -1;
  int server = -1;
};

Cpus PickCpus() {
  const std::vector<int> cpus = AllowedCpus();
  Cpus pick;
  if (cpus.size() >= 2) {
    pick.generator = cpus[cpus.size() - 2];
    pick.server = cpus[cpus.size() - 1];
  }
  return pick;
}

/// One server lifetime: set-up (plans, server start, connect, Hello and
/// a fixed warm-up of kWarmupSlots per session), then `seconds` of
/// untraced and `traced_seconds` of traced closed loop, then the audit,
/// Bye, and the server-side checks.
bool RunEpisode(std::uint64_t seed, double seconds, double traced_seconds,
                Episode& plain, Episode& traced, Trace& trace, Outcome& out) {
  const Cpus cpus = PickCpus();
  const ScopedPin pin(cpus.generator);
  const auto t0 = Clock::now();
  Generator gen(seed, out, trace);
  rcbr::net::ServerOptions options;
  options.capacity_bps = kCapacityBps;
  rcbr::net::Server server(options);
  if (!server.Start()) {
    out.Check(false, "daemon: server failed to bind");
    return false;
  }
  bool ok = true;
  {
    ServerThread thread(server, cpus.server);
    ok = gen.Open(server.port()) && gen.RunSlots(kWarmupSlots);
    plain.setup_s = SecondsSince(t0);
    if (ok && seconds > 0) ok = gen.RunFor(seconds, plain);
    if (ok && traced_seconds > 0) {
      trace.on = true;
      ok = gen.RunFor(traced_seconds, traced);
      trace.on = false;
    }
    ok = ok && gen.Close();
    out.Check(ok, "daemon: episode did not complete");
    thread.Join();
  }
  const rcbr::net::ServerStats& st = server.stats();
  std::int64_t frames = 0, bytes = 0, grants = 0, denies = 0;
  for (const Session& s : gen.sessions()) {
    frames += s.frames_sent;
    bytes += s.data_bytes_sent;
    grants += s.grants;
    denies += s.denies;
    out.Check(s.acked_bytes == s.data_bytes_sent,
              "daemon: acked bytes differ from sent bytes");
    out.Check(s.done, "daemon: session did not finish with ByeAck");
    out.Check(server.TrackedRate(s.vci) == 0.0,
              "daemon: released session still tracked");
  }
  out.Check(server.utilization_bps() == 0.0,
            "daemon: utilization not 0 after every Bye");
  out.Check(st.grants == grants && st.denies == denies,
            "daemon: server grant/deny counts differ from the generator's");
  out.Check(st.data_bytes == bytes,
            "daemon: server data bytes differ from the generator's");
  out.Check(st.frames_in == frames,
            "daemon: server frame count differs from the generator's");
  out.Check(st.protocol_errors == 0 && st.rate_violations == 0,
            "daemon: protocol errors or rate violations");
  plain.stats = st;
  plain.cells = std::move(gen.cells());
  return ok;
}

void NetLayers(std::uint64_t seed, double seconds, MetricMap& m,
               Outcome& out) {
  Episode plain;
  Episode traced;
  Trace trace;
  RunEpisode(seed, seconds / 2, seconds / 2, plain, traced, trace, out);

  const double traced_rate =
      static_cast<double>(traced.answered) / std::max(traced.recorded_s, 1e-9);
  const double plain_rate =
      static_cast<double>(plain.answered) / std::max(plain.recorded_s, 1e-9);
  auto per = [](double total, std::int64_t n) {
    return n > 0 ? total / static_cast<double>(n) : 0.0;
  };
  const double encode_data_ns =
      per(trace.encode_data_s, trace.data_frames) * 1e9;
  const double encode_control_ns =
      per(trace.encode_control_s, trace.control_frames) * 1e9;
  const double send_us = per(trace.send_s, trace.sends) * 1e6;
  const double recv_us = per(trace.recv_s, trace.recvs) * 1e6;
  const double decode_control_ns = per(trace.decode_s, trace.decoded) * 1e9;

  // Server-side decode of data frames, replayed on the recorded bytes.
  double decode_data_ns = 0;
  {
    std::int64_t frames = 0;
    double total = 0;
    const auto start = Clock::now();
    while (frames < 200000 && SecondsSince(start) < 0.2) {
      rcbr::net::FrameDecoder decoder;
      const auto t0 = Clock::now();
      decoder.Feed(trace.data_sample.data(), trace.data_sample.size());
      Frame f;
      std::int64_t n = 0;
      while (decoder.Next(f) == DecodeStatus::kFrame) ++n;
      total += SecondsSince(t0);
      frames += n;
      out.Check(n == trace.data_sample_frames,
                "daemon: data replay decoded a different frame count");
    }
    decode_data_ns = per(total, frames) * 1e9;
  }

  // The sessions' cells on a standalone tracked PortController.
  double port_ns = 0;
  {
    std::int64_t cells = 0;
    double total = 0;
    const auto start = Clock::now();
    while (cells < 2000000 && SecondsSince(start) < 0.2) {
      rcbr::signaling::PortController port(kCapacityBps, true, nullptr, 1e-9);
      double sum = 0;
      const auto t0 = Clock::now();
      for (const Cell& c : plain.cells) {
        switch (c.kind) {
          case CellKind::kAdmit:
            sum += port.AdmitConnection(c.vci, c.value) ? 1 : 0;
            break;
          case CellKind::kDelta:
            sum += port.Handle(rcbr::signaling::RmCell::Delta(c.vci, c.value),
                               0.0)
                       .granted_delta_bps;
            break;
          case CellKind::kRelease:
            port.ReleaseConnection(c.vci);
            break;
        }
      }
      total += SecondsSince(t0);
      cells += static_cast<std::int64_t>(plain.cells.size());
      Sink(sum);
    }
    port_ns = per(total, cells) * 1e9;
  }

  const double rtt_mean = per(
      [&] {
        double s = 0;
        for (double v : traced.rtt_us) s += v;
        return s;
      }(),
      static_cast<std::int64_t>(traced.rtt_us.size()));
  const auto& st = plain.stats;
  m["net.wire.encode_ns.data"] = {encode_data_ns, "ns"};
  m["net.wire.encode_ns.control"] = {encode_control_ns, "ns"};
  m["net.wire.decode_ns.data"] = {decode_data_ns, "ns"};
  m["net.wire.decode_ns.control"] = {decode_control_ns, "ns"};
  m["net.socket.send_us"] = {send_us, "us"};
  m["net.socket.recv_us"] = {recv_us, "us"};
  m["net.client.wait_us"] = {
      per(trace.wait_s, traced.answered) * 1e6, "us"};
  m["net.server.turnaround_us"] = {
      rtt_mean - (encode_control_ns / 1e3 + send_us + recv_us +
                  decode_control_ns / 1e3),
      "us"};
  m["net.port_controller.ns_per_cell"] = {port_ns, "ns"};
  m["net.deny_ratio"] = {
      static_cast<double>(st.denies) /
          static_cast<double>(std::max<std::int64_t>(st.grants + st.denies, 1)),
      "ratio"};
  m["net.frames_in"] = {static_cast<double>(st.frames_in), "count"};
  m["net.grants"] = {static_cast<double>(st.grants), "count"};
  m["net.denies"] = {static_cast<double>(st.denies), "count"};
  m["net.data_bytes"] = {static_cast<double>(st.data_bytes), "count"};
  m["net.protocol_errors"] = {static_cast<double>(st.protocol_errors),
                              "count"};
  m["net.grants_per_s"] = {traced_rate, "1/s"};
  m["net.data_mb_per_s"] = {
      static_cast<double>(traced.acked_bytes) / 1e6 /
          std::max(traced.recorded_s, 1e-9),
      "MB/s"};
  m["net.trace_overhead_frac"] = {plain_rate / traced_rate - 1.0, "ratio"};
}

constexpr int kSetupReps = 3;

}  // namespace

void RunDaemonLoopback(const RunConfig& config, Outcome& out) {
  if (config.trace) {
    NetLayers(config.seed, config.seconds, out.layers, out);
    return;
  }
  // Set-up repetitions: full episodes with no measured phase.
  std::vector<double> setups;
  Trace trace;
  for (int rep = 0; rep + 1 < kSetupReps; ++rep) {
    Episode plain;
    Episode traced;
    RunEpisode(config.seed, 0, 0, plain, traced, trace, out);
    setups.push_back(plain.setup_s);
  }
  Episode ep;
  Episode unused;
  RunEpisode(config.seed, config.seconds, 0, ep, unused, trace, out);
  setups.push_back(ep.setup_s);

  // Medians over 2 s windows. A window holds thousands of round trips, so
  // its p99 has well over ten samples beyond it. The typical round trip is
  // also given as the mean: the single-threaded generator reads replies in
  // session order after each burst, so the distribution has one mode per
  // session and its p50 jumps between them from run to run.
  const double answered_per_s = Median(ep.window_rates);
  const double mean = Median(ep.window_mean_us);
  const double p50 = Median(ep.window_p50_us);
  const double p99 = Median(ep.window_p99_us);
  out.notes["window_answered_per_s"] = JoinSamples(ep.window_rates);
  out.notes["window_rtt_mean_us"] = JoinSamples(ep.window_mean_us);
  out.notes["window_rtt_p50_us"] = JoinSamples(ep.window_p50_us);
  out.notes["window_rtt_p99_us"] = JoinSamples(ep.window_p99_us);
  out.end_to_end["work_per_s"] = {answered_per_s, "1/s"};
  out.named["grant_rtt_mean_us"] = {mean, "us"};
  out.end_to_end["setup_s"] = {Median(setups), "s"};
  out.named["grants_per_s"] = {answered_per_s, "answered/s"};
  out.named["data_mb_per_s"] = {
      static_cast<double>(ep.acked_bytes) / 1e6 / ep.recorded_s, "MB/s"};
  out.named["grant_rtt_p50_us"] = {p50, "us"};
  out.named["grant_rtt_p99_us"] = {p99, "us"};
  out.named["windows"] = {static_cast<double>(ep.window_rates.size()),
                          "count"};
  out.named["grant_rtt_samples"] = {static_cast<double>(ep.rtt_us.size()),
                                    "count"};
  out.named["increase_deny_ratio"] = {
      static_cast<double>(ep.increase_denies) /
          static_cast<double>(std::max<std::int64_t>(ep.increases, 1)),
      "ratio"};
  out.named["deny_ratio"] = {
      static_cast<double>(ep.stats.denies) /
          static_cast<double>(
              std::max<std::int64_t>(ep.stats.grants + ep.stats.denies, 1)),
      "ratio"};
  out.named["setup_s"] = {Median(setups), "s"};
}

void ProbeNetLayers(std::uint64_t seed, MetricMap& out, Outcome& outcome) {
  NetLayers(seed, 2.0, out, outcome);
}

}  // namespace perfbench
