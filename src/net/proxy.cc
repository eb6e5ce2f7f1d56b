#include "net/proxy.h"

#include <poll.h>

#include <algorithm>

#include "util/rng.h"

namespace rcbr::net {

namespace {

/// Forwarding-loop tick; bounds how fast Stop() is observed.
constexpr int kPollIntervalMs = 5;

/// The proxy is a loopback impairment: its server is on the same host.
constexpr const char* kServerHost = "127.0.0.1";

/// Stateless drop draw: a uniform in [0, 1) that depends only on
/// (seed, direction, frame seq). Two runs with the same seed make the
/// same call for every frame no matter how the bytes were batched.
double HashUniform(std::uint64_t seed, bool from_client,
                   std::uint64_t seq) {
  const std::uint64_t dir_seed = DeriveStreamSeed(seed, from_client ? 1 : 2);
  const std::uint64_t u = DeriveStreamSeed(dir_seed, seq);
  return static_cast<double>(u >> 11) * 0x1.0p-53;
}

bool IsControlFrame(FrameType type) {
  return type != FrameType::kData && type != FrameType::kDataAck;
}

}  // namespace

struct Proxy::Pair {
  TcpStream client;
  TcpStream server;
  FrameDecoder from_client;
  FrameDecoder from_server;
  bool dead = false;
};

Proxy::Proxy(const ProxyOptions& options)
    : options_(options),
      schedule_(options.plan, options.slots_per_second) {}

Proxy::~Proxy() = default;

bool Proxy::Start() {
  auto listener = TcpListener::Bind(0);  // kernel-assigned: read port()
  if (!listener) return false;
  listener_ = std::move(*listener);
  return true;
}

void Proxy::FireCrashesUpTo(std::int64_t slot) {
  const auto crashes = schedule_.CrashesIn(crash_watermark_, slot);
  crash_watermark_ = std::max(crash_watermark_, slot);
  if (crashes.empty()) return;
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    ++stats_.crashes_fired;
    obs::Count(options_.recorder, "net.proxy.crashes_fired");
    if (options_.on_controller_crash) options_.on_controller_crash();
  }
  // The server is wiped: every proxied connection dies with it.
  sever_all_ = true;
}

bool Proxy::LetThrough(const Frame& frame, bool from_client) {
  const std::int64_t slot = static_cast<std::int64_t>(frame.slot);
  if (schedule_.LinkDownAt(0, slot)) {
    ++stats_.dropped_down;
    obs::Count(options_.recorder, "net.proxy.dropped_down");
    return false;
  }
  if (IsControlFrame(frame.type)) {
    // Signaling-channel impairments (the paper's RM-cell bursts).
    if (schedule_.ExtraDelaySecondsAt(slot) > options_.late_threshold_s) {
      ++stats_.dropped_late;
      obs::Count(options_.recorder, "net.proxy.dropped_late");
      return false;
    }
    const double p = schedule_.LossProbabilityAt(slot);
    if (p > 0 && HashUniform(options_.seed, from_client, frame.seq) < p) {
      ++stats_.dropped_loss;
      obs::Count(options_.recorder, "net.proxy.dropped_loss");
      return false;
    }
  }
  return true;
}

void Proxy::PumpSide(Pair& pair, bool from_client) {
  TcpStream& in = from_client ? pair.client : pair.server;
  TcpStream& out = from_client ? pair.server : pair.client;
  FrameDecoder& decoder = from_client ? pair.from_client : pair.from_server;

  std::uint8_t buf[4096];
  for (;;) {
    const RecvResult r = in.RecvSome(buf, sizeof(buf), 0);
    if (r.status == RecvStatus::kTimeout) break;
    if (r.status != RecvStatus::kData) {
      pair.dead = true;
      break;
    }
    decoder.Feed(buf, r.bytes);
  }
  Frame frame;
  for (;;) {
    const DecodeStatus status = decoder.Next(frame);
    if (status == DecodeStatus::kNeedMore) break;
    if (status == DecodeStatus::kError) {
      // The proxy is transparent: it cannot re-frame a corrupt stream,
      // so the pair dies and both endpoints see EOF.
      ++stats_.decode_failures;
      obs::Count(options_.recorder, "net.proxy.decode_failures");
      pair.dead = true;
      return;
    }
    if (from_client) {
      // The client's slot stamps are the proxy's clock; crashes fire
      // the moment a frame first reaches their tick. The triggering
      // frame dies with the connection — the server it was addressed
      // to no longer exists.
      FireCrashesUpTo(static_cast<std::int64_t>(frame.slot));
      if (sever_all_) return;
    }
    if (!LetThrough(frame, from_client)) continue;
    const std::vector<std::uint8_t> bytes = Encode(frame);
    if (!out.SendAll(bytes.data(), bytes.size())) {
      pair.dead = true;
      return;
    }
    ++stats_.frames_forwarded;
  }
}

void Proxy::Serve() {
  while (!stop_.load(std::memory_order_acquire)) {
    std::vector<pollfd> pfds;
    pfds.reserve(pairs_.size() * 2 + 1);
    pfds.push_back({listener_.fd(), POLLIN, 0});
    for (const auto& pair : pairs_) {
      pfds.push_back({pair->client.fd(), POLLIN, 0});
      pfds.push_back({pair->server.fd(), POLLIN, 0});
    }
    const int rc = ::poll(pfds.data(), pfds.size(), kPollIntervalMs);
    if (rc < 0 && errno != EINTR) break;

    if (rc > 0 && (pfds[0].revents & POLLIN) != 0) {
      while (auto client = listener_.Accept(0)) {
        auto server = TcpStream::Connect(kServerHost,
                                         options_.server_port, 1000);
        if (!server) {
          // Server unreachable: refuse by closing, the client's dial
          // succeeded but its Hello will meet EOF and retry.
          continue;
        }
        auto pair = std::make_unique<Pair>();
        pair->client = std::move(*client);
        pair->server = std::move(*server);
        pairs_.push_back(std::move(pair));
        ++stats_.pairs_opened;
        obs::Count(options_.recorder, "net.proxy.pairs_opened");
      }
    }

    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      Pair& pair = *pairs_[i];
      const short client_re =
          1 + 2 * i < pfds.size() ? pfds[1 + 2 * i].revents : 0;
      const short server_re =
          2 + 2 * i < pfds.size() ? pfds[2 + 2 * i].revents : 0;
      if (!pair.dead && !sever_all_ &&
          (client_re & (POLLIN | POLLHUP | POLLERR)) != 0) {
        PumpSide(pair, /*from_client=*/true);
      }
      if (!pair.dead && !sever_all_ &&
          (server_re & (POLLIN | POLLHUP | POLLERR)) != 0) {
        PumpSide(pair, /*from_client=*/false);
      }
    }
    if (sever_all_) {
      for (auto& pair : pairs_) pair->dead = true;
      sever_all_ = false;
    }
    pairs_.erase(std::remove_if(pairs_.begin(), pairs_.end(),
                                [](const std::unique_ptr<Pair>& p) {
                                  return p->dead;
                                }),
                 pairs_.end());
  }
  pairs_.clear();
}

}  // namespace rcbr::net
