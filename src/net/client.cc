#include "net/client.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/error.h"

namespace rcbr::net {

namespace {

/// End-system buffer, bits.
constexpr double kBufferBits = 256e3;
/// Wall-clock budget for one TCP dial.
constexpr int kConnectTimeoutMs = 250;
/// Re-dial attempts after a dead connection before giving up.
constexpr std::int64_t kMaxReconnects = 5;
constexpr std::int64_t kHeartbeatEverySlots = 16;
/// Payload bytes per kData frame.
constexpr std::int64_t kChunkBytes = 1200;

// The seeded two-time-scale VBR source: a slow on/off scene chain
// switches the mean rate, a fast lognormal factor jitters every slot —
// the "multiple time-scale traffic" of the paper's title, miniaturized.
constexpr double kQuietBitsPerSlot = 16e3;
constexpr double kBurstBitsPerSlot = 64e3;
/// Mean scene dwell, slots (geometric).
constexpr double kSceneMeanSlots = 32;
/// Sigma of the per-slot lognormal factor (mean-1 normalized).
constexpr double kSigmaLog = 0.3;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

void ValidateClientOptions(const ClientOptions& options) {
  Require(options.slot_seconds > 0 && options.slot_seconds <= 1.0,
          "Client: slot_seconds must be in (0, 1]");
  Require(options.slots > 0, "Client: session needs at least one slot");
  Require(options.heuristic.initial_rate_bits_per_slot > 0,
          "Client: initial rate must be positive");
  signaling::ValidateRetryOptions(options.retry);
}

Client::Client(const ClientOptions& options)
    : options_(options),
      traffic_rng_(DeriveStreamSeed(options.seed, 0)),
      backoff_rng_(DeriveStreamSeed(options.seed, 1)),
      controller_(
          std::make_unique<core::OnlineRateController>(options.heuristic)),
      contract_(controller_.get(), options.slot_seconds),
      queue_(kBufferBits, options.recorder, options.vci) {
  ValidateClientOptions(options);
  contract_.SetLadder(options.ladder);
  next_heartbeat_slot_ = kHeartbeatEverySlots;
  next_upgrade_slot_ = options_.upgrade_every_slots;
}

Client::~Client() = default;

double Client::NextArrivalBits() {
  if (scene_remaining_ <= 0) {
    scene_burst_ = !scene_burst_;
    // Geometric dwell with the configured mean: the slow time scale.
    scene_remaining_ = 1 + static_cast<std::int64_t>(
                               traffic_rng_.Exponential(kSceneMeanSlots));
  }
  --scene_remaining_;
  const double mean = scene_burst_ ? kBurstBitsPerSlot : kQuietBitsPerSlot;
  return mean * traffic_rng_.Lognormal(-0.5 * kSigmaLog * kSigmaLog, kSigmaLog);
}

std::int64_t Client::SlotsFor(double seconds) const {
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(seconds / options_.slot_seconds)));
}

void Client::ChargeSlots(std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const double arrivals = NextArrivalBits();
    stats_.arrived_bits += arrivals;
    // The slot clock keeps running while the source is stuck signaling:
    // arrivals pile into the buffer and nothing drains, so outages show
    // up as real loss. The controller sees the stall too, keeping its
    // buffer model honest, but its proposals are ignored mid-charge.
    stats_.lost_bits += queue_.Step(arrivals, 0);
    controller_->Step(arrivals, 0);
    ++slot_;
    ++stats_.charged_slots;
  }
}

bool Client::SendFrame(Frame& frame) {
  if (stream_.Send({&frame, 1})) return true;
  connected_ = false;
  return false;
}

bool Client::HandleAsyncFrame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kDataAck:
      stats_.acked_bytes =
          static_cast<std::int64_t>(frame.total_bytes);
      return true;
    case FrameType::kDrain:
      if (!drain_requested_) {
        drain_requested_ = true;
        ++stats_.drain_notices;
        log_.Append(slot_, SessionEventKind::kDrain, frame.seq, granted_bps(),
                    rung());
        obs::Count(options_.recorder, "net.client.drain_notices");
      }
      return true;
    case FrameType::kError:
      log_.Append(slot_, SessionEventKind::kProtocolError, frame.seq,
                  granted_bps(), rung(),
                  WireErrorName(static_cast<WireError>(frame.error_code)));
      obs::Count(options_.recorder, "net.client.protocol_errors");
      connected_ = false;
      return false;
    default:
      // A response frame outside any transaction: a grant/deny that
      // arrived after its deadline. The rescind already nullified it.
      ++stats_.stale_responses;
      return true;
  }
}

Client::TxStatus Client::Dispatch(FrameType expect,
                                  std::uint32_t expect_slot, Frame* out) {
  Frame frame;
  for (;;) {
    const DecodeStatus status = stream_.Next(frame);
    if (status == DecodeStatus::kNeedMore) return TxStatus::kTimedOut;
    if (status == DecodeStatus::kError) {
      log_.Append(slot_, SessionEventKind::kProtocolError, 0, granted_bps(),
                  rung(), stream_.decoder().error_message());
      connected_ = false;
      return TxStatus::kAborted;
    }
    if (!stream_.AcceptSeq(frame)) {
      log_.Append(slot_, SessionEventKind::kProtocolError, frame.seq,
                  granted_bps(), rung(), "stale_sequence");
      connected_ = false;
      return TxStatus::kAborted;
    }
    // A kDeny is the other legitimate answer to a delta — definitive,
    // never retried — so an expected kGrant matches either verdict.
    const bool matches =
        out != nullptr && frame.slot == expect_slot &&
        (frame.type == expect ||
         (expect == FrameType::kGrant && frame.type == FrameType::kDeny));
    if (matches) {
      *out = frame;
      return TxStatus::kAnswered;
    }
    if (!HandleAsyncFrame(frame)) return TxStatus::kAborted;
  }
}

bool Client::PollIncoming() {
  for (;;) {
    const RecvStatus r = stream_.Fill(0);
    if (r == RecvStatus::kTimeout) break;  // nothing buffered
    if (r != RecvStatus::kData) {
      connected_ = false;
      return false;
    }
  }
  // No response is awaited: every frame is asynchronous.
  return Dispatch(FrameType::kHeartbeat, 0, nullptr) != TxStatus::kAborted;
}

Client::TxStatus Client::AwaitResponse(FrameType expect,
                                       std::uint32_t expect_slot,
                                       Frame* out) {
  // Deadline over the whole wait, not per read.
  int remaining_ms = options_.response_deadline_ms;
  for (;;) {
    const TxStatus status = Dispatch(expect, expect_slot, out);
    if (status != TxStatus::kTimedOut) return status;
    if (remaining_ms <= 0) return TxStatus::kTimedOut;
    const RecvStatus r = stream_.Fill(remaining_ms);
    if (r == RecvStatus::kTimeout) return TxStatus::kTimedOut;
    if (r != RecvStatus::kData) {
      connected_ = false;
      return TxStatus::kAborted;
    }
    // Coarse budget decay: each successful read spends at least a
    // millisecond of the window, so a peer trickling garbage cannot pin
    // us here forever.
    remaining_ms -= 1;
  }
}

Client::TxStatus Client::Transaction(Frame request, FrameType expect,
                                     Frame* response) {
  return signaling::RetryLoop(
      options_.retry, &backoff_rng_,
      [&](std::int64_t) {
        request.slot = static_cast<std::uint32_t>(slot_);
        if (!SendFrame(request)) return TxStatus::kAborted;
        return AwaitResponse(expect, request.slot, response);
      },
      [&](std::int64_t attempt) {
        ++stats_.timeouts;
        obs::Count(options_.recorder, "net.client.timeouts");
        log_.Append(slot_, SessionEventKind::kTimeout, request.seq,
                    granted_bps(), rung(),
                    std::string(FrameTypeName(request.type)) +
                        " attempt=" + std::to_string(attempt + 1));
        ChargeSlots(SlotsFor(options_.retry.timeout_s));
        // Rescind: an absolute resync at the acknowledged rate and rung
        // erases whatever the timed-out attempt may have half-applied, so
        // a retransmit cannot double-apply and giving up leaves the
        // server at the held rate.
        Frame rescind;
        rescind.type = FrameType::kResync;
        rescind.rate_bps = granted_bps();
        rescind.rung = rung();
        rescind.slot = static_cast<std::uint32_t>(slot_);
        if (!SendFrame(rescind)) return false;
        Frame echo;
        if (AwaitResponse(FrameType::kGrant, rescind.slot, &echo) !=
            TxStatus::kAnswered) {
          // The reliable repair itself failed: the link is suspect.
          connected_ = false;
          return false;
        }
        ++stats_.resyncs;
        obs::Count(options_.recorder, "net.client.resyncs");
        return true;
      },
      [&](std::int64_t, double backoff) { ChargeSlots(SlotsFor(backoff)); });
}

bool Client::DialAndHello(bool resync) {
  auto stream =
      TcpStream::Connect(options_.host, options_.port, kConnectTimeoutMs);
  if (!stream) return false;
  stream_ = FramedStream(std::move(*stream));
  connected_ = true;
  if (!resync) return true;

  Frame hello = Hello(granted_bps(), rung());
  hello.resync = true;
  if (!SendFrame(hello)) return false;
  Frame welcome;
  if (AwaitResponse(FrameType::kWelcome, hello.slot, &welcome) !=
          TxStatus::kAnswered ||
      !welcome.accepted) {
    stream_.Close();
    connected_ = false;
    return false;
  }
  return true;
}

bool Client::ConnectSession() {
  const double full_ask_bps =
      options_.heuristic.initial_rate_bits_per_slot / options_.slot_seconds;
  signaling::RetryOptions dial = options_.retry;
  dial.max_retries = kMaxReconnects;
  const TxStatus end = signaling::RetryLoop(
      dial, &backoff_rng_,
      [&](std::int64_t attempt) {
        if (!DialAndHello(/*resync=*/false)) {
          log_.Append(slot_, SessionEventKind::kReconnectFailed, 0, 0, 0,
                      "dial attempt=" + std::to_string(attempt + 1));
          return TxStatus::kTimedOut;
        }
        // Walk the ladder best rung first on this connection: admission
        // either grants some rung or blocks.
        std::uint64_t welcome_seq = 0;
        const sim::RungAnswer answer = contract_.Connect(
            full_ask_bps, [&](std::uint32_t rung, double& rate) {
              Frame hello = Hello(rate, rung);
              Frame welcome;
              if (!SendFrame(hello) ||
                  AwaitResponse(FrameType::kWelcome, hello.slot, &welcome) !=
                      TxStatus::kAnswered) {
                return sim::RungAnswer::kStopped;
              }
              if (!welcome.accepted) {
                log_.Append(slot_, SessionEventKind::kConnectDenied,
                            welcome.seq, rate, rung);
                return sim::RungAnswer::kDenied;
              }
              rate = welcome.rate_bps;
              welcome_seq = welcome.seq;
              return sim::RungAnswer::kGranted;
            });
        if (answer == sim::RungAnswer::kGranted) {
          log_.Append(slot_, SessionEventKind::kConnect, welcome_seq,
                      granted_bps(), rung());
          obs::Count(options_.recorder, "net.client.connects");
          return TxStatus::kAnswered;
        }
        stream_.Close();
        connected_ = false;
        if (answer == sim::RungAnswer::kDenied) {
          // The server answered every rung with a denial: admission is
          // blocked, and hammering it with re-dials will not change that.
          log_.Append(slot_, SessionEventKind::kGiveUp, 0, 0, 0,
                      "admission_blocked");
          return TxStatus::kAborted;
        }
        return TxStatus::kTimedOut;
      },
      [](std::int64_t) { return true; },
      [&](std::int64_t, double backoff) {
        ++stats_.reconnect_attempts;
        ChargeSlots(SlotsFor(backoff));
      });
  if (end == TxStatus::kAnswered) return true;
  if (end == TxStatus::kTimedOut) {
    log_.Append(slot_, SessionEventKind::kGiveUp, 0, 0, 0, "connect_budget");
  }
  stats_.gave_up = true;
  return false;
}

void Client::VerifyServerState() {
  Frame query;
  query.type = FrameType::kStateQuery;
  Frame report;
  if (Transaction(query, FrameType::kStateReport, &report) !=
      TxStatus::kAnswered) {
    return;  // audit is best-effort; a dead link surfaces elsewhere
  }
  // The whole point of the absolute-rate resync: after any crash and
  // repair, both ends hold bit-identical contract state.
  if (!report.known || !SameBits(report.rate_bps, granted_bps()) ||
      report.rung != rung()) {
    ++stats_.desyncs;
    log_.Append(slot_, SessionEventKind::kDesync, report.seq, report.rate_bps,
                report.rung,
                report.known ? "state_mismatch" : "unknown_vci");
    obs::Count(options_.recorder, "net.client.desyncs");
  }
}

bool Client::Reconnect() {
  log_.Append(slot_, SessionEventKind::kLinkSuspect, 0, granted_bps(), rung());
  obs::Count(options_.recorder, "net.client.link_suspect");
  stream_.Close();
  connected_ = false;
  signaling::RetryOptions dial = options_.retry;
  dial.max_retries = kMaxReconnects - 1;
  const TxStatus end = signaling::RetryLoop(
      dial, &backoff_rng_,
      [&](std::int64_t attempt) {
        ++stats_.reconnect_attempts;
        if (!DialAndHello(/*resync=*/true)) {
          log_.Append(slot_, SessionEventKind::kReconnectFailed, 0,
                      granted_bps(), rung(),
                      "attempt=" + std::to_string(attempt + 1));
          // A refused dial burns the response deadline too before the
          // next backoff — charge it on the sim axis.
          ChargeSlots(SlotsFor(options_.retry.timeout_s));
          return TxStatus::kTimedOut;
        }
        ++stats_.reconnects;
        ++stats_.resyncs;
        log_.Append(slot_, SessionEventKind::kReconnect, 0, granted_bps(),
                    rung(), "attempt=" + std::to_string(attempt + 1));
        log_.Append(slot_, SessionEventKind::kResync, 0, granted_bps(),
                    rung());
        obs::Count(options_.recorder, "net.client.reconnects");
        // The resync repaired the server from our acknowledged state; the
        // audit proves it (and the chaos gate requires it to stay silent).
        VerifyServerState();
        // An audit that killed the link sends us round again.
        if (!connected_) return TxStatus::kTimedOut;
        contract_.OnRateImposed();
        carry_bits_ = 0;
        return TxStatus::kAnswered;
      },
      [](std::int64_t) { return true; },
      [&](std::int64_t, double backoff) { ChargeSlots(SlotsFor(backoff)); });
  if (end == TxStatus::kAnswered) return true;
  log_.Append(slot_, SessionEventKind::kGiveUp, 0, granted_bps(), rung(),
              "reconnect_budget");
  stats_.gave_up = true;
  return false;
}

Frame Client::Hello(double rate_bps, std::uint32_t rung) const {
  Frame hello;
  hello.type = FrameType::kHello;
  hello.vci = options_.vci;
  hello.rate_bps = rate_bps;
  hello.rung = rung;
  hello.slot_us =
      static_cast<std::uint32_t>(options_.slot_seconds * 1e6 + 0.5);
  hello.slot = static_cast<std::uint32_t>(slot_);
  return hello;
}

Client::TxStatus Client::Delta(double want_bps, std::uint32_t rung,
                               Frame* response) {
  Frame request;
  request.type = FrameType::kDelta;
  request.delta_bps = want_bps - granted_bps();
  request.rung = rung;
  return Transaction(request, FrameType::kGrant, response);
}

void Client::TryUpgrade() {
  Frame response;
  TxStatus status = TxStatus::kAnswered;
  const sim::RungWalk walk =
      contract_.Upgrade([&](std::uint32_t target, double& want) {
        status = Delta(want, target, &response);
        if (status != TxStatus::kAnswered) return sim::RungAnswer::kStopped;
        if (response.type != FrameType::kGrant) {
          return sim::RungAnswer::kDenied;
        }
        want = response.rate_bps;
        return sim::RungAnswer::kGranted;
      });
  if (walk.answer == sim::RungAnswer::kGranted) {
    ++stats_.upgrades;
    log_.Append(slot_, SessionEventKind::kUpgrade, response.seq,
                granted_bps(), rung());
    obs::Count(options_.recorder, "net.client.upgrades");
  } else if (status == TxStatus::kAborted) {
    Reconnect();  // a timeout leaves the probe for the next period
  }
}

void Client::Shutdown() {
  if (!connected_) return;
  Frame bye;
  bye.type = FrameType::kBye;
  Frame ack;
  if (Transaction(bye, FrameType::kByeAck, &ack) == TxStatus::kAnswered) {
    stats_.completed = true;
    log_.Append(slot_, SessionEventKind::kBye, ack.seq, granted_bps(), rung());
    obs::Count(options_.recorder, "net.client.byes");
  }
  stream_.Close();
  connected_ = false;
  session_done_ = true;
}

bool Client::StepSlot() {
  const double arrivals = NextArrivalBits();
  stats_.arrived_bits += arrivals;
  const double before = queue_.occupancy_bits();
  const double lost = queue_.Step(arrivals, granted_bits_per_slot());
  stats_.lost_bits += lost;
  const double drained = before + arrivals - lost - queue_.occupancy_bits();

  // Ship the drained bits as slot-stamped chunks; whole bytes only, the
  // fractional remainder carries to the next slot.
  carry_bits_ += drained;
  std::int64_t nbytes = static_cast<std::int64_t>(carry_bits_ / 8.0);
  carry_bits_ -= static_cast<double>(nbytes) * 8.0;
  while (nbytes > 0 && connected_) {
    const std::size_t chunk =
        static_cast<std::size_t>(std::min(nbytes, kChunkBytes));
    Frame data;
    data.type = FrameType::kData;
    data.slot = static_cast<std::uint32_t>(slot_);
    data.data.assign(chunk, static_cast<std::uint8_t>(slot_ & 0xff));
    if (!SendFrame(data)) break;
    ++stats_.data_frames;
    stats_.sent_bytes += static_cast<std::int64_t>(chunk);
    nbytes -= static_cast<std::int64_t>(chunk);
  }
  obs::Count(options_.recorder, "net.client.slots");

  if (connected_ && !PollIncoming() && !session_done_) {
    if (!Reconnect()) return false;
  }
  if (!connected_ && !Reconnect()) return false;

  const std::optional<double> proposal =
      controller_->Step(arrivals, granted_bits_per_slot());
  if (proposal.has_value() && !drain_requested_) {
    const std::optional<double> want_bps =
        contract_.Ask(*proposal / options_.slot_seconds);
    if (want_bps.has_value()) {
      Frame response;
      const TxStatus status = Delta(*want_bps, rung(), &response);
      if (status == TxStatus::kAnswered &&
          response.type == FrameType::kGrant) {
        contract_.OnGranted(response.rate_bps);
        ++stats_.grants;
        log_.Append(slot_, SessionEventKind::kGrant, response.seq,
                    granted_bps(), rung());
        obs::Count(options_.recorder, "net.client.grants");
      } else if (status == TxStatus::kAnswered) {  // kDeny: definitive answer
        ++stats_.denies;
        log_.Append(slot_, SessionEventKind::kDeny, response.seq,
                    response.rate_bps, response.rung);
        obs::Count(options_.recorder, "net.client.denies");
        contract_.OnRequestDenied();
      } else if (status == TxStatus::kTimedOut) {
        // Budget spent, link standing: hold the last grant.
        ++stats_.holds;
        log_.Append(slot_, SessionEventKind::kHold, 0, granted_bps(), rung());
        contract_.OnRequestDenied();
      } else {
        if (!Reconnect()) return false;
      }
    }
  }

  if (slot_ >= next_heartbeat_slot_ && connected_) {
    while (next_heartbeat_slot_ <= slot_) {
      next_heartbeat_slot_ += kHeartbeatEverySlots;
    }
    Frame hb;
    hb.type = FrameType::kHeartbeat;
    Frame ack;
    const TxStatus status = Transaction(hb, FrameType::kHeartbeatAck, &ack);
    if (status == TxStatus::kAnswered) {
      ++stats_.heartbeats;
    } else if (!Reconnect()) {
      return false;
    }
  }

  if (options_.upgrade_every_slots > 0 && !options_.ladder.empty() &&
      rung() > 0 && !drain_requested_ && connected_ &&
      slot_ >= next_upgrade_slot_) {
    while (next_upgrade_slot_ <= slot_) {
      next_upgrade_slot_ += options_.upgrade_every_slots;
    }
    TryUpgrade();
    if (stats_.gave_up) return false;
  }

  if (drain_requested_ && queue_.occupancy_bits() < 8.0 &&
      carry_bits_ < 8.0) {
    Shutdown();
    return false;
  }

  ++slot_;
  ++stats_.slots;
  return slot_ < options_.slots;
}

bool Client::Run() {
  if (!ConnectSession()) return false;
  while (StepSlot()) {
  }
  if (stats_.gave_up) return false;
  if (!session_done_) {
    // End of the configured session: close out with a final audit, so
    // the run-ending invariant (byte-exact agreement) is on the record.
    if (connected_) VerifyServerState();
    Shutdown();
  }
  return stats_.completed;
}

}  // namespace rcbr::net
