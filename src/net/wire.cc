#include "net/wire.h"

#include <cmath>
#include <cstring>

#include "util/error.h"

namespace rcbr::net {

namespace {

void PutU8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  PutU32(out, static_cast<std::uint32_t>(v));
  PutU32(out, static_cast<std::uint32_t>(v >> 32));
}

void PutF64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// Sequential reader over one frame's body with bounds accounting.
class Reader {
 public:
  Reader(const std::uint8_t* p, std::size_t n) : p_(p), n_(n) {}

  bool U8(std::uint8_t& v) {
    if (i_ + 1 > n_) return false;
    v = p_[i_++];
    return true;
  }
  bool U32(std::uint32_t& v) {
    if (i_ + 4 > n_) return false;
    v = static_cast<std::uint32_t>(p_[i_]) |
        static_cast<std::uint32_t>(p_[i_ + 1]) << 8 |
        static_cast<std::uint32_t>(p_[i_ + 2]) << 16 |
        static_cast<std::uint32_t>(p_[i_ + 3]) << 24;
    i_ += 4;
    return true;
  }
  bool U64(std::uint64_t& v) {
    std::uint32_t lo = 0, hi = 0;
    if (!U32(lo) || !U32(hi)) return false;
    v = static_cast<std::uint64_t>(lo) |
        static_cast<std::uint64_t>(hi) << 32;
    return true;
  }
  bool F64(double& v) {
    std::uint64_t bits = 0;
    if (!U64(bits)) return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
  }
  bool Bytes(std::vector<std::uint8_t>& out, std::size_t count) {
    if (i_ + count > n_) return false;
    out.assign(p_ + i_, p_ + i_ + count);
    i_ += count;
    return true;
  }
  std::size_t remaining() const { return n_ - i_; }

 private:
  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t i_ = 0;
};

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kWelcome: return "welcome";
    case FrameType::kDelta: return "delta";
    case FrameType::kResync: return "resync";
    case FrameType::kGrant: return "grant";
    case FrameType::kDeny: return "deny";
    case FrameType::kHeartbeat: return "heartbeat";
    case FrameType::kHeartbeatAck: return "heartbeat_ack";
    case FrameType::kData: return "data";
    case FrameType::kDataAck: return "data_ack";
    case FrameType::kDrain: return "drain";
    case FrameType::kBye: return "bye";
    case FrameType::kByeAck: return "bye_ack";
    case FrameType::kError: return "error";
    case FrameType::kStateQuery: return "state_query";
    case FrameType::kStateReport: return "state_report";
  }
  return "unknown";
}

const char* WireErrorName(WireError code) {
  switch (code) {
    case WireError::kNone: return "none";
    case WireError::kOversizedFrame: return "oversized_frame";
    case WireError::kTruncatedFrame: return "truncated_frame";
    case WireError::kUnknownType: return "unknown_type";
    case WireError::kTrailingBytes: return "trailing_bytes";
    case WireError::kNonFiniteRate: return "non_finite_rate";
    case WireError::kStaleSequence: return "stale_sequence";
    case WireError::kBadHandshake: return "bad_handshake";
    case WireError::kNotAdmitted: return "not_admitted";
    case WireError::kRateViolation: return "rate_violation";
    case WireError::kServerDraining: return "server_draining";
  }
  return "unknown";
}

void EncodeFrame(const Frame& frame, std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  PutU32(out, 0);  // patched below
  PutU8(out, static_cast<std::uint8_t>(frame.type));
  PutU32(out, frame.slot);
  PutU64(out, frame.seq);
  switch (frame.type) {
    case FrameType::kHello:
      PutU64(out, frame.vci);
      PutF64(out, frame.rate_bps);
      PutU32(out, frame.rung);
      PutU8(out, frame.resync ? 1 : 0);
      PutU32(out, frame.slot_us);
      break;
    case FrameType::kWelcome:
      PutU8(out, frame.accepted ? 1 : 0);
      PutF64(out, frame.rate_bps);
      PutU32(out, frame.rung);
      break;
    case FrameType::kDelta:
      PutF64(out, frame.delta_bps);
      PutU32(out, frame.rung);
      break;
    case FrameType::kResync:
    case FrameType::kGrant:
    case FrameType::kDeny:
      PutF64(out, frame.rate_bps);
      PutU32(out, frame.rung);
      break;
    case FrameType::kHeartbeat:
    case FrameType::kHeartbeatAck:
    case FrameType::kDrain:
    case FrameType::kBye:
    case FrameType::kByeAck:
    case FrameType::kStateQuery:
      break;
    case FrameType::kData:
      Require(frame.data.size() + kPayloadHeaderBytes + 4 <= kMaxPayloadBytes,
              "EncodeFrame: data chunk exceeds the frame ceiling");
      PutU32(out, static_cast<std::uint32_t>(frame.data.size()));
      out.insert(out.end(), frame.data.begin(), frame.data.end());
      break;
    case FrameType::kDataAck:
      PutU64(out, frame.total_bytes);
      break;
    case FrameType::kError:
      PutU32(out, frame.error_code);
      break;
    case FrameType::kStateReport:
      PutF64(out, frame.rate_bps);
      PutU32(out, frame.rung);
      PutU8(out, frame.known ? 1 : 0);
      break;
  }
  const std::uint32_t payload_len =
      static_cast<std::uint32_t>(out.size() - start - 4);
  out[start] = static_cast<std::uint8_t>(payload_len);
  out[start + 1] = static_cast<std::uint8_t>(payload_len >> 8);
  out[start + 2] = static_cast<std::uint8_t>(payload_len >> 16);
  out[start + 3] = static_cast<std::uint8_t>(payload_len >> 24);
}

std::vector<std::uint8_t> Encode(const Frame& frame) {
  std::vector<std::uint8_t> out;
  EncodeFrame(frame, out);
  return out;
}

void FrameDecoder::Feed(const std::uint8_t* bytes, std::size_t n) {
  if (error_ != WireError::kNone) return;  // poisoned: drop input
  // Compact once consumed bytes dominate, so the buffer stays bounded.
  if (offset_ > 0 && offset_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(offset_));
    offset_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes, bytes + n);
}

DecodeStatus FrameDecoder::Fail(WireError code, const std::string& message) {
  error_ = code;
  error_message_ = message;
  buffer_.clear();
  offset_ = 0;
  return DecodeStatus::kError;
}

DecodeStatus FrameDecoder::Next(Frame& out) {
  if (error_ != WireError::kNone) return DecodeStatus::kError;
  const std::size_t avail = buffer_.size() - offset_;
  if (avail < 4) return DecodeStatus::kNeedMore;
  const std::uint8_t* p = buffer_.data() + offset_;
  const std::uint32_t payload_len =
      static_cast<std::uint32_t>(p[0]) |
      static_cast<std::uint32_t>(p[1]) << 8 |
      static_cast<std::uint32_t>(p[2]) << 16 |
      static_cast<std::uint32_t>(p[3]) << 24;
  if (payload_len > kMaxPayloadBytes) {
    return Fail(WireError::kOversizedFrame,
                "length prefix " + std::to_string(payload_len) +
                    " exceeds the ceiling of " +
                    std::to_string(kMaxPayloadBytes));
  }
  if (payload_len < kPayloadHeaderBytes) {
    return Fail(WireError::kTruncatedFrame,
                "payload of " + std::to_string(payload_len) +
                    " bytes cannot hold the frame header");
  }
  if (avail < 4u + payload_len) return DecodeStatus::kNeedMore;

  Reader r(p + 4, payload_len);
  out = Frame{};
  std::uint8_t type_byte = 0;
  r.U8(type_byte);
  r.U32(out.slot);
  r.U64(out.seq);
  const FrameType type = static_cast<FrameType>(type_byte);
  out.type = type;

  bool ok = true;
  bool check_rate = false;
  std::uint8_t flag = 0;
  switch (type) {
    case FrameType::kHello:
      ok = r.U64(out.vci) && r.F64(out.rate_bps) && r.U32(out.rung) &&
           r.U8(flag) && r.U32(out.slot_us);
      out.resync = flag != 0;
      check_rate = true;
      break;
    case FrameType::kWelcome:
      ok = r.U8(flag) && r.F64(out.rate_bps) && r.U32(out.rung);
      out.accepted = flag != 0;
      check_rate = true;
      break;
    case FrameType::kDelta:
      ok = r.F64(out.delta_bps) && r.U32(out.rung);
      if (ok && !std::isfinite(out.delta_bps)) {
        return Fail(WireError::kNonFiniteRate,
                    "delta frame carries a non-finite rate difference");
      }
      break;
    case FrameType::kResync:
    case FrameType::kGrant:
    case FrameType::kDeny:
      ok = r.F64(out.rate_bps) && r.U32(out.rung);
      check_rate = true;
      break;
    case FrameType::kHeartbeat:
    case FrameType::kHeartbeatAck:
    case FrameType::kDrain:
    case FrameType::kBye:
    case FrameType::kByeAck:
    case FrameType::kStateQuery:
      break;
    case FrameType::kData: {
      std::uint32_t n = 0;
      ok = r.U32(n) && n == r.remaining() && r.Bytes(out.data, n);
      break;
    }
    case FrameType::kDataAck:
      ok = r.U64(out.total_bytes);
      break;
    case FrameType::kError:
      ok = r.U32(out.error_code);
      break;
    case FrameType::kStateReport:
      ok = r.F64(out.rate_bps) && r.U32(out.rung) && r.U8(flag);
      out.known = flag != 0;
      check_rate = true;
      break;
    default:
      return Fail(WireError::kUnknownType,
                  "unknown frame type " + std::to_string(type_byte));
  }
  if (!ok) {
    return Fail(WireError::kTruncatedFrame,
                std::string("body of ") + FrameTypeName(type) +
                    " frame is shorter than its fixed layout");
  }
  if (r.remaining() != 0) {
    return Fail(WireError::kTrailingBytes,
                std::string(FrameTypeName(type)) + " frame carries " +
                    std::to_string(r.remaining()) + " trailing bytes");
  }
  if (check_rate && !std::isfinite(out.rate_bps)) {
    return Fail(WireError::kNonFiniteRate,
                std::string(FrameTypeName(type)) +
                    " frame carries a non-finite rate");
  }
  offset_ += 4u + payload_len;
  if (offset_ == buffer_.size()) {
    buffer_.clear();
    offset_ = 0;
  }
  return DecodeStatus::kFrame;
}

bool FramedStream::Send(std::span<Frame> frames) {
  std::vector<std::uint8_t> bytes;
  for (Frame& frame : frames) {
    frame.seq = next_seq_out_++;
    EncodeFrame(frame, bytes);
  }
  return stream_.SendAll(bytes.data(), bytes.size());
}

RecvStatus FramedStream::Fill(int timeout_ms) {
  std::uint8_t buf[4096];
  const RecvResult r = stream_.RecvSome(buf, sizeof(buf), timeout_ms);
  if (r.status == RecvStatus::kData) decoder_.Feed(buf, r.bytes);
  return r.status;
}

}  // namespace rcbr::net
