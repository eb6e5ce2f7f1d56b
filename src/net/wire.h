// The RCBR control-channel wire format.
//
// The daemon promotes the in-process signaling vocabulary — delta /
// resync RM cells, grants, rollbacks, rungs (rm_cell.h) — onto a TCP
// byte stream. Every frame is length-prefixed:
//
//   u32 payload_len | payload
//   payload = u8 type | u32 slot | u64 seq | type-specific body
//
// All integers are little-endian fixed-width; rates are IEEE-754
// doubles carried as their u64 bit pattern, so "the client and server
// agree on the granted rate byte-exactly" is checkable with memcmp.
// `slot` is the sender's logical slot clock (the client's slot counter;
// server frames echo the request's slot) — the deterministic time axis
// the impairment proxy keys its fault schedule to. `seq` is a strictly
// increasing per-direction session sequence number; the receiver treats
// a duplicate or stale value as a protocol error. FramedStream, which
// both session ends use, is the one place that stamps and checks it.
//
// The decoder is strict: oversized length prefixes, unknown types,
// short or over-long bodies, and NaN/Inf rate fields are protocol
// errors, never crashes, hangs, or silent accepts. A decoder that has
// reported an error stays in the error state (the connection is dead).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/socket.h"

namespace rcbr::net {

/// Hard ceiling on the payload of one frame (type + slot + seq + body).
/// Control frames are tens of bytes; data frames carry at most one
/// chunk. A length prefix above this is rejected before any allocation.
inline constexpr std::uint32_t kMaxPayloadBytes = 1 << 16;

/// Bytes of the fixed payload header: type (1) + slot (4) + seq (8).
inline constexpr std::uint32_t kPayloadHeaderBytes = 13;

enum class FrameType : std::uint8_t {
  kHello = 1,         // c->s: vci, absolute rate, rung, resync flag, slot_us
  kWelcome = 2,       // s->c: accepted, granted rate, rung
  kDelta = 3,         // c->s: rate difference, rung (RmCell::Delta)
  kResync = 4,        // c->s: absolute rate, rung (RmCell::Resync)
  kGrant = 5,         // s->c: absolute rate after applying, rung
  kDeny = 6,          // s->c: standing rate, rung
  kHeartbeat = 7,     // c->s: liveness probe
  kHeartbeatAck = 8,  // s->c
  kData = 9,          // c->s: metered chunk (opaque bytes)
  kDataAck = 10,      // s->c: cumulative conforming bytes received
  kDrain = 11,        // s->c: hold last grant, drain, then Bye
  kBye = 12,          // c->s: session complete
  kByeAck = 13,       // s->c
  kError = 14,        // either: protocol error, connection is closing
  kStateQuery = 15,   // c->s: report your tracked rate/rung for my vci
  kStateReport = 16,  // s->c: tracked rate bits, rung, known flag
};

/// The stable wire name of a frame type (logs and error strings).
const char* FrameTypeName(FrameType type);

/// Protocol error codes carried by kError frames.
enum class WireError : std::uint32_t {
  kNone = 0,
  kOversizedFrame = 1,   // length prefix above kMaxPayloadBytes
  kTruncatedFrame = 2,   // body shorter than the type requires / EOF mid-frame
  kUnknownType = 3,
  kTrailingBytes = 4,    // body longer than the type defines
  kNonFiniteRate = 5,    // NaN or Inf in a rate field
  kStaleSequence = 6,    // seq <= last seen on this direction
  kBadHandshake = 7,     // first frame was not Hello / Hello after setup
  kNotAdmitted = 8,      // data/delta before a successful Hello
  kRateViolation = 9,    // metering found sustained over-grant sending
  kServerDraining = 10,  // increase refused while draining
};

const char* WireErrorName(WireError code);

/// One decoded frame. Unused fields are zero for a given type.
struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::uint32_t slot = 0;
  std::uint64_t seq = 0;

  std::uint64_t vci = 0;         // kHello
  double rate_bps = 0;           // kHello/kWelcome/kResync/kGrant/kDeny/kStateReport
  double delta_bps = 0;          // kDelta
  std::uint32_t rung = 0;        // kHello/kWelcome/kDelta/kResync/kGrant/kDeny/kStateReport
  bool accepted = false;         // kWelcome
  bool resync = false;           // kHello: reconnect repair, not fresh setup
  bool known = false;            // kStateReport: vci present in the table
  std::uint32_t slot_us = 0;     // kHello: client slot duration, microseconds
  std::uint32_t error_code = 0;  // kError
  std::uint64_t total_bytes = 0; // kDataAck
  std::vector<std::uint8_t> data;  // kData chunk payload
};

/// Appends the canonical encoding of `frame` to `out`. Encoding is
/// total: any Frame with finite rates encodes; the strict checks live in
/// the decoder. Throws InvalidArgument for a kData frame larger than
/// kMaxPayloadBytes.
void EncodeFrame(const Frame& frame, std::vector<std::uint8_t>& out);

/// Convenience: the encoding as a fresh buffer.
std::vector<std::uint8_t> Encode(const Frame& frame);

enum class DecodeStatus : std::uint8_t {
  kFrame,     // one frame decoded
  kNeedMore,  // buffer holds no complete frame yet
  kError,     // protocol error; the decoder is poisoned
};

/// Incremental strict decoder over a TCP byte stream. Feed() appends
/// received bytes; Next() extracts at most one frame per call.
class FrameDecoder {
 public:
  void Feed(const std::uint8_t* bytes, std::size_t n);

  /// Decodes the next complete frame into `out`. On kError the decoder
  /// stays poisoned (`error()` / `error_message()` describe why) and
  /// every later call returns the same error.
  DecodeStatus Next(Frame& out);

  WireError error() const { return error_; }
  const std::string& error_message() const { return error_message_; }

  /// Bytes buffered but not yet consumed (a nonzero value at EOF means
  /// the peer died mid-frame — report kTruncatedFrame).
  std::size_t pending_bytes() const { return buffer_.size() - offset_; }

 private:
  DecodeStatus Fail(WireError code, const std::string& message);

  std::vector<std::uint8_t> buffer_;
  std::size_t offset_ = 0;
  WireError error_ = WireError::kNone;
  std::string error_message_;
};

/// One end of a framed session: the socket, its decoder and the
/// per-direction sequence contract. Outgoing frames are stamped 1, 2, ...
/// in send order; an incoming frame whose seq does not exceed the last
/// accepted one is a replay (WireError::kStaleSequence). A fresh stream
/// starts both counters over.
class FramedStream {
 public:
  FramedStream() = default;
  explicit FramedStream(TcpStream stream) : stream_(std::move(stream)) {}

  int fd() const { return stream_.fd(); }
  void Close() { stream_.Close(); }
  const FrameDecoder& decoder() const { return decoder_; }

  /// Stamps the frames, in place, with the next outgoing seqs and writes
  /// them with one send. False = the connection is dead.
  bool Send(std::span<Frame> frames);

  /// Reads what the socket holds into the decoder, waiting at most
  /// `timeout_ms` for the first byte (TcpStream::RecvSome).
  RecvStatus Fill(int timeout_ms);

  /// The next buffered frame; its seq is unchecked until AcceptSeq.
  DecodeStatus Next(Frame& out) { return decoder_.Next(out); }

  /// True when `frame`'s seq exceeds every seq accepted before, which
  /// it then becomes; false for a duplicate or stale replay.
  bool AcceptSeq(const Frame& frame) {
    if (last_seq_in_ && frame.seq <= *last_seq_in_) return false;
    last_seq_in_ = frame.seq;
    return true;
  }

 private:
  TcpStream stream_;
  FrameDecoder decoder_;
  std::uint64_t next_seq_out_ = 1;
  std::optional<std::uint64_t> last_seq_in_;
};

}  // namespace rcbr::net
