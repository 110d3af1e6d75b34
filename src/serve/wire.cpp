#include "serve/wire.h"
#include <algorithm>

#include <cstring>
#include <stdexcept>

namespace mrts::serve {

namespace {

/// Little-endian field helpers over raw frame bytes.
std::uint16_t read_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Shared tail of every payload decoder: decode via \p fn, require that the
/// reader consumed the payload exactly, and map any SnapshotError (truncated
/// field, implausible string length) to a clean false.
template <typename Fn>
bool decode_payload(const Frame& f, Fn&& fn) {
  SnapshotReader r(f.payload.data(), f.payload.size());
  try {
    fn(r);
    r.expect_end();
  } catch (const SnapshotError&) {
    return false;
  }
  return true;
}

/// Strings inside frames are length-prefixed; cap them at the payload
/// ceiling so a corrupt length fails fast instead of allocating.
std::string read_string(SnapshotReader& r) {
  return r.str();  // SnapshotReader::str() is bounds-checked already
}

}  // namespace

bool frame_type_known(std::uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kHello:
    case FrameType::kHelloOk:
    case FrameType::kSubmit:
    case FrameType::kSubmitOk:
    case FrameType::kPoll:
    case FrameType::kJobStatus:
    case FrameType::kCancel:
    case FrameType::kCancelOk:
    case FrameType::kDisconnect:
    case FrameType::kBye:
    case FrameType::kError:
      return true;
  }
  return false;
}

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kHelloOk: return "HELLO_OK";
    case FrameType::kSubmit: return "SUBMIT";
    case FrameType::kSubmitOk: return "SUBMIT_OK";
    case FrameType::kPoll: return "POLL";
    case FrameType::kJobStatus: return "JOB_STATUS";
    case FrameType::kCancel: return "CANCEL";
    case FrameType::kCancelOk: return "CANCEL_OK";
    case FrameType::kDisconnect: return "DISCONNECT";
    case FrameType::kBye: return "BYE";
    case FrameType::kError: return "ERROR";
  }
  return "?";
}

const char* to_string(WireError code) {
  switch (code) {
    case WireError::kNone: return "none";
    case WireError::kBadMagic: return "bad-magic";
    case WireError::kBadVersion: return "bad-version";
    case WireError::kBadLength: return "bad-length";
    case WireError::kBadCrc: return "bad-crc";
    case WireError::kBadPayload: return "bad-payload";
    case WireError::kUnknownType: return "unknown-type";
    case WireError::kProtocolState: return "protocol-state";
    case WireError::kUnknownJob: return "unknown-job";
    case WireError::kForeignJob: return "foreign-job";
    case WireError::kBadSpec: return "bad-spec";
    case WireError::kQueueFull: return "queue-full";
    case WireError::kShuttingDown: return "shutting-down";
  }
  return "?";
}

bool wire_error_fatal(WireError code) {
  switch (code) {
    case WireError::kBadMagic:
    case WireError::kBadVersion:
    case WireError::kBadLength:
    case WireError::kBadCrc:
      return true;
    default:
      return false;
  }
}

const char* to_string(WireJobState state) {
  switch (state) {
    case WireJobState::kQueued: return "queued";
    case WireJobState::kRunning: return "running";
    case WireJobState::kDone: return "done";
    case WireJobState::kBounced: return "bounced";
    case WireJobState::kCancelled: return "cancelled";
  }
  return "?";
}

std::uint32_t frame_crc(const std::uint8_t* frame, std::size_t payload_len) {
  // Coverage: header bytes [4, 12) plus the payload — two regions split by
  // the CRC field itself, joined into one buffer for the one-shot
  // snapshot_crc32 (frames are small; kMaxPayload bounds the copy).
  std::vector<std::uint8_t> covered;
  covered.reserve(8 + payload_len);
  covered.insert(covered.end(), frame + 4, frame + 12);
  covered.insert(covered.end(), frame + kFrameHeaderSize,
                 frame + kFrameHeaderSize + payload_len);
  return snapshot_crc32(covered.data(), covered.size());
}

std::vector<std::uint8_t> encode_frame(
    FrameType type, const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxPayload) {
    throw std::invalid_argument("mrts.wire.v1 payload exceeds kMaxPayload");
  }
  std::vector<std::uint8_t> frame(kFrameHeaderSize + payload.size(), 0);
  for (std::size_t i = 0; i < 4; ++i) frame[i] = kWireMagic[i];
  frame[4] = static_cast<std::uint8_t>(kWireVersion & 0xFF);
  frame[5] = static_cast<std::uint8_t>(kWireVersion >> 8);
  frame[6] = static_cast<std::uint8_t>(type);
  frame[7] = 0;  // flags
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  for (std::size_t i = 0; i < 4; ++i) {
    frame[8 + i] = static_cast<std::uint8_t>(n >> (8 * i));
  }
  // Bytes 12..15 stay 0 until the CRC is patched in below.
  std::copy(payload.begin(), payload.end(), frame.begin() + kFrameHeaderSize);
  const std::uint32_t crc = frame_crc(frame.data(), payload.size());
  for (int i = 0; i < 4; ++i) {
    frame[12 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
  return frame;
}

// --- encoders --------------------------------------------------------------

std::vector<std::uint8_t> encode(const HelloFrame& f) {
  SnapshotWriter w;
  w.u8(static_cast<std::uint8_t>(f.client_version & 0xFF));
  w.u8(static_cast<std::uint8_t>(f.client_version >> 8));
  w.str(f.client_name);
  return encode_frame(FrameType::kHello, w.take());
}

std::vector<std::uint8_t> encode(const HelloOkFrame& f) {
  SnapshotWriter w;
  w.u8(static_cast<std::uint8_t>(f.server_version & 0xFF));
  w.u8(static_cast<std::uint8_t>(f.server_version >> 8));
  w.u32(f.session_id);
  w.u32(f.prcs);
  w.u32(f.cg);
  w.u32(f.job_classes);
  w.str(f.banner);
  return encode_frame(FrameType::kHelloOk, w.take());
}

std::vector<std::uint8_t> encode(const SubmitFrame& f) {
  SnapshotWriter w;
  w.str(f.name);
  w.u8(f.share);
  w.u32(f.weight);
  w.u32(f.reserved_prcs);
  w.u32(f.reserved_cg);
  w.u32(f.priority);
  w.u32(f.job_class);
  w.u32(f.blocks);
  w.u64(f.seed);
  return encode_frame(FrameType::kSubmit, w.take());
}

std::vector<std::uint8_t> encode(const SubmitOkFrame& f) {
  SnapshotWriter w;
  w.u64(f.job_id);
  w.u32(f.tenant);
  w.u8(f.admitted);
  w.str(f.bounce_reason);
  return encode_frame(FrameType::kSubmitOk, w.take());
}

std::vector<std::uint8_t> encode(const PollFrame& f) {
  SnapshotWriter w;
  w.u64(f.job_id);
  return encode_frame(FrameType::kPoll, w.take());
}

std::vector<std::uint8_t> encode(const JobStatusFrame& f) {
  SnapshotWriter w;
  w.u64(f.job_id);
  w.u8(f.state);
  w.u64(f.queue_position);
  w.u64(f.admitted_at);
  w.u64(f.finished_at);
  w.u64(f.latency_cycles);
  w.u8(f.report_included);
  w.str(f.report_json);
  w.str(f.counters_delta);
  w.str(f.reason);
  return encode_frame(FrameType::kJobStatus, w.take());
}

std::vector<std::uint8_t> encode(const CancelFrame& f) {
  SnapshotWriter w;
  w.u64(f.job_id);
  return encode_frame(FrameType::kCancel, w.take());
}

std::vector<std::uint8_t> encode(const CancelOkFrame& f) {
  SnapshotWriter w;
  w.u64(f.job_id);
  w.u8(f.cancelled);
  return encode_frame(FrameType::kCancelOk, w.take());
}

std::vector<std::uint8_t> encode(const DisconnectFrame&) {
  return encode_frame(FrameType::kDisconnect, {});
}

std::vector<std::uint8_t> encode(const ByeFrame& f) {
  SnapshotWriter w;
  w.u64(f.jobs_submitted);
  w.u64(f.jobs_auto_cancelled);
  return encode_frame(FrameType::kBye, w.take());
}

std::vector<std::uint8_t> encode(const ErrorFrame& f) {
  SnapshotWriter w;
  w.u8(static_cast<std::uint8_t>(f.code & 0xFF));
  w.u8(static_cast<std::uint8_t>(f.code >> 8));
  w.u8(f.fatal);
  w.str(f.detail);
  return encode_frame(FrameType::kError, w.take());
}

// --- payload decoders ------------------------------------------------------

bool decode(const Frame& f, HelloFrame* out) {
  if (f.type != static_cast<std::uint8_t>(FrameType::kHello)) return false;
  return decode_payload(f, [out](SnapshotReader& r) {
    const std::uint8_t lo = r.u8();
    const std::uint8_t hi = r.u8();
    out->client_version = static_cast<std::uint16_t>(lo | (hi << 8));
    out->client_name = read_string(r);
  });
}

bool decode(const Frame& f, HelloOkFrame* out) {
  if (f.type != static_cast<std::uint8_t>(FrameType::kHelloOk)) return false;
  return decode_payload(f, [out](SnapshotReader& r) {
    const std::uint8_t lo = r.u8();
    const std::uint8_t hi = r.u8();
    out->server_version = static_cast<std::uint16_t>(lo | (hi << 8));
    out->session_id = r.u32();
    out->prcs = r.u32();
    out->cg = r.u32();
    out->job_classes = r.u32();
    out->banner = read_string(r);
  });
}

bool decode(const Frame& f, SubmitFrame* out) {
  if (f.type != static_cast<std::uint8_t>(FrameType::kSubmit)) return false;
  if (!decode_payload(f, [out](SnapshotReader& r) {
        out->name = read_string(r);
        out->share = r.u8();
        out->weight = r.u32();
        out->reserved_prcs = r.u32();
        out->reserved_cg = r.u32();
        out->priority = r.u32();
        out->job_class = r.u32();
        out->blocks = r.u32();
        out->seed = r.u64();
      })) {
    return false;
  }
  return out->share <= static_cast<std::uint8_t>(WireShare::kBestEffort);
}

bool decode(const Frame& f, SubmitOkFrame* out) {
  if (f.type != static_cast<std::uint8_t>(FrameType::kSubmitOk)) return false;
  if (!decode_payload(f, [out](SnapshotReader& r) {
        out->job_id = r.u64();
        out->tenant = r.u32();
        out->admitted = r.u8();
        out->bounce_reason = read_string(r);
      })) {
    return false;
  }
  return out->admitted <= 1;
}

bool decode(const Frame& f, PollFrame* out) {
  if (f.type != static_cast<std::uint8_t>(FrameType::kPoll)) return false;
  return decode_payload(f, [out](SnapshotReader& r) { out->job_id = r.u64(); });
}

bool decode(const Frame& f, JobStatusFrame* out) {
  if (f.type != static_cast<std::uint8_t>(FrameType::kJobStatus)) return false;
  if (!decode_payload(f, [out](SnapshotReader& r) {
        out->job_id = r.u64();
        out->state = r.u8();
        out->queue_position = r.u64();
        out->admitted_at = r.u64();
        out->finished_at = r.u64();
        out->latency_cycles = r.u64();
        out->report_included = r.u8();
        out->report_json = read_string(r);
        out->counters_delta = read_string(r);
        out->reason = read_string(r);
      })) {
    return false;
  }
  return out->state <= static_cast<std::uint8_t>(WireJobState::kCancelled) &&
         out->report_included <= 1;
}

bool decode(const Frame& f, CancelFrame* out) {
  if (f.type != static_cast<std::uint8_t>(FrameType::kCancel)) return false;
  return decode_payload(f, [out](SnapshotReader& r) { out->job_id = r.u64(); });
}

bool decode(const Frame& f, CancelOkFrame* out) {
  if (f.type != static_cast<std::uint8_t>(FrameType::kCancelOk)) return false;
  if (!decode_payload(f, [out](SnapshotReader& r) {
        out->job_id = r.u64();
        out->cancelled = r.u8();
      })) {
    return false;
  }
  return out->cancelled <= 1;
}

bool decode(const Frame& f, DisconnectFrame* out) {
  (void)out;
  return f.type == static_cast<std::uint8_t>(FrameType::kDisconnect) &&
         f.payload.empty();
}

bool decode(const Frame& f, ByeFrame* out) {
  if (f.type != static_cast<std::uint8_t>(FrameType::kBye)) return false;
  return decode_payload(f, [out](SnapshotReader& r) {
    out->jobs_submitted = r.u64();
    out->jobs_auto_cancelled = r.u64();
  });
}

bool decode(const Frame& f, ErrorFrame* out) {
  if (f.type != static_cast<std::uint8_t>(FrameType::kError)) return false;
  if (!decode_payload(f, [out](SnapshotReader& r) {
        const std::uint8_t lo = r.u8();
        const std::uint8_t hi = r.u8();
        out->code = static_cast<std::uint16_t>(lo | (hi << 8));
        out->fatal = r.u8();
        out->detail = read_string(r);
      })) {
    return false;
  }
  return out->fatal <= 1;
}

// --- incremental decoder ---------------------------------------------------

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  if (poisoned()) return;  // a poisoned stream is never re-interpreted
  // Compact lazily: drop consumed bytes before appending once they dominate
  // the buffer, keeping feed() amortized O(n) over a whole session.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

FrameDecoder::Result FrameDecoder::next(Frame* out) {
  if (poisoned()) return Result::kError;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderSize) return Result::kNeedMore;
  const std::uint8_t* h = buffer_.data() + consumed_;
  if (std::memcmp(h, kWireMagic, 4) != 0) {
    error_ = WireError::kBadMagic;
    return Result::kError;
  }
  const std::uint16_t version = read_u16(h + 4);
  if (version != kWireVersion) {
    error_ = WireError::kBadVersion;
    return Result::kError;
  }
  const std::uint32_t length = read_u32(h + 8);
  if (length > kMaxPayload) {
    error_ = WireError::kBadLength;
    return Result::kError;
  }
  if (avail < kFrameHeaderSize + length) return Result::kNeedMore;
  const std::uint32_t stated = read_u32(h + 12);
  if (stated != frame_crc(h, length)) {
    error_ = WireError::kBadCrc;
    return Result::kError;
  }
  out->type = h[6];
  out->payload.assign(h + kFrameHeaderSize, h + kFrameHeaderSize + length);
  consumed_ += kFrameHeaderSize + length;
  return Result::kFrame;
}

}  // namespace mrts::serve
