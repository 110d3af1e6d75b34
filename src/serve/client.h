#pragma once
/// \file client.h
/// Client: a small blocking mrts.wire.v1 client over AF_UNIX, used by
/// `mrts_loadgen` and perfbench's `serve_open_loop` (and a worked example
/// of writing a client from docs/PROTOCOL.md alone). One request frame out,
/// one response frame back; an ERROR response surfaces through
/// last_error() and a false return.

#include <cstdint>
#include <string>

#include "serve/wire.h"

namespace mrts::serve {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to the server's AF_UNIX socket; retries briefly while the
  /// server is still starting up. False (with \p err) on failure.
  bool connect_to(const std::string& socket_path, std::string* err);
  bool connected() const { return fd_ >= 0; }
  /// Drops the connection without DISCONNECT (simulates a crashed client).
  void close_now();

  bool hello(HelloOkFrame* out, std::string* err);
  bool submit(const SubmitFrame& spec, SubmitOkFrame* out, std::string* err);
  bool poll_job(std::uint64_t job_id, JobStatusFrame* out, std::string* err);
  /// Polls until the job leaves the queue (done/bounced/cancelled).
  bool poll_until_final(std::uint64_t job_id, JobStatusFrame* out,
                        std::string* err);
  bool cancel(std::uint64_t job_id, CancelOkFrame* out, std::string* err);
  /// DISCONNECT/BYE exchange; closes the socket either way.
  bool disconnect(ByeFrame* out, std::string* err);

  /// The most recent ERROR frame the server answered with (code kNone when
  /// no request ever failed with a protocol error).
  const ErrorFrame& last_error() const { return last_error_; }

 private:
  /// Sends \p frame and reads one response. True when the response has
  /// type \p expect; an ERROR response lands in last_error_.
  bool request(const std::vector<std::uint8_t>& frame, FrameType expect,
               Frame* response, std::string* err);

  int fd_ = -1;
  FrameDecoder decoder_;
  ErrorFrame last_error_;
};

}  // namespace mrts::serve
