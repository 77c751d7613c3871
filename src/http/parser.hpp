// Incremental HTTP/1.1 message reading. Pure head-parsing functions are
// exposed for property tests; stream readers keep leftover bytes across
// keep-alive requests.
#pragma once

#include <string>

#include "http/message.hpp"
#include "net/tcp.hpp"
#include "util/result.hpp"

namespace bifrost::http {

/// Hard limits; messages beyond these are rejected as malformed.
constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
constexpr std::size_t kMaxBodyBytes = 16 * 1024 * 1024;

/// Parses a request head (start line + headers, no body) from the bytes
/// up to and including the blank line.
util::Result<Request> parse_request_head(std::string_view head);

/// Parses a response head.
util::Result<Response> parse_response_head(std::string_view head);

/// Carry-over buffer for pipelined/keep-alive connections.
struct ReadBuffer {
  std::string data;
};

/// Non-blocking incremental request extraction for event-driven servers:
/// given whatever bytes have arrived so far, either a complete request
/// (head + body) is available, more bytes are needed, or the prefix is
/// malformed. Pure — never reads from a socket.
struct IncrementalParse {
  enum class Status { kNeedMore, kDone, kError };
  Status status = Status::kNeedMore;
  Request request;           ///< valid when kDone
  std::size_t consumed = 0;  ///< bytes of input to erase when kDone
  std::string error;         ///< set when kError
};

/// Attempts to extract one full request from the front of `input`.
/// Handles Content-Length and chunked bodies and enforces the same
/// header/body limits as the blocking readers. Torn inputs (head or
/// body split at any byte boundary) return kNeedMore until the missing
/// bytes arrive.
IncrementalParse try_parse_request(std::string_view input);

/// Incremental counterpart of read_response, for event-driven clients.
struct IncrementalResponse {
  IncrementalParse::Status status = IncrementalParse::Status::kNeedMore;
  Response response;         ///< valid when kDone
  std::size_t consumed = 0;  ///< bytes of input to erase when kDone
  std::string error;         ///< set when kError
};

/// Attempts to extract one full response from the front of `input`:
/// Content-Length, chunked, or (with neither header) a body delimited by
/// EOF, which is complete only once `at_eof` says the peer closed the
/// connection. With `at_eof`, a message still incomplete is an error.
/// Same limits as try_parse_request.
IncrementalResponse try_parse_response(std::string_view input, bool at_eof);

/// Reads one full request (head + body) from the stream.
/// An empty Result error of "connection closed" means orderly EOF
/// between requests (normal for keep-alive).
util::Result<Request> read_request(net::TcpStream& stream, ReadBuffer& buf);

/// Reads one full response (head + body; Content-Length or chunked).
util::Result<Response> read_response(net::TcpStream& stream, ReadBuffer& buf);

}  // namespace bifrost::http
