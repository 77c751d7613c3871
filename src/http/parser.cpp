#include "http/parser.hpp"

#include <cctype>

#include "util/strings.hpp"

namespace bifrost::http {
namespace {

bool valid_token(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u) == 0 && std::string_view("!#$%&'*+-.^_`|~").find(c) ==
                                    std::string_view::npos) {
      return false;
    }
  }
  return true;
}

util::Result<void> parse_header_lines(std::string_view text,
                                      HeaderMap& headers) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return util::Result<void>::error("malformed header line");
    }
    const std::string_view name = line.substr(0, colon);
    if (!valid_token(name)) {
      return util::Result<void>::error("invalid header name");
    }
    headers.append(std::string(name),
                   std::string(util::trim(line.substr(colon + 1))));
  }
  return {};
}

}  // namespace

util::Result<Request> parse_request_head(std::string_view head) {
  const size_t eol = head.find("\r\n");
  if (eol == std::string_view::npos) {
    return util::Result<Request>::error("missing request line terminator");
  }
  const std::string_view line = head.substr(0, eol);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) {
    return util::Result<Request>::error("malformed request line");
  }
  Request req;
  req.method = std::string(line.substr(0, sp1));
  req.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  req.version = std::string(line.substr(sp2 + 1));
  if (!valid_token(req.method)) {
    return util::Result<Request>::error("invalid method token");
  }
  if (req.target.empty() || req.target.find(' ') != std::string::npos) {
    return util::Result<Request>::error("invalid request target");
  }
  if (req.version != "HTTP/1.1" && req.version != "HTTP/1.0") {
    return util::Result<Request>::error("unsupported HTTP version");
  }
  if (auto r = parse_header_lines(head.substr(eol + 2), req.headers); !r) {
    return util::Result<Request>::error(r.error_message());
  }
  return req;
}

util::Result<Response> parse_response_head(std::string_view head) {
  const size_t eol = head.find("\r\n");
  if (eol == std::string_view::npos) {
    return util::Result<Response>::error("missing status line terminator");
  }
  const std::string_view line = head.substr(0, eol);
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) {
    return util::Result<Response>::error("malformed status line");
  }
  Response res;
  res.version = std::string(line.substr(0, sp1));
  if (res.version != "HTTP/1.1" && res.version != "HTTP/1.0") {
    return util::Result<Response>::error("unsupported HTTP version");
  }
  const std::string_view rest = line.substr(sp1 + 1);
  const size_t sp2 = rest.find(' ');
  const std::string_view code =
      sp2 == std::string_view::npos ? rest : rest.substr(0, sp2);
  const auto status = util::parse_int(code);
  if (!status || *status < 100 || *status > 599) {
    return util::Result<Response>::error("invalid status code");
  }
  res.status = static_cast<int>(*status);
  if (auto r = parse_header_lines(head.substr(eol + 2), res.headers); !r) {
    return util::Result<Response>::error(r.error_message());
  }
  return res;
}

namespace {

util::Result<std::size_t> parse_chunk_size(std::string_view size_line) {
  const std::string_view hex =
      size_line.substr(0, size_line.find(';'));  // ignore extensions
  if (hex.empty()) {
    return util::Result<std::size_t>::error("empty chunk size");
  }
  std::size_t value = 0;
  for (const char c : hex) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isxdigit(u) == 0) {
      return util::Result<std::size_t>::error("invalid chunk size");
    }
    value = value * 16 +
            static_cast<std::size_t>(std::isdigit(u) != 0
                                         ? c - '0'
                                         : std::tolower(u) - 'a' + 10);
  }
  return value;
}

}  // namespace

namespace {

/// Where a message's body ends in a buffer that starts with its head.
struct BodyFrame {
  IncrementalParse::Status status = IncrementalParse::Status::kNeedMore;
  std::string body;
  std::size_t end = 0;  ///< one past the last byte of the message
  std::string error;
};

/// Frames the body that starts at `pos` by the headers: chunked,
/// Content-Length, running to EOF (`to_eof`: responses without either;
/// complete once `at_eof`), or none. Same limits as the stream readers.
BodyFrame frame_body(std::string_view input, std::size_t pos,
                     const HeaderMap& headers, bool to_eof, bool at_eof) {
  BodyFrame frame;
  const auto fail = [&frame](std::string why) {
    frame.status = IncrementalParse::Status::kError;
    frame.error = std::move(why);
    return frame;
  };
  const auto done = [&frame](std::size_t end) {
    frame.status = IncrementalParse::Status::kDone;
    frame.end = end;
    return frame;
  };

  const auto transfer = headers.get("Transfer-Encoding");
  if (transfer && util::iequals(*transfer, "chunked")) {
    while (true) {
      const std::size_t eol = input.find("\r\n", pos);
      if (eol == std::string_view::npos) {
        if (input.size() - pos > 32) return fail("invalid chunk size");
        return frame;  // kNeedMore: chunk-size line still arriving
      }
      auto chunk_len = parse_chunk_size(input.substr(pos, eol - pos));
      if (!chunk_len.ok()) return fail(chunk_len.error_message());
      const std::size_t len = chunk_len.value();
      if (frame.body.size() + len > kMaxBodyBytes) {
        return fail("body too large");
      }
      const std::size_t data_start = eol + 2;
      // Chunk data plus its trailing CRLF must be fully buffered.
      if (input.size() < data_start + len + 2) return frame;
      if (input.substr(data_start + len, 2) != "\r\n") {
        return fail("missing chunk terminator");
      }
      if (len == 0) {
        return done(data_start + 2);  // no trailers (peers never send them)
      }
      frame.body.append(input.substr(data_start, len));
      pos = data_start + len + 2;
    }
  }

  if (const auto length_header = headers.get("Content-Length")) {
    const auto length = util::parse_int(*length_header);
    if (!length || *length < 0) return fail("invalid Content-Length");
    const auto len = static_cast<std::size_t>(*length);
    if (len > kMaxBodyBytes) return fail("body too large");
    if (input.size() - pos < len) return frame;  // kNeedMore
    frame.body = std::string(input.substr(pos, len));
    return done(pos + len);
  }

  if (to_eof) {
    if (input.size() - pos > kMaxBodyBytes) return fail("body too large");
    if (!at_eof) return frame;  // kNeedMore until the peer closes
    frame.body = std::string(input.substr(pos));
    return done(input.size());
  }
  return done(pos);
}

/// Finds the head at the front of `input`: its length through the blank
/// line, 0 while it is still arriving, or an error past the header limit.
util::Result<std::size_t> find_head(std::string_view input) {
  const std::size_t head_end = input.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (input.size() > kMaxHeaderBytes) {
      return util::Result<std::size_t>::error("header too large");
    }
    return std::size_t{0};
  }
  if (head_end + 4 > kMaxHeaderBytes) {
    return util::Result<std::size_t>::error("header too large");
  }
  return head_end + 4;
}

}  // namespace

IncrementalParse try_parse_request(std::string_view input) {
  IncrementalParse result;
  const auto fail = [&result](std::string why) {
    result.status = IncrementalParse::Status::kError;
    result.error = std::move(why);
    return result;
  };

  const auto head_size = find_head(input);
  if (!head_size.ok()) return fail(head_size.error_message());
  if (head_size.value() == 0) return result;  // kNeedMore
  auto head = parse_request_head(input.substr(0, head_size.value()));
  if (!head.ok()) return fail(head.error_message());
  Request request = std::move(head).value();

  BodyFrame frame = frame_body(input, head_size.value(), request.headers,
                               /*to_eof=*/false, /*at_eof=*/false);
  if (frame.status == IncrementalParse::Status::kError) {
    return fail(std::move(frame.error));
  }
  if (frame.status == IncrementalParse::Status::kNeedMore) return result;
  request.body = std::move(frame.body);
  result.status = IncrementalParse::Status::kDone;
  result.request = std::move(request);
  result.consumed = frame.end;
  return result;
}

IncrementalResponse try_parse_response(std::string_view input, bool at_eof) {
  IncrementalResponse result;
  const auto fail = [&result](std::string why) {
    result.status = IncrementalParse::Status::kError;
    result.error = std::move(why);
    return result;
  };

  const auto head_size = find_head(input);
  if (!head_size.ok()) return fail(head_size.error_message());
  if (head_size.value() == 0) {
    if (at_eof) {
      return fail(input.empty() ? "connection closed" : "truncated head");
    }
    return result;  // kNeedMore
  }
  auto head = parse_response_head(input.substr(0, head_size.value()));
  if (!head.ok()) return fail(head.error_message());
  Response response = std::move(head).value();

  const bool has_framing = response.headers.has("Content-Length") ||
                           response.headers.has("Transfer-Encoding");
  BodyFrame frame = frame_body(input, head_size.value(), response.headers,
                               /*to_eof=*/!has_framing, at_eof);
  if (frame.status == IncrementalParse::Status::kError) {
    return fail(std::move(frame.error));
  }
  if (frame.status == IncrementalParse::Status::kNeedMore) {
    if (at_eof) return fail("truncated body");
    return result;
  }
  response.body = std::move(frame.body);
  result.status = IncrementalParse::Status::kDone;
  result.response = std::move(response);
  result.consumed = frame.end;
  return result;
}

namespace {

/// Reads more bytes into buf; false + error on failure, false + empty
/// error message on orderly EOF.
util::Result<bool> fill(net::TcpStream& stream, ReadBuffer& buf) {
  char chunk[8192];
  auto n = stream.read_some(chunk, sizeof chunk);
  if (!n.ok()) return util::Result<bool>::error(n.error_message());
  if (n.value() == 0) return false;  // EOF
  buf.data.append(chunk, n.value());
  return true;
}

/// Extracts the head (through CRLFCRLF) from the buffer, reading as
/// needed. On success the head (including terminator) is removed from
/// the buffer and returned.
util::Result<std::string> read_head(net::TcpStream& stream, ReadBuffer& buf) {
  while (true) {
    const size_t end = buf.data.find("\r\n\r\n");
    if (end != std::string::npos) {
      if (end + 4 > kMaxHeaderBytes) {
        return util::Result<std::string>::error("header too large");
      }
      std::string head = buf.data.substr(0, end + 4);
      buf.data.erase(0, end + 4);
      return head;
    }
    if (buf.data.size() > kMaxHeaderBytes) {
      return util::Result<std::string>::error("header too large");
    }
    auto more = fill(stream, buf);
    if (!more.ok()) {
      return util::Result<std::string>::error(more.error_message());
    }
    if (!more.value()) {
      return util::Result<std::string>::error(
          buf.data.empty() ? "connection closed" : "truncated head");
    }
  }
}

util::Result<std::string> read_sized_body(net::TcpStream& stream,
                                          ReadBuffer& buf, std::size_t length) {
  if (length > kMaxBodyBytes) {
    return util::Result<std::string>::error("body too large");
  }
  while (buf.data.size() < length) {
    auto more = fill(stream, buf);
    if (!more.ok()) {
      return util::Result<std::string>::error(more.error_message());
    }
    if (!more.value()) {
      return util::Result<std::string>::error("truncated body");
    }
  }
  std::string body = buf.data.substr(0, length);
  buf.data.erase(0, length);
  return body;
}

util::Result<std::string> read_chunked_body(net::TcpStream& stream,
                                            ReadBuffer& buf) {
  std::string body;
  while (true) {
    // Chunk-size line.
    size_t eol;
    while ((eol = buf.data.find("\r\n")) == std::string::npos) {
      auto more = fill(stream, buf);
      if (!more.ok()) {
        return util::Result<std::string>::error(more.error_message());
      }
      if (!more.value()) {
        return util::Result<std::string>::error("truncated chunk size");
      }
    }
    const std::string size_line = buf.data.substr(0, eol);
    buf.data.erase(0, eol + 2);
    std::size_t chunk_len = 0;
    const std::string hex =
        size_line.substr(0, size_line.find(';'));  // ignore extensions
    if (hex.empty()) {
      return util::Result<std::string>::error("empty chunk size");
    }
    for (const char c : hex) {
      const auto u = static_cast<unsigned char>(c);
      if (std::isxdigit(u) == 0) {
        return util::Result<std::string>::error("invalid chunk size");
      }
      chunk_len = chunk_len * 16 +
                  static_cast<std::size_t>(
                      std::isdigit(u) != 0 ? c - '0'
                                           : std::tolower(u) - 'a' + 10);
    }
    if (body.size() + chunk_len > kMaxBodyBytes) {
      return util::Result<std::string>::error("body too large");
    }
    auto data = read_sized_body(stream, buf, chunk_len + 2);  // + CRLF
    if (!data.ok()) return data;
    if (chunk_len == 0) {
      // Last chunk; data.value() holds the final CRLF (no trailers
      // supported — our peers never send them).
      return body;
    }
    const std::string& chunk = data.value();
    if (chunk.substr(chunk_len) != "\r\n") {
      return util::Result<std::string>::error("missing chunk terminator");
    }
    body.append(chunk, 0, chunk_len);
  }
}

template <typename Message>
util::Result<Message> read_body_into(Message message, net::TcpStream& stream,
                                     ReadBuffer& buf, bool responses_may_eof) {
  const auto transfer = message.headers.get("Transfer-Encoding");
  if (transfer && util::iequals(*transfer, "chunked")) {
    auto body = read_chunked_body(stream, buf);
    if (!body.ok()) return util::Result<Message>::error(body.error_message());
    message.body = std::move(body).value();
    return message;
  }
  const auto length_header = message.headers.get("Content-Length");
  if (length_header) {
    const auto length = util::parse_int(*length_header);
    if (!length || *length < 0) {
      return util::Result<Message>::error("invalid Content-Length");
    }
    auto body =
        read_sized_body(stream, buf, static_cast<std::size_t>(*length));
    if (!body.ok()) return util::Result<Message>::error(body.error_message());
    message.body = std::move(body).value();
    return message;
  }
  if (responses_may_eof) {
    // HTTP/1.0-style: body runs to EOF.
    while (true) {
      auto more = fill(stream, buf);
      if (!more.ok()) {
        return util::Result<Message>::error(more.error_message());
      }
      if (!more.value()) break;
      if (buf.data.size() > kMaxBodyBytes) {
        return util::Result<Message>::error("body too large");
      }
    }
    message.body = std::move(buf.data);
    buf.data.clear();
  }
  return message;
}

}  // namespace

util::Result<Request> read_request(net::TcpStream& stream, ReadBuffer& buf) {
  auto head = read_head(stream, buf);
  if (!head.ok()) return util::Result<Request>::error(head.error_message());
  auto req = parse_request_head(head.value());
  if (!req.ok()) return req;
  return read_body_into(std::move(req).value(), stream, buf,
                        /*responses_may_eof=*/false);
}

util::Result<Response> read_response(net::TcpStream& stream, ReadBuffer& buf) {
  auto head = read_head(stream, buf);
  if (!head.ok()) return util::Result<Response>::error(head.error_message());
  auto res = parse_response_head(head.value());
  if (!res.ok()) return res;
  const bool has_framing = res.value().headers.has("Content-Length") ||
                           res.value().headers.has("Transfer-Encoding");
  return read_body_into(std::move(res).value(), stream, buf,
                        /*responses_may_eof=*/!has_framing);
}

}  // namespace bifrost::http
