#include <gtest/gtest.h>
#include <sys/socket.h>

#include <thread>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "http/router.hpp"
#include "http/url.hpp"

namespace bifrost::http {
namespace {

// ---------------------------------------------------------------------------
// HeaderMap

TEST(HeaderMap, CaseInsensitiveLookup) {
  HeaderMap headers;
  headers.set("Content-Type", "text/plain");
  EXPECT_EQ(headers.get("content-type"), "text/plain");
  EXPECT_TRUE(headers.has("CONTENT-TYPE"));
  EXPECT_FALSE(headers.has("X-Missing"));
}

TEST(HeaderMap, SetOverwritesAppendDuplicates) {
  HeaderMap headers;
  headers.set("X-A", "1");
  headers.set("x-a", "2");
  EXPECT_EQ(headers.size(), 1u);
  EXPECT_EQ(headers.get("X-A"), "2");
  headers.append("Set-Cookie", "a=1");
  headers.append("Set-Cookie", "b=2");
  EXPECT_EQ(headers.size(), 3u);
}

TEST(HeaderMap, RemoveErasesAllMatches) {
  HeaderMap headers;
  headers.append("X-Dup", "1");
  headers.append("x-dup", "2");
  headers.remove("X-DUP");
  EXPECT_EQ(headers.size(), 0u);
}

// ---------------------------------------------------------------------------
// Request/Response helpers

TEST(Request, PathStripsQuery) {
  Request req;
  req.target = "/search?q=laptop&page=2";
  EXPECT_EQ(req.path(), "/search");
  EXPECT_EQ(req.query_param("q"), "laptop");
  EXPECT_EQ(req.query_param("page"), "2");
  EXPECT_FALSE(req.query_param("missing").has_value());
}

TEST(Request, CookiesParsed) {
  Request req;
  req.headers.set("Cookie", "bifrost.sid=abc-123; theme=dark");
  const auto cookies = req.cookies();
  EXPECT_EQ(cookies.at("bifrost.sid"), "abc-123");
  EXPECT_EQ(cookies.at("theme"), "dark");
  EXPECT_EQ(req.cookie("bifrost.sid"), "abc-123");
  EXPECT_FALSE(req.cookie("none").has_value());
}

TEST(Request, SerializeSetsContentLength) {
  Request req;
  req.method = "POST";
  req.target = "/buy";
  req.body = "hello";
  const std::string wire = req.serialize();
  EXPECT_NE(wire.find("POST /buy HTTP/1.1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_TRUE(wire.ends_with("hello"));
}

TEST(Response, SerializeStatusLine) {
  Response res = Response::text(404, "gone");
  const std::string wire = res.serialize();
  EXPECT_TRUE(wire.starts_with("HTTP/1.1 404 Not Found\r\n"));
}

TEST(Response, SetCookieAppends) {
  Response res;
  res.set_cookie("bifrost.sid", "u-1");
  res.set_cookie("other", "x", "");
  int count = 0;
  for (const auto& [name, value] : res.headers.all()) {
    if (name == "Set-Cookie") ++count;
  }
  EXPECT_EQ(count, 2);
  EXPECT_EQ(res.headers.get("Set-Cookie"), "bifrost.sid=u-1; Path=/");
}

TEST(Response, ReasonPhrases) {
  EXPECT_EQ(reason_phrase(200), "OK");
  EXPECT_EQ(reason_phrase(502), "Bad Gateway");
  EXPECT_EQ(reason_phrase(299), "Unknown");
}

// ---------------------------------------------------------------------------
// URL

TEST(Url, DecodeEncode) {
  EXPECT_EQ(url_decode("a%20b+c"), "a b c");
  EXPECT_EQ(url_decode("a+b", false), "a+b");
  EXPECT_EQ(url_decode("%41%62"), "Ab");
  EXPECT_EQ(url_decode("%zz"), "%zz");  // invalid escape passes through
  EXPECT_EQ(url_encode("a b/c"), "a%20b%2Fc");
  EXPECT_EQ(url_encode("safe-._~123"), "safe-._~123");
}

TEST(Url, ParseQueryPairs) {
  const auto pairs = parse_query("a=1&b=two%20words&flag&=empty");
  ASSERT_EQ(pairs.size(), 4u);
  EXPECT_EQ(pairs[0], (std::pair<std::string, std::string>{"a", "1"}));
  EXPECT_EQ(pairs[1].second, "two words");
  EXPECT_EQ(pairs[2], (std::pair<std::string, std::string>{"flag", ""}));
}

TEST(Url, ParseAbsolute) {
  const auto url = parse_url("http://host.example:8080/path?x=1");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url.value().host, "host.example");
  EXPECT_EQ(url.value().port, 8080);
  EXPECT_EQ(url.value().target, "/path?x=1");
}

TEST(Url, ParseDefaults) {
  const auto url = parse_url("http://h");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url.value().port, 80);
  EXPECT_EQ(url.value().target, "/");
}

TEST(Url, ParseRejectsBadInput) {
  EXPECT_FALSE(parse_url("https://secure").ok());
  EXPECT_FALSE(parse_url("ftp://x").ok());
  EXPECT_FALSE(parse_url("http://host:notaport/").ok());
  EXPECT_FALSE(parse_url("http://host:70000/").ok());
  EXPECT_FALSE(parse_url("http:///nohost").ok());
}

// ---------------------------------------------------------------------------
// Head parsing

TEST(ParseRequestHead, Basic) {
  const auto req = parse_request_head(
      "GET /products?id=1 HTTP/1.1\r\nHost: x\r\nX-Custom: v\r\n\r\n");
  ASSERT_TRUE(req.ok()) << req.error_message();
  EXPECT_EQ(req.value().method, "GET");
  EXPECT_EQ(req.value().target, "/products?id=1");
  EXPECT_EQ(req.value().version, "HTTP/1.1");
  EXPECT_EQ(req.value().headers.get("host"), "x");
  EXPECT_EQ(req.value().headers.get("X-Custom"), "v");
}

TEST(ParseRequestHead, TrimsHeaderWhitespace) {
  const auto req =
      parse_request_head("GET / HTTP/1.1\r\nName:   padded value  \r\n\r\n");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().headers.get("Name"), "padded value");
}

TEST(ParseRequestHead, RejectsMalformed) {
  EXPECT_FALSE(parse_request_head("GET /\r\n\r\n").ok());          // no version
  EXPECT_FALSE(parse_request_head("GET / HTTP/2.0\r\n\r\n").ok()); // version
  EXPECT_FALSE(parse_request_head("G@T / HTTP/1.1\r\n\r\n").ok()); // method
  EXPECT_FALSE(
      parse_request_head("GET / HTTP/1.1\r\nNoColonHere\r\n\r\n").ok());
  EXPECT_FALSE(
      parse_request_head("GET / HTTP/1.1\r\n: novalue\r\n\r\n").ok());
  EXPECT_FALSE(parse_request_head("GET  HTTP/1.1\r\n\r\n").ok());
}

TEST(ParseResponseHead, Basic) {
  const auto res = parse_response_head(
      "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n\r\n");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().status, 503);
  EXPECT_EQ(res.value().headers.get("Retry-After"), "1");
}

TEST(ParseResponseHead, StatusWithoutReason) {
  const auto res = parse_response_head("HTTP/1.1 204\r\n\r\n");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().status, 204);
}

TEST(ParseResponseHead, RejectsBadStatus) {
  EXPECT_FALSE(parse_response_head("HTTP/1.1 99 Low\r\n\r\n").ok());
  EXPECT_FALSE(parse_response_head("HTTP/1.1 abc Bad\r\n\r\n").ok());
  EXPECT_FALSE(parse_response_head("SPDY/1 200 OK\r\n\r\n").ok());
}

// Round-trip property: serialize then parse yields the same head.
class RequestRoundTrip : public testing::TestWithParam<const char*> {};

TEST_P(RequestRoundTrip, SerializeParseIdentity) {
  Request req;
  req.method = "POST";
  req.target = GetParam();
  req.headers.set("Host", "h");
  req.headers.set("X-Bifrost-Version", "canary");
  req.body = "payload";
  const std::string wire = req.serialize();
  const size_t head_end = wire.find("\r\n\r\n") + 4;
  const auto parsed = parse_request_head(wire.substr(0, head_end));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().method, req.method);
  EXPECT_EQ(parsed.value().target, req.target);
  EXPECT_EQ(parsed.value().headers.get("X-Bifrost-Version"), "canary");
  EXPECT_EQ(parsed.value().headers.get("Content-Length"), "7");
}

INSTANTIATE_TEST_SUITE_P(Targets, RequestRoundTrip,
                         testing::Values("/", "/a/b/c", "/q?x=1&y=2",
                                         "/pct%20encoded", "/trailing/"));

// ---------------------------------------------------------------------------
// Router

Response ok_with(const std::string& tag) {
  return Response::text(200, tag);
}

TEST(Router, DispatchesByMethodAndPath) {
  Router router;
  router.add("GET", "/products",
             [](const Request&, const PathParams&) { return ok_with("list"); });
  router.add("POST", "/products",
             [](const Request&, const PathParams&) { return ok_with("new"); });
  Request get;
  get.method = "GET";
  get.target = "/products";
  EXPECT_EQ(router.dispatch(get).body, "list");
  get.method = "POST";
  EXPECT_EQ(router.dispatch(get).body, "new");
}

TEST(Router, CapturesParams) {
  Router router;
  router.add("GET", "/products/:id/reviews/:rid",
             [](const Request&, const PathParams& params) {
               return ok_with(params.at("id") + "/" + params.at("rid"));
             });
  Request req;
  req.target = "/products/p7/reviews/r2?x=1";
  EXPECT_EQ(router.dispatch(req).body, "p7/r2");
}

TEST(Router, WildcardTail) {
  Router router;
  router.add("GET", "/static/*",
             [](const Request&, const PathParams&) { return ok_with("s"); });
  Request req;
  req.target = "/static/css/site.css";
  EXPECT_EQ(router.dispatch(req).status, 200);
  req.target = "/static";
  EXPECT_EQ(router.dispatch(req).status, 404);
}

TEST(Router, NotFoundAndMethodNotAllowed) {
  Router router;
  router.add("GET", "/only-get",
             [](const Request&, const PathParams&) { return ok_with("g"); });
  Request req;
  req.target = "/missing";
  EXPECT_EQ(router.dispatch(req).status, 404);
  req.target = "/only-get";
  req.method = "DELETE";
  EXPECT_EQ(router.dispatch(req).status, 405);
}

TEST(Router, DecodesPathSegments) {
  Router router;
  router.add("GET", "/items/:name",
             [](const Request&, const PathParams& params) {
               return ok_with(params.at("name"));
             });
  Request req;
  req.target = "/items/a%20b";
  EXPECT_EQ(router.dispatch(req).body, "a b");
}

TEST(SplitPath, NormalizesSlashes) {
  EXPECT_EQ(split_path("/a/b/"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split_path("///x"), (std::vector<std::string>{"x"}));
  EXPECT_TRUE(split_path("/").empty());
}

// --- Incremental request parser (reactor read path) ---

TEST(IncrementalParse, CompleteRequestConsumedExactly) {
  const std::string wire =
      "POST /a HTTP/1.1\r\nContent-Length: 4\r\n\r\nbodyXTRA";
  const auto parsed = try_parse_request(wire);
  ASSERT_EQ(parsed.status, IncrementalParse::Status::kDone);
  EXPECT_EQ(parsed.request.method, "POST");
  EXPECT_EQ(parsed.request.body, "body");
  // Trailing pipelined bytes are not consumed.
  EXPECT_EQ(parsed.consumed, wire.size() - 4);
  EXPECT_EQ(wire.substr(parsed.consumed), "XTRA");
}

TEST(IncrementalParse, EveryPrefixNeedsMore) {
  // Feeding any strict prefix byte-by-byte must report kNeedMore and
  // never error: the reactor relies on this to park torn reads.
  const std::string wire =
      "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
  for (std::size_t n = 0; n < wire.size(); ++n) {
    const auto parsed = try_parse_request(wire.substr(0, n));
    EXPECT_EQ(parsed.status, IncrementalParse::Status::kNeedMore)
        << "prefix length " << n;
  }
  const auto full = try_parse_request(wire);
  ASSERT_EQ(full.status, IncrementalParse::Status::kDone);
  EXPECT_EQ(full.request.body, "hello");
  EXPECT_EQ(full.consumed, wire.size());
}

TEST(IncrementalParse, ChunkedPrefixesNeedMore) {
  const std::string wire =
      "POST /e HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";
  for (std::size_t n = 0; n < wire.size(); ++n) {
    const auto parsed = try_parse_request(wire.substr(0, n));
    EXPECT_EQ(parsed.status, IncrementalParse::Status::kNeedMore)
        << "prefix length " << n;
  }
  const auto full = try_parse_request(wire);
  ASSERT_EQ(full.status, IncrementalParse::Status::kDone);
  EXPECT_EQ(full.request.body, "Wikipedia");
  EXPECT_EQ(full.consumed, wire.size());
}

TEST(IncrementalParse, PipelinedRequestsParseSequentially) {
  Request a;
  a.method = "POST";
  a.target = "/1";
  a.body = "one";
  Request b;
  b.method = "POST";
  b.target = "/2";
  b.body = "two";
  std::string wire = a.serialize() + b.serialize();
  const auto first = try_parse_request(wire);
  ASSERT_EQ(first.status, IncrementalParse::Status::kDone);
  EXPECT_EQ(first.request.target, "/1");
  wire.erase(0, first.consumed);
  const auto second = try_parse_request(wire);
  ASSERT_EQ(second.status, IncrementalParse::Status::kDone);
  EXPECT_EQ(second.request.target, "/2");
  EXPECT_EQ(second.request.body, "two");
}

TEST(IncrementalParse, MalformedHeadIsError) {
  const auto parsed = try_parse_request("NOT-HTTP\r\n\r\n");
  EXPECT_EQ(parsed.status, IncrementalParse::Status::kError);
}

TEST(IncrementalParse, OversizedHeadIsErrorNotNeedMore) {
  // A flood of header bytes with no terminator must be rejected, not
  // buffered forever.
  std::string wire = "GET / HTTP/1.1\r\nX-Big: ";
  wire += std::string(kMaxHeaderBytes + 1, 'x');
  const auto parsed = try_parse_request(wire);
  EXPECT_EQ(parsed.status, IncrementalParse::Status::kError);
}

TEST(IncrementalParse, OversizedBodyIsError) {
  const std::string wire = "POST / HTTP/1.1\r\nContent-Length: " +
                           std::to_string(kMaxBodyBytes + 1) + "\r\n\r\n";
  const auto parsed = try_parse_request(wire);
  EXPECT_EQ(parsed.status, IncrementalParse::Status::kError);
}

TEST(IncrementalParse, BadChunkSizeIsError) {
  const auto parsed = try_parse_request(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n");
  EXPECT_EQ(parsed.status, IncrementalParse::Status::kError);
}

// ---------------------------------------------------------------------------
// Incremental response parsing, against the blocking reader as oracle

/// What read_response makes of `bytes` followed by EOF: the bytes are
/// written into one end of a socket pair (from a thread: they may exceed
/// the socket buffer), which is then closed.
util::Result<Response> read_reference(const std::string& bytes) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return util::Result<Response>::error("socketpair failed");
  }
  net::TcpStream reader{net::FdHandle(fds[0])};
  std::thread writer([&bytes, fd = fds[1]] {
    net::TcpStream stream{net::FdHandle(fd)};
    (void)stream.write_all(bytes);
  });  // the stream closes its end when the thread finishes
  ReadBuffer buffer;
  auto response = read_response(reader, buffer);
  reader.close();  // unblocks a writer stuck on a rejected oversized body
  writer.join();
  return response;
}

/// try_parse_response must agree with read_response on every split of
/// `wire`: a strict prefix without EOF needs more bytes (never a
/// verdict), and the prefix followed by EOF yields what the blocking
/// reader yields for the same bytes and EOF.
void expect_agrees_at_every_split(const std::string& wire) {
  SCOPED_TRACE(wire.substr(0, 60));
  for (std::size_t k = 0; k <= wire.size(); ++k) {
    const std::string prefix = wire.substr(0, k);
    if (k < wire.size()) {
      const auto open = try_parse_response(prefix, /*at_eof=*/false);
      EXPECT_EQ(open.status, IncrementalParse::Status::kNeedMore)
          << "split " << k;
    }
    const auto closed = try_parse_response(prefix, /*at_eof=*/true);
    const auto oracle = read_reference(prefix);
    ASSERT_EQ(closed.status == IncrementalParse::Status::kDone, oracle.ok())
        << "split " << k << ": " << closed.error << " vs "
        << (oracle.ok() ? "ok" : oracle.error_message());
    if (!oracle.ok()) continue;
    const Response& mine = closed.response;
    EXPECT_EQ(mine.status, oracle.value().status);
    EXPECT_EQ(mine.version, oracle.value().version);
    EXPECT_EQ(mine.headers.all(), oracle.value().headers.all());
    EXPECT_EQ(mine.body, oracle.value().body);
  }
}

const std::vector<std::string>& response_corpus() {
  static const std::vector<std::string> corpus = {
      "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nWiki\r\n5;ext=1\r\npedia\r\n0\r\n\r\n",
      "HTTP/1.0 200 OK\r\nServer: eof\r\n\r\nto-the-end",
      "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 3\r\n\r\nbye",
      "HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n",
      "HTTP/1.1 200 OK\r\n\r\n",
      "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n"
      "Content-Length: 4\r\n\r\nbusy",
  };
  return corpus;
}

TEST(IncrementalResponse, AgreesWithBlockingReaderAtEverySplit) {
  for (const std::string& wire : response_corpus()) {
    expect_agrees_at_every_split(wire);
  }
}

TEST(IncrementalResponse, FramedResponsesConsumeExactlyTheirBytes) {
  const std::string next = "HTTP/1.1 200 OK\r\n";  // a pipelined follower
  for (const std::string& wire : response_corpus()) {
    const auto whole = try_parse_response(wire, /*at_eof=*/false);
    if (whole.status == IncrementalParse::Status::kNeedMore) {
      // Delimited by EOF: complete only once the peer closes.
      const auto at_eof = try_parse_response(wire, /*at_eof=*/true);
      ASSERT_EQ(at_eof.status, IncrementalParse::Status::kDone) << wire;
      EXPECT_EQ(at_eof.consumed, wire.size());
      continue;
    }
    ASSERT_EQ(whole.status, IncrementalParse::Status::kDone) << wire;
    EXPECT_EQ(whole.consumed, wire.size());
    const auto followed = try_parse_response(wire + next, /*at_eof=*/false);
    ASSERT_EQ(followed.status, IncrementalParse::Status::kDone) << wire;
    EXPECT_EQ(followed.consumed, wire.size());
    EXPECT_EQ(followed.response.body, whole.response.body);
  }
}

TEST(IncrementalResponse, OversizedHeadsAndBodiesRejectedLikeTheReader) {
  const std::string big_header(kMaxHeaderBytes + 1, 'h');
  const std::vector<std::string> oversized = {
      // Terminated head over the limit, and an unterminated flood.
      "HTTP/1.1 200 OK\r\nX-Big: " + big_header + "\r\n\r\n",
      "HTTP/1.1 200 OK\r\nX-Big: " + big_header,
      // Declared bodies over the limit: by length and by chunk size.
      "HTTP/1.1 200 OK\r\nContent-Length: " +
          std::to_string(kMaxBodyBytes + 1) + "\r\n\r\n",
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
          [] {
            char hex[32];
            std::snprintf(hex, sizeof hex, "%zx", kMaxBodyBytes + 1);
            return std::string(hex);
          }() + "\r\n",
      // A body delimited by EOF that runs past the limit.
      "HTTP/1.0 200 OK\r\n\r\n" + std::string(kMaxBodyBytes + 1, 'b'),
  };
  for (const std::string& wire : oversized) {
    SCOPED_TRACE(wire.substr(0, 40));
    EXPECT_FALSE(read_reference(wire).ok());
    EXPECT_EQ(try_parse_response(wire, /*at_eof=*/false).status,
              IncrementalParse::Status::kError);
    EXPECT_EQ(try_parse_response(wire, /*at_eof=*/true).status,
              IncrementalParse::Status::kError);
  }
  // At the limit exactly, a body delimited by EOF is still accepted.
  const std::string at_limit =
      "HTTP/1.0 200 OK\r\n\r\n" + std::string(kMaxBodyBytes, 'b');
  EXPECT_TRUE(read_reference(at_limit).ok());
  const auto parsed = try_parse_response(at_limit, /*at_eof=*/true);
  ASSERT_EQ(parsed.status, IncrementalParse::Status::kDone);
  EXPECT_EQ(parsed.response.body.size(), kMaxBodyBytes);
}

TEST(IncrementalResponse, MalformedStatusLineIsError) {
  EXPECT_EQ(try_parse_response("HTTP/1.1 abc OK\r\n\r\n", false).status,
            IncrementalParse::Status::kError);
  EXPECT_EQ(try_parse_response("", /*at_eof=*/true).status,
            IncrementalParse::Status::kError);
}

}  // namespace
}  // namespace bifrost::http
