#pragma once

#include <cstdint>
#include <memory>

#include "http/server.hpp"
#include "metrics/timeseries.hpp"

namespace bifrost::metrics {

/// HTTP face of the metrics provider — the Prometheus API stand-in the
/// Bifrost engine queries. Endpoints:
///   GET  /api/v1/query?query=<expr>[&time=<seconds>]
///        -> {"status":"success","data":{"value":..,"seriesMatched":..}}
///   POST /api/v1/ingest   body: {"name":..,"labels":{..},"value":..,
///        "time":..}  (push-style ingestion used by tests/loadgen)
///   GET  /healthz
class MetricsServer {
 public:
  MetricsServer(TimeSeriesStore& store, std::uint16_t port = 0);
  ~MetricsServer();

  void start();
  void stop();
  [[nodiscard]] std::uint16_t port() const;

  /// Answers one request; the HTTP server calls this from its handler
  /// threads. Public so the endpoints can be driven without a socket.
  http::Response handle(const http::Request& request);

 private:
  TimeSeriesStore& store_;
  std::unique_ptr<http::HttpServer> server_;
};

}  // namespace bifrost::metrics
