// obsd — the observability HTTP routes, served on subd's port.
//
// SubdServer answers these beside the binary submit wire (DESIGN.md "RPC
// front door" says how it tells the two apart); this file only turns a
// request into a response, with no sockets:
//
//   GET /healthz                     -> "ok"
//   GET /metrics                     -> MetricsRegistry::PrometheusText(),
//                                       byte-identical to a direct call
//   GET /sdiag                       -> commands::Sdiag() text
//   GET /timeseries                  -> JSON list of tracked series names
//   GET /timeseries?name=X&r=N       -> one series at resolution N (0..2)
//
// This is the scrape surface a Prometheus/Grafana stack points at. It is
// NOT a general web server: one request per connection, GET only, no
// keep-alive, no TLS, no %-escapes in queries — metric names are plain
// [a-zA-Z0-9_:] so none are needed.
//
// Thread-safety: /metrics and /timeseries read structures designed for
// concurrent access (sharded counters, a mutexed store). /sdiag walks
// ClusterSim state and is only safe while the sim thread is parked (the
// chronus obsd command serves after its run completes; tests do the same).
#pragma once

#include <string>
#include <string_view>

#include "common/telemetry/metrics.hpp"
#include "common/telemetry/timeseries.hpp"

namespace eco::slurm {

class ClusterSim;

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

// Routes a GET target ("/metrics", "/timeseries?name=x&r=1") to what the
// three sources hold. A null source makes its route answer 404; `cluster`
// enables /sdiag (see the thread-safety note above).
[[nodiscard]] HttpResponse HandleObsRoute(
    const std::string& target, const telemetry::MetricsRegistry* metrics,
    const telemetry::TimeSeriesStore* timeseries, const ClusterSim* cluster);

// The whole reply to one request line ("GET /metrics HTTP/1.1", without
// its CRLF): status line, headers with Connection: close, and body. A
// malformed line or a method other than GET answers 405.
[[nodiscard]] std::string RenderHttpReply(
    std::string_view request_line, const telemetry::MetricsRegistry* metrics,
    const telemetry::TimeSeriesStore* timeseries, const ClusterSim* cluster);

}  // namespace eco::slurm
