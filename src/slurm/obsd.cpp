#include "slurm/obsd.hpp"

#include <cstdlib>
#include <map>
#include <utility>

#include "common/json.hpp"
#include "slurm/commands.hpp"

namespace eco::slurm {
namespace {

constexpr const char* kPrometheusContentType =
    "text/plain; version=0.0.4; charset=utf-8";

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    default:
      return "Error";
  }
}

// Splits "name=x&r=1" into a key -> value map. No %-decoding: metric names
// are [a-zA-Z0-9_:{}="] at most, and the routes only read name/r.
std::map<std::string, std::string> ParseQuery(const std::string& query) {
  std::map<std::string, std::string> out;
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string::npos) {
      out[pair.substr(0, eq)] = pair.substr(eq + 1);
    } else if (!pair.empty()) {
      out[pair] = "";
    }
    pos = amp + 1;
  }
  return out;
}

}  // namespace

HttpResponse HandleObsRoute(const std::string& target,
                            const telemetry::MetricsRegistry* metrics,
                            const telemetry::TimeSeriesStore* timeseries,
                            const ClusterSim* cluster) {
  std::string path = target;
  std::string query;
  const std::size_t qmark = target.find('?');
  if (qmark != std::string::npos) {
    path = target.substr(0, qmark);
    query = target.substr(qmark + 1);
  }

  HttpResponse response;
  if (path == "/healthz") {
    response.body = "ok\n";
    return response;
  }
  if (path == "/metrics") {
    if (metrics == nullptr) {
      response.status = 404;
      response.body = "no metrics registry attached\n";
      return response;
    }
    // Byte-identical to MetricsRegistry::PrometheusText() — the scrape
    // contract the tests pin down.
    response.content_type = kPrometheusContentType;
    response.body = metrics->PrometheusText();
    return response;
  }
  if (path == "/sdiag") {
    if (cluster == nullptr) {
      response.status = 404;
      response.body = "no cluster attached\n";
      return response;
    }
    response.body = Sdiag(*cluster);
    return response;
  }
  if (path == "/timeseries") {
    if (timeseries == nullptr) {
      response.status = 404;
      response.body = "no time-series store attached\n";
      return response;
    }
    response.content_type = "application/json";
    const auto params = ParseQuery(query);
    const auto name_it = params.find("name");
    if (name_it == params.end()) {
      JsonArray names;
      for (const std::string& name : timeseries->Names()) {
        names.push_back(Json(name));
      }
      response.body = Json(JsonObject{{"series", Json(std::move(names))}})
                          .Dump() +
                      "\n";
      return response;
    }
    int resolution = 0;
    const auto r_it = params.find("r");
    if (r_it != params.end() && !r_it->second.empty()) {
      resolution = std::atoi(r_it->second.c_str());
    }
    if (resolution < 0 || resolution >= telemetry::TimeSeries::kResolutions) {
      response.status = 404;
      response.content_type = "text/plain; charset=utf-8";
      response.body = "resolution out of range (0..2)\n";
      return response;
    }
    const Json result =
        timeseries->QueryJson(name_it->second, resolution);
    if (result.is_null()) {
      response.status = 404;
      response.content_type = "text/plain; charset=utf-8";
      response.body = "unknown series '" + name_it->second + "'\n";
      return response;
    }
    response.body = result.Dump() + "\n";
    return response;
  }
  response.status = 404;
  response.body = "unknown route " + path + "\n";
  return response;
}

std::string RenderHttpReply(std::string_view request_line,
                            const telemetry::MetricsRegistry* metrics,
                            const telemetry::TimeSeriesStore* timeseries,
                            const ClusterSim* cluster) {
  // Request line: METHOD SP TARGET SP VERSION.
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 = sp1 == std::string_view::npos
                              ? std::string_view::npos
                              : request_line.find(' ', sp1 + 1);
  HttpResponse response;
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    response.status = 405;
    response.body = "malformed request\n";
  } else if (request_line.substr(0, sp1) != "GET") {
    response.status = 405;
    response.body = "GET only\n";
  } else {
    response = HandleObsRoute(
        std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1)), metrics,
        timeseries, cluster);
  }

  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    StatusText(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

}  // namespace eco::slurm
