// One rep of one workload, in a fresh process (the plugin's decision cache
// and other process-global state never carry over between reps).
//
//   eco_benchmark --workload W --seed N --rep R --workdir DIR
//                 [--trace FILE] [--smoke]
//
// DIR must be a private, existing directory. With --trace the rep installs
// the timing wrappers and decorators, records spans and writes them to FILE
// as a Chrome trace. Prints one JSON line: the rep's metrics, correctness
// verdict and failure counts.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/log.hpp"
#include "workloads.hpp"

namespace {

using namespace ecobench;

int Usage(const char* why) {
  std::fprintf(stderr,
               "eco_benchmark: %s\nusage: eco_benchmark --workload W --seed N "
               "--rep R --workdir DIR [--trace FILE] [--smoke]\n",
               why);
  return 2;
}

eco::Json ToJson(const std::map<std::string, double>& values) {
  eco::JsonObject object;
  for (const auto& [name, value] : values) object[name] = eco::Json(value);
  return eco::Json(std::move(object));
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t start_ns = NowNs();
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      options.smoke = true;
    } else if (flag == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--rep" && has_value) {
      options.rep = std::atoi(argv[++i]);
    } else if (flag == "--workdir" && has_value) {
      options.workdir = argv[++i];
    } else if (flag == "--trace" && has_value) {
      options.traced = true;
      options.trace_out = argv[++i];
    } else {
      return Usage(("unknown or incomplete flag " + flag).c_str());
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return Usage("unknown workload");
  }
  if (options.workdir.empty()) return Usage("--workdir is required");

  // Quiet like the paper env: the plugin logs every decision at info level.
  eco::Logger::Instance().SetLevel(eco::LogLevel::kWarn);
  std::unique_ptr<Tracer> tracer;
  if (options.traced) {
    tracer = std::make_unique<Tracer>();
    tracer->Attach("sim");
  }

  RepResult result = RunWorkload(options, tracer.get(), start_ns);
  result.metrics["setup_s"] = result.setup_s;
  if (tracer) {
    Tracer::Detach();
    AddSpanMetrics(*tracer, result);
    for (const std::string& name : PerLayerMetrics()) {
      result.metrics.try_emplace(name, 0.0);  // layer not run here
    }
    std::ofstream out(options.trace_out);
    out << tracer->ChromeTraceJson();
    result.Check(out.good(), "could not write " + options.trace_out);
  }

  eco::JsonArray failures;
  for (const std::string& failure : result.failures) failures.emplace_back(failure);
  eco::JsonObject line;
  line["workload"] = eco::Json(options.workload);
  line["seed"] = eco::Json(options.seed);
  line["rep"] = eco::Json(options.rep);
  line["traced"] = eco::Json(options.traced);
  line["correct"] = eco::Json(result.failures.empty());
  line["failures"] = eco::Json(std::move(failures));
  line["attempted"] = eco::Json(result.attempted);
  line["failed"] = eco::Json(result.failed);
  line["wall_s"] = eco::Json(result.wall_s);
  line["compute_s"] = eco::Json(result.compute_s);
  const auto to_array = [](const std::vector<double>& values) {
    eco::JsonArray array;
    for (const double value : values) array.emplace_back(value);
    return eco::Json(std::move(array));
  };
  line["setup_segment_s"] = to_array(result.setup_segment_s);
  line["segment_s"] = to_array(result.segment_s);
  line["work"] = eco::Json(result.work);
  line["digest"] = eco::Json(result.digest);
  line["metrics"] = ToJson(result.metrics);
  line["exact"] = ToJson(result.exact);
  line["layer_self_s"] = ToJson(result.layer_self_s);
  std::printf("%s\n", eco::Json(std::move(line)).Dump().c_str());
  return 0;
}
