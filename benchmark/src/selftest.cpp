// The benchmark's own checks, run by run.sh before any measured rep:
//
//  - percentile math on fixed inputs;
//  - span self time (duration minus child coverage), reattribution and the
//    Chrome trace export on fixed timestamps;
//  - every workload at smoke scale on two seeds: the seeds must produce
//    different input digests and the same (passing) verdict.
//
//   selftest --workdir DIR     (DIR: an existing, empty scratch directory)
#include <cmath>
#include <cstdio>
#include <string>

#include "chronus/storage.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "workloads.hpp"

namespace {

using namespace ecobench;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL  %s\n", what.c_str());
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want)),
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

void CheckPercentiles() {
  ExpectNear(Percentile({}, 0.5), 0.0, "percentile of nothing");
  ExpectNear(Percentile({5.0}, 0.99), 5.0, "percentile of one value");
  ExpectNear(Percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5, "median of 4");
  ExpectNear(Percentile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0, "p0");
  ExpectNear(Percentile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0, "p100");
  ExpectNear(Percentile({1.0, 2.0, 3.0, 4.0}, 0.99), 3.97, "p99 of 4");
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  ExpectNear(Percentile(ramp, 0.99), 990.01, "p99 of 1..1000");
}

void CheckSpans() {
  SpanLog log("test", /*keep=*/3);
  // plugin [0,100] > chronus [10,30], sim [40,90] > sched [50,60]
  log.BeginAt("outer", Layer::kPlugin, 7, 0);
  log.BeginAt("a", Layer::kChronus, 0, 10);
  log.EndAt(30);
  log.BeginAt("b", Layer::kSim, 0, 40);
  log.BeginAt("c", Layer::kSched, 0, 50);
  log.EndAt(60);
  const SpanLog::Closed b = log.EndAt(90);
  const SpanLog::Closed outer = log.EndAt(100);
  ExpectNear(b.duration_ns, 50, "span duration");
  ExpectNear(b.child_ns, 10, "child coverage");
  ExpectNear(outer.child_ns, 70, "direct children only");
  ExpectNear(log.self_ns(Layer::kPlugin), 30, "self = duration - children");
  ExpectNear(log.self_ns(Layer::kChronus), 20, "leaf self");
  ExpectNear(log.self_ns(Layer::kSim), 40, "middle self");
  ExpectNear(log.self_ns(Layer::kSched), 10, "grandchild self");
  log.MoveSelf(Layer::kSim, Layer::kSched, 15);
  ExpectNear(log.self_ns(Layer::kSim), 25, "moved out");
  ExpectNear(log.self_ns(Layer::kSched), 25, "moved in");
  log.MoveSelf(Layer::kSim, Layer::kSched, 1000);
  ExpectNear(log.self_ns(Layer::kSim), 0, "move clamps at what is there");
  Expect(log.kept().size() == 3 && log.dropped() == 1, "keep cap");
  Expect(log.closed() == 4, "closed spans counted past the keep cap");
  Expect(log.kept()[0].parent == -1 && log.kept()[1].parent == 0 &&
             log.kept()[2].parent == 0,
         "parent links");
  Expect(log.kept()[1].request == 7, "request id inherited");

  Tracer tracer;
  tracer.Attach("main");
  {
    Scope outer_scope("x", Layer::kRpc, 1);
    Scope inner_scope("y", Layer::kIngress);
  }
  Tracer::Detach();
  { Scope untraced("z", Layer::kRpc); }  // no log: a no-op
  Expect(tracer.Stats("x").calls == 1 && tracer.Stats("y").calls == 1 &&
             tracer.Stats("z").calls == 0,
         "scope counts");
  const auto trace = eco::Json::Parse(tracer.ChromeTraceJson());
  Expect(trace.ok() && trace->at("traceEvents").as_array().size() == 3,
         "chrome trace parses: 1 thread name + 2 spans");
}

void CheckSeeds(const std::string& workdir) {
  for (const std::string& workload : WorkloadNames()) {
    std::string digests[2];
    bool verdicts[2] = {false, false};
    for (int s = 0; s < 2; ++s) {
      Options options;
      options.workload = workload;
      options.seed = 11 + static_cast<std::uint64_t>(s);
      options.smoke = true;
      options.workdir = workdir + "/" + workload + "-" + std::to_string(s);
      if (!eco::chronus::EnsureDirectory(options.workdir).ok()) {
        Expect(false, "cannot create " + options.workdir);
        continue;
      }
      const RepResult result = RunWorkload(options, nullptr, NowNs());
      digests[s] = result.digest;
      verdicts[s] = result.failures.empty();
      for (const std::string& failure : result.failures) {
        std::printf("  %s seed %llu: %s\n", workload.c_str(),
                    static_cast<unsigned long long>(options.seed),
                    failure.c_str());
      }
    }
    Expect(!digests[0].empty() && digests[0] != digests[1],
           workload + ": seeds give distinct input digests");
    Expect(verdicts[0] && verdicts[1], workload + ": both seeds pass");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || std::string(argv[1]) != "--workdir") {
    std::fprintf(stderr, "usage: selftest --workdir DIR\n");
    return 2;
  }
  eco::Logger::Instance().SetLevel(eco::LogLevel::kWarn);
  CheckPercentiles();
  CheckSpans();
  CheckSeeds(argv[2]);
  if (g_failures > 0) {
    std::printf("selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
