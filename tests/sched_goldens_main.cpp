// Writes every golden scheduler scenario (tests/sched_scenarios.hpp), as
// scheduled by the engine this binary was built with, to
// <out_dir>/<scenario>.txt.
//
// Built from the tree as is, it dumps the current engine's schedules for a
// diff against tests/golden/sched/. tests/golden/regen_sched_goldens.sh
// builds it against the legacy engine instead, to regenerate the goldens.
#include <cstdio>
#include <string>

#include "common/log.hpp"
#include "sched_scenarios.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUT_DIR\n", argv[0]);
    return 2;
  }
  eco::Logger::Instance().SetLevel(eco::LogLevel::kError);
  namespace sc = eco::slurm::scenarios;
  for (const std::string& name : sc::GoldenScenarioNames()) {
    const sc::GoldenRun run = sc::RunGoldenScenario(name);
    const std::string path = std::string(argv[1]) + "/" + name + ".txt";
    if (!sc::WriteGolden(path, run)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("%-26s %5zu lines  plan_candidates %llu\n", name.c_str(),
                run.lines.size(),
                static_cast<unsigned long long>(run.plan_candidates));
  }
  return 0;
}
