// Writes every event golden (tests/event_goldens.hpp), as produced by the
// tree this binary was built from, to <out_dir>/<name>.
#include <cstdio>
#include <fstream>
#include <string>

#include "common/log.hpp"
#include "event_goldens.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUT_DIR\n", argv[0]);
    return 2;
  }
  eco::Logger::Instance().SetLevel(eco::LogLevel::kError);
  namespace sc = eco::slurm::scenarios;
  for (const std::string& name : sc::EventGoldenNames()) {
    const std::string bytes = sc::RunEventGolden(name);
    const std::string path = std::string(argv[1]) + "/" + name;
    std::ofstream out(path, std::ios::binary);
    out << bytes;
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("%-28s %8zu bytes\n", name.c_str(), bytes.size());
  }
  return 0;
}
