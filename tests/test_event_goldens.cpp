// Byte-for-byte checks of the event-loop goldens (event_goldens.hpp): the
// sampler, drain, node-tick and IPMI-sampler timing they pin must not move.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <string>

#include "common/log.hpp"
#include "event_goldens.hpp"

namespace eco::slurm::scenarios {
namespace {

class EventGolden : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { Logger::Instance().SetLevel(LogLevel::kError); }
  void TearDown() override { Logger::Instance().SetLevel(LogLevel::kInfo); }
};

TEST_P(EventGolden, MatchesGoldenBytes) {
  const std::string path = std::string(ECO_EVENT_GOLDEN_DIR) + "/" + GetParam();
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string golden = buffer.str();
  const std::string run = RunEventGolden(GetParam());
  if (run == golden) return;
  // The dumps run to tens of kilobytes on one line: report where they part.
  const auto at = static_cast<std::size_t>(
      std::mismatch(run.begin(), run.begin() + std::min(run.size(), golden.size()),
                    golden.begin())
          .first -
      run.begin());
  const std::size_t from = at < 40 ? 0 : at - 40;
  ADD_FAILURE() << GetParam() << ": " << run.size() << " bytes vs golden "
                << golden.size() << ", first difference at byte " << at
                << "\n  run:    " << run.substr(from, 120)
                << "\n  golden: " << golden.substr(from, 120);
}

INSTANTIATE_TEST_SUITE_P(
    Event, EventGolden, ::testing::ValuesIn(EventGoldenNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name;
      for (const char c : info.param) {
        name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      }
      return name;
    });

}  // namespace
}  // namespace eco::slurm::scenarios
