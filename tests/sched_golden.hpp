// The golden-schedule assertion shared by the scheduler suites: runs one
// scenario from sched_scenarios.hpp on the product engine and checks every
// job line against tests/golden/sched/<scenario>.txt, byte for byte.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "sched_scenarios.hpp"

namespace eco::slurm::scenarios {

inline void ExpectMatchesGolden(const std::string& scenario) {
  GoldenRun golden;
  ASSERT_TRUE(ReadGolden(
      std::string(ECO_SCHED_GOLDEN_DIR) + "/" + scenario + ".txt", &golden))
      << "missing golden for " << scenario;
  const GoldenRun run = RunGoldenScenario(scenario);
  ASSERT_EQ(run.lines.size(), golden.lines.size()) << scenario;
  for (std::size_t i = 0; i < run.lines.size(); ++i) {
    EXPECT_EQ(run.lines[i], golden.lines[i]) << scenario << " line " << i;
  }
  // The point of the index: it must not examine the full queue per pass, so
  // it never sees more candidates than the sort-everything engine did.
  EXPECT_LE(run.plan_candidates, golden.plan_candidates) << scenario;
}

}  // namespace eco::slurm::scenarios
