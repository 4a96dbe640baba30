// Event-loop goldens: outputs whose bytes depend on exactly when the
// simulator's periodic work fires (the time-series sampler, the ingress
// drain, node ticks, the IPMI sampler). Each golden is one file under
// tests/golden/event/, compared byte for byte by test_event_goldens.
//
// This file and event_goldens.cpp compile against older trees too:
// tests/golden/regen_sched_goldens.sh builds them there to regenerate the
// goldens from a named commit.
#pragma once

#include <string>
#include <vector>

namespace eco::slurm::scenarios {

// Golden file names (extension included), in a fixed order.
std::vector<std::string> EventGoldenNames();
// Runs one named event scenario and returns the file's exact contents.
std::string RunEventGolden(const std::string& name);

}  // namespace eco::slurm::scenarios
