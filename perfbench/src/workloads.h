// The four workloads and the small per-layer probes the traced runs use
// for layers a workload does not exercise (README.md explains both).
#pragma once

#include <cstdint>

#include "common.h"

namespace perfbench {

void RunEngineScale(const RunConfig& config, Outcome& out);
void RunEngineMbac(const RunConfig& config, Outcome& out);
void RunDaemonLoopback(const RunConfig& config, Outcome& out);
void RunDpOffline(const RunConfig& config, Outcome& out);

/// Small, fixed-size measurements of one layer family, filling the
/// per-layer metrics of that family into `out`. Their failed output
/// checks are recorded in `outcome` like any other.
void ProbeEngineLayers(std::uint64_t seed, MetricMap& out, Outcome& outcome);
void ProbeNetLayers(std::uint64_t seed, MetricMap& out, Outcome& outcome);
void ProbeDpLayers(std::uint64_t seed, MetricMap& out, Outcome& outcome);

}  // namespace perfbench
