// The benchmark's workloads and the pass that runs one.
//
// Every workload runs its algorithms through core::RunServing: its
// deterministic block is field-for-field what core::RunScenario gives
// on the same inputs (checked against a serial replay), and the
// serving engine is the only one that reports the per-query latency
// a user of the overlay sees. Why each workload exists is in
// README.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/churn.h"
#include "core/scenario.h"
#include "core/serving.h"
#include "core/space_factory.h"

namespace np::perfbench {

class Tracer;

/// Inputs of one workload: the world, the churn schedule, the engine
/// configuration and the algorithms run over them, in order.
struct World {
  core::SpaceFactory factory;
  core::ChurnSchedule schedule;
  core::ServingConfig serving;
  std::vector<std::string> algorithms;
};

/// Generates the inputs of workload `paper_noisy` or `serve_faulty`
/// from `seed`; the same seed gives the same inputs.
/// Throws on an unknown name.
World MakeWorld(const std::string& workload, std::uint64_t seed);

struct PassResult {
  /// Wall time from the first engine call to the last report.
  double run_s = 0.0;
  /// One report per algorithm, in World::algorithms order.
  std::vector<core::ServingReport> reports;
};

/// Runs every algorithm of `world` once. With a tracer, the engine
/// gets a CountingSpace and each algorithm a TracedAlgorithm.
PassResult RunPass(const World& world, Tracer* tracer);

/// Serial core::RunScenario replay of every algorithm of `world`.
std::vector<core::ScenarioReport> RunReplay(const World& world);

/// Exact equality of the deterministic block of two serving reports:
/// the scenario report, the staleness block and the snapshot count.
bool DeterministicBlocksEqual(const core::ServingReport& a,
                              const core::ServingReport& b);

/// FNV-1a digest (16 hex digits) of every deterministic field of
/// `reports`; doubles enter by bit pattern.
std::string Digest(const std::vector<core::ServingReport>& reports);

/// Mean wall time per backend Latency() call, ns, over a fixed stream
/// of node pairs drawn from `seed` (median of several replays).
double NsPerEval(const core::LatencySpace& space, std::uint64_t seed);

}  // namespace np::perfbench
