// Self-checks of the benchmark's tracer: tracing must not change any
// report, its evaluation accounting must close exactly, and
// evaluations made on ParallelBuild worker threads must be charged to
// the build, not to the engine.
#include "tracer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "matrix/embedded_space.h"
#include "matrix/generators.h"
#include "workloads.h"

namespace np::perfbench {
namespace {

World SmallEmbedded(bool faulty, int threads,
                    std::vector<std::string> algorithms) {
  matrix::EmbeddedSpaceConfig space;
  space.num_nodes = 3000;
  space.distortion = 0.1;
  space.seed = 5;
  core::ChurnScheduleConfig churn;
  churn.duration_s = 300.0;
  churn.events_per_s = 2.0;
  churn.mean_session_s = 120.0;
  churn.crash_fraction = faulty ? 0.3 : 0.0;
  churn.seed = 6;
  core::ServingConfig serving;
  serving.scenario.initial_overlay = 500;
  serving.scenario.epochs = 3;
  serving.scenario.queries_per_epoch = 300;
  serving.scenario.num_threads = threads;
  serving.scenario.seed = 7;
  if (faulty) {
    serving.scenario.measurement_noise_frac = 0.05;
    serving.scenario.fault.loss_rate = 0.05;
    serving.scenario.fault.max_attempts = 2;
  }
  serving.reader_threads = 3;
  return World{core::SpaceFactory::MakeEmbedded(space),
               core::ChurnSchedule::Poisson(churn), serving,
               std::move(algorithms)};
}

World SmallClustered() {
  matrix::ClusteredConfig config;
  config.num_clusters = 6;
  config.nets_per_cluster = 20;
  config.peers_per_net = 2;
  core::ChurnScheduleConfig churn;
  churn.duration_s = 100.0;
  churn.events_per_s = 0.1;
  churn.seed = 8;
  core::ServingConfig serving;
  serving.scenario.initial_overlay = 200;
  serving.scenario.epochs = 1;
  serving.scenario.queries_per_epoch = 400;
  serving.scenario.num_threads = 4;
  serving.scenario.measurement_noise_frac = 0.1;
  serving.scenario.seed = 9;
  serving.reader_threads = 3;
  return World{core::SpaceFactory::MakeClustered(config, 10),
               core::ChurnSchedule::Poisson(churn), serving,
               {"meridian", "tiers"}};
}

/// Evaluations charged to algorithm spans, summed over every op.
std::uint64_t SpanEvals(const Tracer& tracer) {
  std::uint64_t evals = 0;
  for (const auto& [name, sink] : tracer.sinks()) {
    for (const OpStats& op : sink->Snapshot()) {
      evals += op.evals;
    }
  }
  return evals;
}

void ExpectTracingIsInvisible(const World& world) {
  const PassResult plain = RunPass(world, nullptr);
  Tracer tracer;
  const PassResult traced = RunPass(world, &tracer);
  ASSERT_EQ(plain.reports.size(), traced.reports.size());
  for (std::size_t i = 0; i < plain.reports.size(); ++i) {
    EXPECT_TRUE(DeterministicBlocksEqual(plain.reports[i], traced.reports[i]))
        << world.algorithms[i];
  }
  EXPECT_EQ(Digest(plain.reports), Digest(traced.reports));

  EXPECT_GT(tracer.BusySeconds(), 0.0);
  EXPECT_LE(tracer.BusySeconds(), traced.run_s);
  const TraceTotals totals = tracer.Collect();
  EXPECT_GT(totals.total_evals, 0u);
  EXPECT_EQ(SpanEvals(tracer) + totals.truth_evals, totals.total_evals);
  EXPECT_EQ(totals.overlap_violations, 0u);
}

TEST(PerfbenchTracer, FaultyServingReportsMatchUntraced) {
  ExpectTracingIsInvisible(
      SmallEmbedded(/*faulty=*/true, 4, {"karger-ruhl", "tiers"}));
}

TEST(PerfbenchTracer, NoisyClusteredReportsMatchUntraced) {
  ExpectTracingIsInvisible(SmallClustered());
}

TEST(PerfbenchTracer, ServingMatchesSerialReplay) {
  const World world =
      SmallEmbedded(/*faulty=*/true, 1, {"karger-ruhl", "coord-vivaldi"});
  const PassResult pass = RunPass(world, nullptr);
  const std::vector<core::ScenarioReport> replay = RunReplay(world);
  ASSERT_EQ(replay.size(), pass.reports.size());
  for (std::size_t i = 0; i < replay.size(); ++i) {
    EXPECT_TRUE(
        core::ScenarioReportsIdentical(replay[i], pass.reports[i].scenario))
        << world.algorithms[i];
  }
}

TEST(PerfbenchTracer, ParallelBuildWorkerEvalsLandInBuild) {
  // Noise- and fault-free, so every maintenance probe is exactly one
  // backend evaluation and the build's share is the report's
  // build_messages, whatever the thread count.
  std::vector<std::uint64_t> build_evals;
  std::vector<std::uint64_t> truth_evals;
  for (const int threads : {1, 4}) {
    const World world = SmallEmbedded(/*faulty=*/false, threads, {"tiers"});
    Tracer tracer;
    const PassResult pass = RunPass(world, &tracer);
    const OpStats build =
        tracer.SinkFor("tiers").Snapshot()[static_cast<std::size_t>(Op::kBuild)];
    EXPECT_EQ(build.evals, pass.reports[0].scenario.build_messages)
        << threads << " threads";
    const TraceTotals totals = tracer.Collect();
    EXPECT_EQ(SpanEvals(tracer) + totals.truth_evals, totals.total_evals);
    EXPECT_EQ(totals.overlap_violations, 0u);
    build_evals.push_back(build.evals);
    truth_evals.push_back(totals.truth_evals);
  }
  EXPECT_EQ(build_evals[0], build_evals[1]);
  EXPECT_EQ(truth_evals[0], truth_evals[1]);
}

}  // namespace
}  // namespace np::perfbench
