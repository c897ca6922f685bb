// Golden pin of the probe path: a digest of every deterministic field
// of RunScenario and RunServing reports over a small dense clustered
// world with every probe-path layer active at once — measurement noise
// (relative and absolute floor), i.i.d. loss with retries, grey nodes,
// one-way loss, a partition window, crashes and the suspicion
// detector.
//
// The committed scenarios never turn noise on together with the fault
// layers, so without this pin a change to how the probe path is
// composed (layer order, per-pair trackers, stream keying, the
// build-thread clamp) could move reports and no other check would
// notice. The digests were taken before the probe path was reworked;
// any change to them means some report moved.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>

#include "bench/algo_factory.h"
#include "core/churn.h"
#include "core/scenario.h"
#include "core/serving.h"
#include "matrix/generators.h"

namespace np::core {
namespace {

/// Canonical text of every deterministic report field; doubles enter
/// by bit pattern so the digest is a bitwise pin.
class Canon {
 public:
  void Add(const char* key, std::uint64_t v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "=%" PRIu64 "\n", v);
    text_ += key;
    text_ += buf;
  }
  void Add(const char* key, std::int64_t v) {
    Add(key, static_cast<std::uint64_t>(v));
  }
  void Add(const char* key, int v) { Add(key, std::int64_t{v}); }
  void Add(const char* key, bool v) { Add(key, std::uint64_t{v ? 1u : 0u}); }
  void Add(const char* key, double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(key, bits);
  }
  void Add(const char* key, const std::string& v) {
    text_ += key;
    text_ += "=" + v + "\n";
  }

  void AddTotals(const ProbeCounter::Snapshot& t) {
    Add("query_probes", t.query_probes);
    Add("queries", t.queries);
    Add("maintenance_probes", t.maintenance_probes);
    Add("churn_events", t.churn_events);
    Add("build_probes", t.build_probes);
    Add("failed_probes", t.failed_probes);
    Add("retries", t.retries);
    Add("suspicion_skips", t.suspicion_skips);
    Add("probation_probes", t.probation_probes);
  }

  void AddEpoch(const EpochReport& e) {
    Add("epoch", e.epoch);
    Add("time_s", e.time_s);
    Add("live_members", std::int64_t{e.live_members});
    Add("joins", e.joins);
    Add("leaves", e.leaves);
    Add("crashes", e.crashes);
    Add("skipped_events", e.skipped_events);
    Add("rebuilt", e.rebuilt);
    Add("p_exact_closest", e.p_exact_closest);
    Add("p_correct_cluster", e.p_correct_cluster);
    Add("p_same_net", e.p_same_net);
    Add("mean_found_latency_ms", e.mean_found_latency_ms);
    Add("mean_hops", e.mean_hops);
    Add("excess_latency_p50_ms", e.excess_latency_p50_ms);
    Add("excess_latency_p95_ms", e.excess_latency_p95_ms);
    Add("excess_latency_p99_ms", e.excess_latency_p99_ms);
    Add("messages_per_query", e.messages_per_query);
    Add("maintenance_messages", e.maintenance_messages);
    Add("maintenance_per_event", e.maintenance_per_event);
    Add("p_query_failed", e.p_query_failed);
    Add("failed_probes", e.failed_probes);
    Add("retries", e.retries);
    Add("p_exact_reachable", e.p_exact_reachable);
    for (const EpochReport::ComponentStats& c : e.components) {
      Add("component", c.component);
      Add("component_members", std::int64_t{c.members});
      Add("component_queries", c.queries);
      Add("component_failed_queries", c.failed_queries);
      Add("component_load_gini", c.load_gini);
    }
    Add("quarantined_peers", e.quarantined_peers);
    Add("suspicion_skips", e.suspicion_skips);
    Add("probation_probes", e.probation_probes);
    Add("load_max", e.load_max);
    Add("load_median", e.load_median);
    Add("load_gini", e.load_gini);
  }

  void AddScenario(const ScenarioReport& r) {
    Add("algorithm", r.algorithm);
    Add("clustered", r.clustered);
    Add("build_messages", r.build_messages);
    Add("initial_members", std::int64_t{r.initial_members});
    Add("final_members", std::int64_t{r.final_members});
    for (const EpochReport& e : r.epochs) {
      AddEpoch(e);
    }
    AddTotals(r.totals);
    Add("messages_per_query", r.messages_per_query);
    Add("maintenance_per_event", r.maintenance_per_event);
    Add("fault_mode", r.fault_mode);
    Add("load_tracking", r.load_tracking);
    Add("partition_mode", r.partition_mode);
    Add("suspicion_mode", r.suspicion_mode);
    Add("failed_queries", r.failed_queries);
    Add("load_total", r.load.total);
    Add("load_max", r.load.max);
    Add("load_max_node", std::int64_t{r.load.max_node});
    Add("load_median", r.load.median);
    Add("load_gini", r.load.gini);
  }

  void AddServing(const ServingReport& sr) {
    AddScenario(sr.scenario);
    for (const StalenessReport& s : sr.staleness) {
      Add("staleness_epoch", s.epoch);
      Add("p_exact_live", s.p_exact_live);
      Add("p_found_departed", s.p_found_departed);
    }
    Add("reader_threads", sr.reader_threads);
    Add("snapshots_published",
        static_cast<std::uint64_t>(sr.snapshots_published));
  }

  /// FNV-1a over the text, as 16 hex digits.
  std::string Digest() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char ch : text_) {
      h ^= ch;
      h *= 0x100000001b3ULL;
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
  }

 private:
  std::string text_;
};

matrix::ClusteredWorld GoldenWorld() {
  matrix::ClusteredConfig config;
  config.num_clusters = 4;
  config.nets_per_cluster = 15;
  config.peers_per_net = 2;
  config.delta = 0.4;
  util::Rng rng(2024);
  return matrix::GenerateClustered(config, rng);
}

ChurnSchedule GoldenSchedule() {
  ChurnScheduleConfig config;
  config.duration_s = 120.0;
  config.events_per_s = 0.25;
  config.join_fraction = 0.5;
  config.crash_fraction = 0.3;
  config.seed = 31;
  return ChurnSchedule::Poisson(config);
}

/// Every probe-path layer on: noise + floor, loss with a retry, grey
/// nodes, one-way loss, a partition window, and suspicion.
ScenarioConfig GoldenConfig() {
  ScenarioConfig config;
  config.initial_overlay = 60;
  config.epochs = 4;
  config.queries_per_epoch = 40;
  config.num_threads = 2;
  config.measurement_noise_frac = 0.1;
  config.measurement_noise_floor_ms = 0.5;
  config.fault.loss_rate = 0.05;
  config.fault.max_attempts = 2;
  config.fault.grey_node_frac = 0.1;
  config.fault.grey_loss_rate = 0.3;
  config.fault.asymmetric_loss = 0.02;
  FaultConfig::Partition window;
  window.start_epoch = 1;
  window.end_epoch = 3;
  window.groups = {{0, 1}, {2, 3}};
  config.fault.partitions.push_back(window);
  config.fault.suspicion.strikes = 2;
  config.seed = 4242;
  return config;
}

struct GoldenCase {
  const char* algorithm;
  const char* scenario_digest;
  const char* serving_digest;
};

// Without this gtest prints the raw bytes of the three pointers, and
// the test's listed name (which carries the printed value) would move
// with address-space randomisation on every run.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.algorithm; }

class ProbePathGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ProbePathGolden, ReportsMatchPinnedDigests) {
  const GoldenCase& c = GetParam();
  const matrix::ClusteredWorld world = GoldenWorld();
  const MatrixSpace space(world.matrix);
  const ChurnSchedule schedule = GoldenSchedule();

  ScenarioConfig scenario_config = GoldenConfig();
  scenario_config.fault.track_load = true;
  const auto scenario_algo = bench::MakeBenchAlgorithm(c.algorithm);
  const ScenarioReport report = RunScenario(
      space, &world.layout, *scenario_algo, schedule, scenario_config);
  // The world must exercise every layer, or the pin guards nothing.
  std::int64_t crashes = 0;
  std::size_t partitioned_epochs = 0;
  for (const EpochReport& e : report.epochs) {
    crashes += e.crashes;
    partitioned_epochs += e.components.empty() ? 0 : 1;
  }
  EXPECT_GT(crashes, 0);
  EXPECT_GT(partitioned_epochs, 0u);
  EXPECT_GT(report.totals.failed_probes, 0u);
  EXPECT_GT(report.totals.retries, 0u);
  EXPECT_TRUE(report.partition_mode && report.suspicion_mode);
  Canon scenario;
  scenario.AddScenario(report);

  ServingConfig serving_config;
  serving_config.scenario = GoldenConfig();
  serving_config.reader_threads = 2;
  const auto serving_algo = bench::MakeBenchAlgorithm(c.algorithm);
  Canon serving;
  serving.AddServing(RunServing(space, &world.layout, *serving_algo, schedule,
                                serving_config));

  EXPECT_EQ(scenario.Digest(), c.scenario_digest);
  EXPECT_EQ(serving.Digest(), c.serving_digest);
}

INSTANTIATE_TEST_SUITE_P(
    AllLayers, ProbePathGolden,
    ::testing::Values(
        GoldenCase{"meridian", "8ef2fbfde9de4819", "b2d8493ade336f3c"},
        GoldenCase{"karger-ruhl", "e5b0154cb6814a5f", "2b2a50e8b863d87f"},
        GoldenCase{"tiers", "e51bb10c20add4b7", "793136c66cd4cb18"},
        GoldenCase{"tapestry", "f94628c3f7ec6bf9", "b1a092d34d7bc237"},
        GoldenCase{"coord-vivaldi", "949afcdfc8aaba6e", "92967ef818c3d695"}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      std::string name = info.param.algorithm;
      for (char& ch : name) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace np::core
