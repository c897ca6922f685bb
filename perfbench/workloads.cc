#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "bench/algo_factory.h"
#include "matrix/embedded_space.h"
#include "matrix/generators.h"
#include "tracer.h"
#include "util/error.h"
#include "util/rng.h"

namespace np::perfbench {
namespace {

// Independent streams of one workload seed.
constexpr std::uint64_t kWorldTag = 0x301d;
constexpr std::uint64_t kScheduleTag = 0x5c4e;
constexpr std::uint64_t kEngineTag = 0xe691;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

matrix::EmbeddedSpaceConfig EmbeddedWorld(NodeId n, std::uint64_t seed) {
  matrix::EmbeddedSpaceConfig config;
  config.num_nodes = n;
  config.dimensions = 3;
  config.side_ms = 100.0;
  config.distortion = 0.1;
  config.seed = util::Mix64(seed ^ kWorldTag);
  return config;
}

/// kLightChurnEvents alternating joins and leaves (of a uniformly
/// random live member), evenly spaced over 100 s.
core::ChurnSchedule LightChurn() {
  constexpr int kLightChurnEvents = 40;
  std::vector<core::ChurnEvent> events(kLightChurnEvents);
  for (int i = 0; i < kLightChurnEvents; ++i) {
    events[static_cast<std::size_t>(i)].time_s = 2.5 * (i + 1);
    events[static_cast<std::size_t>(i)].type =
        i % 2 == 0 ? core::ChurnEventType::kJoin : core::ChurnEventType::kLeave;
  }
  return core::ChurnSchedule::FromTrace(std::move(events));
}

// The paper's §4 clustered world with 10% probe noise: overlay build
// on a dense matrix dominates, and noise clamps it to one thread.
// Light churn from a fixed trace, not a Poisson schedule, so the
// amount of work does not vary with the seed. One reader: its queries
// are a small share of the pass, and with three their timings spread
// more between runs.
World PaperNoisyWorld(std::uint64_t seed) {
  matrix::ClusteredConfig world;
  world.num_clusters = 10;
  world.nets_per_cluster = 40;
  world.peers_per_net = 2;
  world.delta = 0.2;

  core::ServingConfig serving;
  serving.scenario.initial_overlay = 760;
  serving.scenario.epochs = 1;
  serving.scenario.queries_per_epoch = 2000;
  serving.scenario.num_threads = 4;
  serving.scenario.measurement_noise_frac = 0.1;
  serving.scenario.seed = util::Mix64(seed ^ kEngineTag);
  serving.reader_threads = 1;
  return World{
      core::SpaceFactory::MakeClustered(world, util::Mix64(seed ^ kWorldTag)),
      LightChurn(), serving, {"meridian", "karger-ruhl", "tiers"}};
}

// Query-heavy serving with crashes, probe loss, retries and noise: the
// readers race the writer's churn and every fault layer is active.
World ServeFaultyWorld(std::uint64_t seed) {
  core::ChurnScheduleConfig churn;
  churn.duration_s = 600.0;
  churn.events_per_s = 2.0;
  churn.mean_session_s = 240.0;
  churn.session_model = core::SessionModel::kLogNormal;
  churn.lognormal_sigma = 1.5;
  churn.crash_fraction = 0.3;
  churn.seed = util::Mix64(seed ^ kScheduleTag);

  core::ServingConfig serving;
  serving.scenario.initial_overlay = 900;
  serving.scenario.epochs = 6;
  serving.scenario.queries_per_epoch = 3000;
  serving.scenario.num_threads = 4;
  serving.scenario.measurement_noise_frac = 0.05;
  serving.scenario.fault.loss_rate = 0.05;
  serving.scenario.fault.max_attempts = 2;
  serving.scenario.seed = util::Mix64(seed ^ kEngineTag);
  serving.reader_threads = 3;
  return World{core::SpaceFactory::MakeEmbedded(EmbeddedWorld(10000, seed)),
               core::ChurnSchedule::Poisson(churn), serving,
               {"karger-ruhl", "tiers", "coord-vivaldi"}};
}

/// Canonical text of every deterministic field, for Digest().
class Canon {
 public:
  void Field(const char* key, std::uint64_t v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "=%" PRIu64 "\n", v);
    text_ += key;
    text_ += buf;
  }
  void Field(const char* key, std::int64_t v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "=%" PRId64 "\n", v);
    text_ += key;
    text_ += buf;
  }
  void Field(const char* key, int v) { Field(key, std::int64_t{v}); }
  void Field(const char* key, bool v) { Field(key, std::int64_t{v ? 1 : 0}); }
  void Field(const char* key, double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    char buf[48];
    std::snprintf(buf, sizeof(buf), "=0x%016" PRIx64 "\n", bits);
    text_ += key;
    text_ += buf;
  }
  void Field(const char* key, const std::string& v) {
    text_ += key;
    text_ += "=" + v + "\n";
  }
  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

void AddTotals(Canon& c, const core::ProbeCounter::Snapshot& t) {
  c.Field("query_probes", t.query_probes);
  c.Field("queries", t.queries);
  c.Field("maintenance_probes", t.maintenance_probes);
  c.Field("churn_events", t.churn_events);
  c.Field("build_probes", t.build_probes);
  c.Field("failed_probes", t.failed_probes);
  c.Field("retries", t.retries);
  c.Field("suspicion_skips", t.suspicion_skips);
  c.Field("probation_probes", t.probation_probes);
}

void AddEpoch(Canon& c, const core::EpochReport& e) {
  c.Field("epoch", e.epoch);
  c.Field("time_s", e.time_s);
  c.Field("live_members", std::int64_t{e.live_members});
  c.Field("joins", e.joins);
  c.Field("leaves", e.leaves);
  c.Field("crashes", e.crashes);
  c.Field("skipped_events", e.skipped_events);
  c.Field("rebuilt", e.rebuilt);
  c.Field("p_exact_closest", e.p_exact_closest);
  c.Field("p_correct_cluster", e.p_correct_cluster);
  c.Field("p_same_net", e.p_same_net);
  c.Field("mean_found_latency_ms", e.mean_found_latency_ms);
  c.Field("mean_hops", e.mean_hops);
  c.Field("excess_latency_p50_ms", e.excess_latency_p50_ms);
  c.Field("excess_latency_p95_ms", e.excess_latency_p95_ms);
  c.Field("excess_latency_p99_ms", e.excess_latency_p99_ms);
  c.Field("messages_per_query", e.messages_per_query);
  c.Field("maintenance_messages", e.maintenance_messages);
  c.Field("maintenance_per_event", e.maintenance_per_event);
  c.Field("p_query_failed", e.p_query_failed);
  c.Field("failed_probes", e.failed_probes);
  c.Field("retries", e.retries);
  c.Field("p_exact_reachable", e.p_exact_reachable);
  for (const core::EpochReport::ComponentStats& s : e.components) {
    c.Field("component", s.component);
    c.Field("component_members", std::int64_t{s.members});
    c.Field("component_queries", s.queries);
    c.Field("component_failed_queries", s.failed_queries);
    c.Field("component_load_gini", s.load_gini);
  }
  c.Field("quarantined_peers", e.quarantined_peers);
  c.Field("suspicion_skips", e.suspicion_skips);
  c.Field("probation_probes", e.probation_probes);
  c.Field("load_max", e.load_max);
  c.Field("load_median", e.load_median);
  c.Field("load_gini", e.load_gini);
}

void AddReport(Canon& c, const core::ServingReport& sr) {
  const core::ScenarioReport& r = sr.scenario;
  c.Field("algorithm", r.algorithm);
  c.Field("clustered", r.clustered);
  c.Field("build_messages", r.build_messages);
  c.Field("initial_members", std::int64_t{r.initial_members});
  c.Field("final_members", std::int64_t{r.final_members});
  for (const core::EpochReport& e : r.epochs) {
    AddEpoch(c, e);
  }
  AddTotals(c, r.totals);
  c.Field("messages_per_query", r.messages_per_query);
  c.Field("maintenance_per_event", r.maintenance_per_event);
  c.Field("fault_mode", r.fault_mode);
  c.Field("load_tracking", r.load_tracking);
  c.Field("partition_mode", r.partition_mode);
  c.Field("suspicion_mode", r.suspicion_mode);
  c.Field("failed_queries", r.failed_queries);
  c.Field("load_total", r.load.total);
  c.Field("load_max", r.load.max);
  c.Field("load_max_node", std::int64_t{r.load.max_node});
  c.Field("load_median", r.load.median);
  c.Field("load_gini", r.load.gini);
  for (const core::StalenessReport& s : sr.staleness) {
    c.Field("staleness_epoch", s.epoch);
    c.Field("p_exact_live", s.p_exact_live);
    c.Field("p_found_departed", s.p_found_departed);
  }
  c.Field("reader_threads", sr.reader_threads);
  c.Field("snapshots_published",
          static_cast<std::uint64_t>(sr.snapshots_published));
}

}  // namespace

World MakeWorld(const std::string& workload, std::uint64_t seed) {
  if (workload == "paper_noisy") {
    return PaperNoisyWorld(seed);
  }
  if (workload == "serve_faulty") {
    return ServeFaultyWorld(seed);
  }
  throw util::Error("unknown workload: " + workload);
}

PassResult RunPass(const World& world, Tracer* tracer) {
  std::unique_ptr<CountingSpace> counting;
  const core::LatencySpace* space = &world.factory.space();
  if (tracer != nullptr) {
    counting = std::make_unique<CountingSpace>(*space);
    space = counting.get();
  }
  std::vector<std::unique_ptr<core::NearestPeerAlgorithm>> algos;
  for (const std::string& name : world.algorithms) {
    std::unique_ptr<core::NearestPeerAlgorithm> algo =
        bench::MakeBenchAlgorithm(name);
    if (tracer != nullptr) {
      algo = std::make_unique<TracedAlgorithm>(std::move(algo),
                                               tracer->SinkFor(name));
    }
    algos.push_back(std::move(algo));
  }

  PassResult pass;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& algo : algos) {
    pass.reports.push_back(core::RunServing(*space, world.factory.layout(),
                                            *algo, world.schedule,
                                            world.serving));
  }
  pass.run_s = SecondsSince(start);
  return pass;
}

std::vector<core::ScenarioReport> RunReplay(const World& world) {
  std::vector<core::ScenarioReport> reports;
  for (const std::string& name : world.algorithms) {
    const auto algo = bench::MakeBenchAlgorithm(name);
    reports.push_back(core::RunScenario(world.factory.space(),
                                        world.factory.layout(), *algo,
                                        world.schedule,
                                        world.serving.scenario));
  }
  return reports;
}

bool DeterministicBlocksEqual(const core::ServingReport& a,
                              const core::ServingReport& b) {
  if (!core::ScenarioReportsIdentical(a.scenario, b.scenario) ||
      a.staleness.size() != b.staleness.size() ||
      a.snapshots_published != b.snapshots_published) {
    return false;
  }
  for (std::size_t i = 0; i < a.staleness.size(); ++i) {
    const core::StalenessReport& x = a.staleness[i];
    const core::StalenessReport& y = b.staleness[i];
    if (x.epoch != y.epoch || x.p_exact_live != y.p_exact_live ||
        x.p_found_departed != y.p_found_departed) {
      return false;
    }
  }
  return true;
}

std::string Digest(const std::vector<core::ServingReport>& reports) {
  Canon canon;
  for (const core::ServingReport& r : reports) {
    AddReport(canon, r);
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char ch : canon.text()) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

double NsPerEval(const core::LatencySpace& space, std::uint64_t seed) {
  constexpr std::size_t kPairs = std::size_t{1} << 20;
  constexpr int kReplays = 5;
  util::Rng rng(util::Mix64(seed ^ 0xe7a1));
  const auto n = static_cast<std::uint64_t>(space.size());
  std::vector<std::pair<NodeId, NodeId>> pairs(kPairs);
  for (auto& [a, b] : pairs) {
    a = static_cast<NodeId>(rng.NextUint64(n));
    b = static_cast<NodeId>(rng.NextUint64(n));
  }
  std::vector<double> ns(kReplays);
  double checksum = 0.0;
  for (double& sample : ns) {
    const auto start = std::chrono::steady_clock::now();
    for (const auto& [a, b] : pairs) {
      checksum += space.Latency(a, b);
    }
    sample = SecondsSince(start) * 1e9 / static_cast<double>(kPairs);
  }
  // Keeps the replay loop observable to the optimizer.
  NP_ENSURE(checksum >= 0.0, "negative latency in ns/eval replay");
  std::sort(ns.begin(), ns.end());
  return ns[kReplays / 2];
}

}  // namespace np::perfbench
