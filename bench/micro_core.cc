// Core micro-benchmarks with machine-readable output (BENCH_core.json):
// the hot building blocks of the §4 simulation pipeline — Floyd-Warshall
// metric repair (serial reference vs blocked/parallel), the triangle
//-violation scan, allocation-free nearest-neighbour queries, Meridian
// build/query, the full clustered experiment serial vs parallel, and
// the probe path: ns/probe for the dense, embedded and sparse
// backends, bare and through the composed ProbeChannel (clean, noise,
// noise + loss, grey loss), and ns per truth query on embedded worlds,
// exhaustive scan against the grid-pruned TruthIndex.
//
// The derived speedup_* metrics are the acceptance numbers for the
// parallel simulation core: on an N-core box, metric_repair and the
// clustered experiment should both approach Nx, and every *_match /
// *_agreement metric must be 1 — matches are bitwise (parallel vs the
// same code path on one thread); metric_repair_serial_agreement
// compares blocked vs the serial triple loop within rounding, since
// the tile schedule associates float sums differently.
//
// NP_BENCH_SCALE=quick shrinks every workload (CI smoke); the default
// runs at paper scale (n = 2000 repair, ~2500-peer world, 5000
// queries).
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/reporter.h"
#include "coord/vivaldi.h"
#include "core/experiment.h"
#include "core/nearest_algorithm.h"
#include "core/probe_channel.h"
#include "core/truth_index.h"
#include "dht/chord.h"
#include "matrix/embedded_space.h"
#include "matrix/generators.h"
#include "matrix/latency_matrix.h"
#include "matrix/partitioned_space.h"
#include "matrix/sparse_space.h"
#include "measure/path_graph.h"
#include "meridian/meridian.h"
#include "net/tools.h"
#include "util/parallel.h"
#include "util/rng.h"

#include "util/contract.h"

namespace {

using np::LatencyMs;
using np::NodeId;

np::matrix::LatencyMatrix RandomMatrix(NodeId n, std::uint64_t seed) {
  np::matrix::LatencyMatrix m(n);
  np::util::Rng rng(seed);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      m.Set(i, j, rng.Uniform(0.1, 250.0));
    }
  }
  return m;
}

bool SameMatrix(const np::matrix::LatencyMatrix& a,
                const np::matrix::LatencyMatrix& b) {
  for (NodeId i = 0; i < a.size(); ++i) {
    for (NodeId j = 0; j < a.size(); ++j) {
      if (a.At(i, j) != b.At(i, j)) {
        return false;
      }
    }
  }
  return true;
}

double MaxRelDiff(const np::matrix::LatencyMatrix& a,
                  const np::matrix::LatencyMatrix& b) {
  double worst = 0.0;
  for (NodeId i = 0; i < a.size(); ++i) {
    for (NodeId j = 0; j < a.size(); ++j) {
      const double denom = std::max(std::abs(a.At(i, j)), 1e-12);
      worst = std::max(worst, std::abs(a.At(i, j) - b.At(i, j)) / denom);
    }
  }
  return worst;
}

bool SameMetrics(const np::core::ClusteredMetrics& a,
                 const np::core::ClusteredMetrics& b) {
  return a.p_exact_closest == b.p_exact_closest &&
         a.p_correct_cluster == b.p_correct_cluster &&
         a.p_same_net == b.p_same_net &&
         a.median_wrong_hub_latency_ms == b.median_wrong_hub_latency_ms &&
         a.mean_found_latency_ms == b.mean_found_latency_ms &&
         a.mean_probes == b.mean_probes && a.mean_hops == b.mean_hops;
}

void BenchMetricRepair(np::bench::Reporter& reporter, NodeId n) {
  const auto base = RandomMatrix(n, 1);
  const double relaxations =
      static_cast<double>(n) * static_cast<double>(n) * static_cast<double>(n);

  auto serial = base;
  {
    auto phase = reporter.Phase("metric_repair_serial", relaxations);
    serial.MetricRepairSerial();
  }
  auto blocked1 = base;
  {
    auto phase = reporter.Phase("metric_repair_blocked_1t", relaxations);
    blocked1.MetricRepair(1);
  }
  auto blockedN = base;
  {
    auto phase = reporter.Phase("metric_repair_blocked_all", relaxations);
    blockedN.MetricRepair(0);
  }
  reporter.Derive("speedup_metric_repair_blocked_1t",
                  reporter.PhaseMs("metric_repair_serial") /
                      reporter.PhaseMs("metric_repair_blocked_1t"));
  reporter.Derive("speedup_metric_repair_blocked_all",
                  reporter.PhaseMs("metric_repair_serial") /
                      reporter.PhaseMs("metric_repair_blocked_all"));
  // Thread invariance is exact; agreement with the serial loop is to
  // rounding only (the tile schedule associates float sums
  // differently), so it gets a tolerance, not a bitwise check.
  reporter.Derive("metric_repair_match_threads",
                  SameMatrix(blocked1, blockedN) ? 1.0 : 0.0);
  reporter.Derive("metric_repair_serial_agreement",
                  MaxRelDiff(serial, blocked1) <= 1e-9 ? 1.0 : 0.0);

  // Triangle-violation scan on the repaired metric (smaller n: the
  // scan is a strict O(n^3) with no early exit).
  const NodeId vn = std::min<NodeId>(n, 600);
  auto repaired = RandomMatrix(vn, 2);
  repaired.MetricRepair(0);
  const double checks = static_cast<double>(vn) * static_cast<double>(vn) *
                        static_cast<double>(vn);
  double v1 = 0.0;
  double vall = 0.0;
  {
    auto phase = reporter.Phase("triangle_violation_1t", checks);
    v1 = repaired.MaxTriangleViolation(1);
  }
  {
    auto phase = reporter.Phase("triangle_violation_all", checks);
    vall = repaired.MaxTriangleViolation(0);
  }
  reporter.Derive("speedup_triangle_violation",
                  reporter.PhaseMs("triangle_violation_1t") /
                      reporter.PhaseMs("triangle_violation_all"));
  reporter.Derive("triangle_violation_match", v1 == vall ? 1.0 : 0.0);
}

void BenchNearestQueries(np::bench::Reporter& reporter, NodeId n,
                         int rounds) {
  const auto m = RandomMatrix(n, 3);
  const int k = 16;
  {
    auto phase = reporter.Phase("nearest_to_alloc",
                                static_cast<double>(rounds) * n);
    for (int r = 0; r < rounds; ++r) {
      for (NodeId from = 0; from < n; ++from) {
        const auto nearest = m.NearestTo(from, k);
        if (nearest.empty()) {
          return;
        }
      }
    }
  }
  {
    std::vector<NodeId> scratch;
    auto phase = reporter.Phase("nearest_to_scratch",
                                static_cast<double>(rounds) * n);
    for (int r = 0; r < rounds; ++r) {
      for (NodeId from = 0; from < n; ++from) {
        m.NearestTo(from, k, scratch);
        if (scratch.empty()) {
          return;
        }
      }
    }
  }
  reporter.Derive("speedup_nearest_to_scratch",
                  reporter.PhaseMs("nearest_to_alloc") /
                      reporter.PhaseMs("nearest_to_scratch"));
}

void BenchClusteredExperiment(np::bench::Reporter& reporter, bool quick) {
  np::matrix::ClusteredConfig config;
  config.nets_per_cluster = 25;
  config.num_clusters = quick ? 8 : 50;  // full: 1250 nets -> 2500 peers
  config.peers_per_net = 2;
  np::util::Rng world_rng(4);
  const auto world = np::matrix::GenerateClustered(config, world_rng);

  np::core::ExperimentConfig econfig;
  econfig.overlay_size = world.layout.peer_count() - 100;
  econfig.num_queries = quick ? 300 : 5000;

  // Reference phase: the serial overlay Build that RunClusteredExperiment
  // performs internally before its (parallel) query loop. Timed
  // standalone so the query-loop speedup can be estimated — the total
  // experiment speedup is Amdahl-capped by this serial prefix.
  {
    const np::core::MatrixSpace space(world.matrix);
    std::vector<NodeId> members;
    for (NodeId i = 0; i < econfig.overlay_size; ++i) {
      members.push_back(i);
    }
    np::meridian::MeridianOverlay algo{np::meridian::MeridianConfig{}};
    np::util::Rng rng(5);
    auto phase = reporter.Phase("clustered_build_reference",
                                econfig.overlay_size);
    algo.Build(space, members, rng);
  }

  np::core::ClusteredMetrics serial_metrics;
  np::core::ClusteredMetrics parallel_metrics;
  {
    np::meridian::MeridianOverlay algo{np::meridian::MeridianConfig{}};
    econfig.num_threads = 1;
    np::util::Rng rng(5);
    auto phase = reporter.Phase("clustered_experiment_serial",
                                econfig.num_queries);
    serial_metrics =
        np::core::RunClusteredExperiment(world, algo, econfig, rng);
  }
  {
    np::meridian::MeridianOverlay algo{np::meridian::MeridianConfig{}};
    econfig.num_threads = 0;
    np::util::Rng rng(5);
    auto phase = reporter.Phase("clustered_experiment_parallel",
                                econfig.num_queries);
    parallel_metrics =
        np::core::RunClusteredExperiment(world, algo, econfig, rng);
  }
  reporter.Derive("speedup_clustered_experiment",
                  reporter.PhaseMs("clustered_experiment_serial") /
                      reporter.PhaseMs("clustered_experiment_parallel"));
  // Query-loop-only estimate: subtract the serial build prefix from
  // both sides (clamped to stay meaningful on coarse clocks).
  const double build_ms = reporter.PhaseMs("clustered_build_reference");
  const double serial_q = std::max(
      reporter.PhaseMs("clustered_experiment_serial") - build_ms, 1e-3);
  const double parallel_q = std::max(
      reporter.PhaseMs("clustered_experiment_parallel") - build_ms, 1e-3);
  reporter.Derive("speedup_clustered_queries_est", serial_q / parallel_q);
  reporter.Derive("clustered_experiment_match",
                  SameMetrics(serial_metrics, parallel_metrics) ? 1.0 : 0.0);
  reporter.Derive("clustered_p_exact_closest",
                  parallel_metrics.p_exact_closest);
}

void BenchMeridian(np::bench::Reporter& reporter, NodeId n, int queries) {
  np::util::Rng world_rng(6);
  np::matrix::EuclideanConfig config;
  const auto world =
      np::matrix::GenerateEuclidean(n + 100, config, world_rng);
  const np::core::MatrixSpace space(world.matrix);
  std::vector<NodeId> members;
  for (NodeId i = 0; i < n; ++i) {
    members.push_back(i);
  }
  np::meridian::MeridianOverlay overlay{np::meridian::MeridianConfig{}};
  {
    np::util::Rng rng(7);
    auto phase = reporter.Phase("meridian_build", n);
    overlay.Build(space, members, rng);
  }
  {
    const np::core::MeteredSpace metered(space);
    np::util::Rng rng(8);
    auto phase = reporter.Phase("meridian_query", queries);
    for (int q = 0; q < queries; ++q) {
      const NodeId target = n + static_cast<NodeId>(q % 100);
      const auto result = overlay.FindNearest(target, metered, rng);
      if (result.found == np::kInvalidNode) {
        return;
      }
    }
  }
}

// Raw costs of the remaining building blocks (kept from the original
// micro suite so their perf trajectory stays tracked): clustered world
// generation, Chord lookups, Vivaldi training, topology latency
// queries, path-graph close-peer scans.
void BenchBuildingBlocks(np::bench::Reporter& reporter, bool quick) {
  {
    np::matrix::ClusteredConfig config;
    config.nets_per_cluster = 25;
    config.num_clusters = quick ? 10 : 50;
    np::util::Rng rng(9);
    auto phase = reporter.Phase("generate_clustered",
                                config.num_clusters * 25 * 2);
    const auto world = np::matrix::GenerateClustered(config, rng);
    if (world.matrix.size() == 0) {
      return;
    }
  }
  {
    const int n = quick ? 1024 : 16384;
    std::vector<NodeId> nodes;
    for (NodeId i = 0; i < n; ++i) {
      nodes.push_back(i);
    }
    const np::dht::ChordRing ring(nodes, np::dht::ChordConfig{});
    np::util::Rng rng(10);
    const int lookups = quick ? 2000 : 50000;
    auto phase = reporter.Phase("chord_lookup", lookups);
    for (int i = 0; i < lookups; ++i) {
      const auto result = ring.Lookup(rng(), rng);
      if (result.owner == np::kInvalidNode) {
        return;
      }
    }
  }
  {
    const NodeId n = quick ? 200 : 500;
    np::util::Rng world_rng(11);
    np::matrix::EuclideanConfig config;
    const auto world = np::matrix::GenerateEuclidean(n, config, world_rng);
    const np::core::MatrixSpace space(world.matrix);
    std::vector<NodeId> members;
    for (NodeId i = 0; i < n; ++i) {
      members.push_back(i);
    }
    np::coord::VivaldiConfig vconfig;
    np::util::Rng rng(12);
    auto phase = reporter.Phase("vivaldi_train", n);
    const auto embedding =
        np::coord::VivaldiEmbedding::Train(space, members, vconfig, rng);
    if (embedding.dimensions() == 0) {
      return;
    }
  }
  {
    np::net::TopologyConfig config = np::net::SmallTestConfig();
    config.azureus_hosts = quick ? 1000 : 3000;
    np::util::Rng world_rng(13);
    const auto topology = np::net::Topology::Generate(config, world_rng);
    const auto n = static_cast<NodeId>(topology.hosts().size());
    np::util::Rng rng(14);
    const int probes = quick ? 20000 : 200000;
    {
      auto phase = reporter.Phase("topology_latency", probes);
      double sink = 0.0;
      for (int i = 0; i < probes; ++i) {
        const auto a = static_cast<NodeId>(rng.Index(
            static_cast<std::size_t>(n)));
        const auto b = static_cast<NodeId>(rng.Index(
            static_cast<std::size_t>(n)));
        sink += topology.LatencyBetween(a, b);
      }
      if (sink < 0.0) {
        return;
      }
    }
    np::net::Tools tools(topology, np::net::NoiseConfig{},
                         np::util::Rng(15));
    const auto graph = np::measure::PathGraph::Build(
        topology, tools,
        topology.HostsOfKind(np::net::HostKind::kAzureusPeer));
    const int scans = quick ? 200 : 2000;
    auto phase = reporter.Phase("path_graph_close_peers", scans);
    for (int i = 0; i < scans; ++i) {
      const auto close = graph.ClosePeers(
          graph.peers()[static_cast<std::size_t>(i) % graph.peers().size()],
          10.0);
      if (close.size() > graph.peers().size()) {
        return;
      }
    }
  }
}

// ns/probe along the probe path, on the hot-loop access pattern every
// scheme uses: a pivot probed against a batch of candidates, pivot
// second (Latency(candidate, pivot)). "bare" calls the backend
// directly; the channel setups go through a ProbeChannel composed the
// way the engines compose it. Each sweep also runs batched, one
// LatencyMany per pivot on a fresh space of the same setup (the
// "_many" phases, which must measure the same sum), and each channel
// sweep runs a second time on the same channel ("_warm": every pair
// already tracked). Wall-clock numbers: recorded as phases (ops =
// probes) and derived probe_path_ns_*, never gated.
void BenchProbePath(np::bench::Reporter& reporter, bool quick) {
  np::matrix::ClusteredConfig dense_config;
  dense_config.num_clusters = quick ? 8 : 50;
  dense_config.nets_per_cluster = 25;
  np::util::Rng world_rng(16);
  const auto dense_world =
      np::matrix::GenerateClustered(dense_config, world_rng);
  const np::core::MatrixSpace dense(dense_world.matrix);
  np::matrix::EmbeddedSpaceConfig embedded_config;
  embedded_config.num_nodes = 10000;
  embedded_config.distortion = 0.1;
  embedded_config.seed = 17;
  const np::matrix::EmbeddedSpace embedded(embedded_config);
  np::matrix::SparseTopologyConfig sparse_config;
  sparse_config.num_nodes = 10000;
  sparse_config.seed = 22;
  const np::matrix::SparseTopologySpace sparse(sparse_config);

  np::matrix::PartitionSchedule grey;
  grey.grey_node_frac = 0.1;
  grey.grey_loss_rate = 0.3;
  grey.grey_seed = 18;

  struct Setup {
    const char* name;
    double noise;
    double loss;
    const np::matrix::PartitionSchedule* partition;
  };
  const Setup setups[] = {{"clean", 0.0, 0.0, nullptr},
                          {"noise", 0.1, 0.0, nullptr},
                          {"noise_loss", 0.1, 0.05, nullptr},
                          {"grey", 0.0, 0.0, &grey}};
  const int pivots = quick ? 200 : 2000;
  const NodeId candidates = 400;
  const double probes = static_cast<double>(pivots) * candidates;

  // Pivots and candidates spread over the whole space; pivot p reads
  // row p % rows.
  const auto pivot_of = [](int p, int rows, NodeId n) {
    const std::int64_t row = p % rows;
    return static_cast<NodeId>(row * 7919 % n);
  };
  const auto candidate_of = [](NodeId c, int p, NodeId n) {
    const std::int64_t scaled = static_cast<std::int64_t>(c) * 104729;
    return static_cast<NodeId>((scaled + p) % n);
  };
  const auto sweep = [&](const np::core::LatencySpace& space, int rows) {
    const NodeId n = space.size();
    double sink = 0.0;
    for (int p = 0; p < pivots; ++p) {
      const NodeId pivot = pivot_of(p, rows, n);
      for (NodeId c = 0; c < candidates; ++c) {
        const LatencyMs l = space.Latency(candidate_of(c, p, n), pivot);
        sink += l == l ? l : 0.0;  // lost probes are NaN
      }
    }
    return sink;
  };
  const auto sweep_many = [&](const np::core::LatencySpace& space, int rows) {
    const NodeId n = space.size();
    std::vector<NodeId> batch(static_cast<std::size_t>(candidates));
    std::vector<LatencyMs> out(batch.size());
    double sink = 0.0;
    for (int p = 0; p < pivots; ++p) {
      for (NodeId c = 0; c < candidates; ++c) {
        batch[static_cast<std::size_t>(c)] = candidate_of(c, p, n);
      }
      space.LatencyMany(batch, pivot_of(p, rows, n), out);
      for (const LatencyMs l : out) {
        sink += l == l ? l : 0.0;
      }
    }
    return sink;
  };
  // Times one sweep as phase probe_path_<tag> and derives its ns/probe.
  const auto timed = [&](const std::string& tag,
                         const np::core::LatencySpace& space, int rows,
                         bool batched) {
    double sink = 0.0;
    {
      auto phase = reporter.Phase("probe_path_" + tag, probes);
      sink = batched ? sweep_many(space, rows) : sweep(space, rows);
    }
    NP_ENSURE(sink > 0.0, "probe_path sweep measured nothing");
    reporter.Derive("probe_path_ns_" + tag,
                    reporter.PhaseMs("probe_path_" + tag) * 1e6 / probes);
    return sink;
  };
  const auto same_sum = [](double looped, double batched) {
    NP_ENSURE(batched == looped, "batched probe_path sweep measured otherwise");
  };

  // The sparse backend cycles through half as many pivots as its row
  // cache holds and is swept once untimed, so its timed probes are row
  // cache hits: a miss costs a whole Dijkstra row (about 4 ms at
  // n = 10^4), which would hide the cost of every layer.
  struct Backend {
    const char* name;
    const np::core::LatencySpace* space;
    int rows;
  };
  const Backend backends[] = {
      {"dense", &dense, pivots},
      {"embedded", &embedded, pivots},
      {"sparse", &sparse,
       static_cast<int>(sparse_config.row_cache_capacity / 2)}};
  for (const auto& [backend_name, backend, rows] : backends) {
    if (rows < pivots) {
      (void)sweep(*backend, rows);
    }
    const std::string bare = std::string(backend_name) + "_bare";
    same_sum(timed(bare, *backend, rows, false),
             timed(bare + "_many", *backend, rows, true));
    for (const Setup& setup : setups) {
      np::core::ProbeChannelConfig config;
      config.noise_frac = setup.noise;
      config.noise_seed = 19;
      config.loss_rate = setup.loss;
      config.fault_seed = 20;
      config.partition = setup.partition;
      config.partition_seed = 21;
      const std::string tag = std::string(backend_name) + "_" + setup.name;
      // Cold: every pair is new to the channel's trackers. Warm: the
      // same sweep again, so every pair hits a table already grown, as
      // in Meridian's ring-selection rounds.
      double cold[2];
      double warm[2];
      for (const bool batched : {false, true}) {
        const std::string suffix = batched ? "_many" : "";
        const np::core::ProbeChannel channel(*backend, config);
        cold[batched] = timed(tag + suffix, channel.space(), rows, batched);
        warm[batched] =
            timed(tag + "_warm" + suffix, channel.space(), rows, batched);
      }
      same_sum(cold[0], cold[1]);
      same_sum(warm[0], warm[1]);
    }
  }
}

// ns per truth query (the true closest member of one target) on
// embedded worlds: the exhaustive scan (TrueClosestMember) against the
// grid-pruned core::TruthIndex, whose answers must agree. Wall-clock:
// phases truth_scan_* / truth_index_* (ops = queries) and derived
// truth_ns_scan_* / truth_ns_index_*, never gated.
void BenchTruth(np::bench::Reporter& reporter, bool quick) {
  struct World {
    const char* tag;
    NodeId n;
    std::size_t members;
    int queries;
  };
  const World worlds[] = {{"n1e4_m1150", 10000, 1150, quick ? 2000 : 20000},
                          {"n1e5_m1e4", 100000, 10000, quick ? 200 : 2000}};
  for (const World& w : worlds) {
    np::matrix::EmbeddedSpaceConfig config;
    config.num_nodes = w.n;
    config.distortion = 0.1;
    config.seed = 23;
    const np::matrix::EmbeddedSpace space(config);
    np::util::Rng rng(24);
    std::vector<NodeId> nodes(static_cast<std::size_t>(w.n));
    for (NodeId i = 0; i < w.n; ++i) {
      nodes[static_cast<std::size_t>(i)] = i;
    }
    rng.Shuffle(nodes);
    const std::vector<NodeId> members(
        nodes.begin(), nodes.begin() + static_cast<std::ptrdiff_t>(w.members));
    std::vector<NodeId> targets(static_cast<std::size_t>(w.queries));
    for (NodeId& t : targets) {
      t = nodes[w.members + rng.Index(nodes.size() - w.members)];
    }
    const std::string tag = w.tag;
    const auto queries = static_cast<double>(w.queries);

    std::vector<NodeId> scanned(targets.size());
    {
      auto phase = reporter.Phase("truth_scan_" + tag, queries);
      for (std::size_t q = 0; q < targets.size(); ++q) {
        scanned[q] = np::core::TrueClosestMember(space, members, targets[q]);
      }
    }
    std::vector<NodeId> indexed(targets.size());
    {
      auto phase = reporter.Phase("truth_index_" + tag, queries);
      const np::core::TruthIndex index(space, members);
      for (std::size_t q = 0; q < targets.size(); ++q) {
        indexed[q] = index.Closest(targets[q]);
      }
    }
    NP_ENSURE(scanned == indexed, "truth index disagrees with the scan");
    reporter.Derive("truth_ns_scan_" + tag,
                    reporter.PhaseMs("truth_scan_" + tag) * 1e6 / queries);
    reporter.Derive("truth_ns_index_" + tag,
                    reporter.PhaseMs("truth_index_" + tag) * 1e6 / queries);
  }
}

}  // namespace

int main() {
  NP_REPORT_AFFECTING();
  np::bench::PrintHeader(
      "micro_core",
      "raw costs of the simulation core: blocked/parallel Floyd-Warshall "
      "vs serial, triangle scan, allocation-free nearest queries, "
      "Meridian build/query, clustered experiment serial vs parallel, "
      "ns/probe along the probe path, ns per truth query (scan vs "
      "grid index).");
  const bool quick = np::bench::QuickScale();

  np::bench::Reporter reporter("core");
  np::bench::Stopwatch total;

  BenchMetricRepair(reporter, quick ? 512 : 2000);
  BenchNearestQueries(reporter, quick ? 256 : 1024, quick ? 3 : 10);
  BenchClusteredExperiment(reporter, quick);
  BenchMeridian(reporter, quick ? 400 : 2400, quick ? 200 : 1000);
  BenchBuildingBlocks(reporter, quick);
  BenchProbePath(reporter, quick);
  BenchTruth(reporter, quick);

  reporter.Derive("total_wall_ms", total.ElapsedMs());
  reporter.Derive("query_loop_threads",
                  np::util::ResolveThreadCount(0));
  reporter.Write();
  np::bench::PrintNote(
      "speedup_* compare the serial reference against the blocked/"
      "parallel paths; *_match = 1 means bit-identical across thread "
      "counts, *_agreement = 1 means within rounding of serial.");
  return 0;
}
