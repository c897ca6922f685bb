// np_perfbench: runs one workload of the repository benchmark and
// prints one JSON result line (see README.md); run.py drives it.
//
//   np_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--expect-digest <hex>]
//
// --trace 0 measures the end-to-end metrics with tracing off: it
// builds the world once, then repeats a burst of timed set-ups and a
// whole pass over the workload while another pass fits in --seconds.
// Per-pass figures and set-up times are reported as medians. --trace 1
// runs a plain warm-up pass, a traced pass and a plain pass, checks
// that their reports are identical, and reports the per-layer metrics
// of the traced pass.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "tracer.h"
#include "util/error.h"
#include "util/stats.h"
#include "workloads.h"

namespace {

using np::perfbench::AlgoSink;
using np::perfbench::Op;
using np::perfbench::OpStats;
using np::perfbench::PassResult;
using np::perfbench::Tracer;
using np::perfbench::World;

/// Algorithms every workload runs, so each gets its own per-layer
/// metrics everywhere; all of a workload's algorithms are also pooled
/// under "algos.".
const std::vector<std::string> kPerAlgorithm = {"karger-ruhl", "tiers"};

/// Before each pass, set-up is repeated until it has run at least this
/// long and at least kMinSetupRepeats times. The machine's speed drifts
/// over seconds, so set-up samples are spread over the run like the
/// passes rather than taken at one moment.
constexpr double kSetupBurstS = 0.02;
constexpr int kMinSetupRepeats = 5;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string expect_digest;
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double Median(std::vector<double> values) {
  return np::util::Percentile(std::move(values), 50.0);
}

/// Median of `samples`, or 0 when fewer than 10 samples lie beyond it.
double ReportableMedian(const std::vector<double>& samples) {
  return samples.size() < 20 ? 0.0 : np::util::Percentile(samples, 50.0);
}

/// The highest of p99, p90 and p50 that has at least 10 samples beyond
/// it (0 with fewer than 20 samples). The sample count is fixed by the
/// workload, so the same percentile is compared across commits.
double TailPercentile(const std::vector<double>& samples) {
  for (const double q : {99.0, 90.0, 50.0}) {
    if (static_cast<double>(samples.size()) * (100.0 - q) / 100.0 >= 10.0) {
      return np::util::Percentile(samples, q);
    }
  }
  return 0.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t QueriesPerRun(const World& world) {
  return static_cast<std::uint64_t>(world.serving.scenario.epochs) *
         static_cast<std::uint64_t>(world.serving.scenario.queries_per_epoch) *
         world.algorithms.size();
}

std::uint64_t FailedQueries(const PassResult& pass) {
  std::uint64_t failed = 0;
  for (const auto& r : pass.reports) {
    failed += r.scenario.failed_queries;
  }
  return failed;
}

/// Checks shared by both modes: every query was issued and charged,
/// and the digest matches the committed one when there is one.
bool CheckPass(const World& world, const PassResult& pass,
               const std::string& expect_digest, const char* label) {
  bool ok = pass.reports.size() == world.algorithms.size();
  const auto per_algo =
      static_cast<std::uint64_t>(world.serving.scenario.epochs) *
      static_cast<std::uint64_t>(world.serving.scenario.queries_per_epoch);
  for (const auto& r : pass.reports) {
    if (r.scenario.totals.queries != per_algo) {
      std::fprintf(stderr, "check failed: %s %s charged %llu queries\n", label,
                   r.scenario.algorithm.c_str(),
                   static_cast<unsigned long long>(r.scenario.totals.queries));
      ok = false;
    }
  }
  const std::string digest = np::perfbench::Digest(pass.reports);
  std::fprintf(stderr, "%s digest %s\n", label, digest.c_str());
  if (!expect_digest.empty() && digest != expect_digest) {
    std::fprintf(stderr, "check failed: %s digest %s, expected %s\n", label,
                 digest.c_str(), expect_digest.c_str());
    ok = false;
  }
  return ok;
}

/// Appends the times of a burst of set-ups (world plus schedule
/// generation) to `setup_s`.
void TimeSetups(const Options& opt, std::vector<double>& setup_s) {
  double burst_s = 0.0;
  for (int i = 0; i < kMinSetupRepeats || burst_s < kSetupBurstS; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const World world = np::perfbench::MakeWorld(opt.workload, opt.seed);
    setup_s.push_back(SecondsSince(start));
    burst_s += setup_s.back();
  }
}

std::vector<Metric> RunEndToEnd(const Options& opt, bool& correct,
                                std::uint64_t& attempted,
                                std::uint64_t& failed) {
  const World world = np::perfbench::MakeWorld(opt.workload, opt.seed);

  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> qps;
  std::vector<double> p50;
  std::string first_digest;
  const auto start = std::chrono::steady_clock::now();
  do {
    TimeSetups(opt, setup_s);
    const PassResult pass = np::perfbench::RunPass(world, nullptr);
    correct = CheckPass(world, pass, opt.expect_digest, "pass") && correct;
    const std::string digest = np::perfbench::Digest(pass.reports);
    if (first_digest.empty()) {
      first_digest = digest;
    } else if (digest != first_digest) {
      std::fprintf(stderr, "check failed: pass digest changed to %s\n",
                   digest.c_str());
      correct = false;
    }
    attempted += QueriesPerRun(world);
    failed += FailedQueries(pass);

    double wall_s = 0.0;
    double sum_p50 = 0.0;
    for (const auto& r : pass.reports) {
      wall_s += r.wall_ms / 1000.0;
      sum_p50 += r.query_latency_p50_us;
    }
    const auto n = static_cast<double>(pass.reports.size());
    run_s.push_back(pass.run_s);
    qps.push_back(static_cast<double>(QueriesPerRun(world)) / wall_s);
    p50.push_back(sum_p50 / n);
    std::fprintf(stderr, "pass run_s %.4f serve_qps %.1f serve_p50_us %.2f\n",
                 run_s.back(), qps.back(), p50.back());
    // Stop when one more pass of the mean length would overrun.
    const double elapsed = SecondsSince(start);
    const double mean_pass = elapsed / static_cast<double>(run_s.size());
    if (elapsed + mean_pass > opt.seconds) {
      break;
    }
  } while (true);

  return {{"setup_s", Median(setup_s), "s"},
          {"run_s", Median(run_s), "s"},
          {"peak_rss_mb", PeakRssMb(), "MB"},
          {"serve_qps", Median(qps), "1/s"},
          {"serve_p50_us", Median(p50), "us"}};
}

using OpArray = std::array<OpStats, np::perfbench::kNumOps>;

/// Per-op stats of several algorithms merged into one.
OpArray Pool(const std::vector<OpArray>& parts) {
  OpArray pooled{};
  for (const OpArray& part : parts) {
    for (std::size_t op = 0; op < np::perfbench::kNumOps; ++op) {
      pooled[op].calls += part[op].calls;
      pooled[op].evals += part[op].evals;
      pooled[op].total_s += part[op].total_s;
      pooled[op].durations_us.insert(pooled[op].durations_us.end(),
                                     part[op].durations_us.begin(),
                                     part[op].durations_us.end());
    }
  }
  return pooled;
}

void AddOpMetrics(const std::string& prefix, const OpArray& ops,
                  std::vector<Metric>& out) {
  const OpStats& build = ops[static_cast<std::size_t>(Op::kBuild)];
  const OpStats& join = ops[static_cast<std::size_t>(Op::kJoin)];
  const OpStats& leave = ops[static_cast<std::size_t>(Op::kLeave)];
  const OpStats& find = ops[static_cast<std::size_t>(Op::kFind)];
  const OpStats& clone = ops[static_cast<std::size_t>(Op::kClone)];
  const std::string p = prefix + ".";
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  out.push_back({p + "build_s", build.total_s, "s"});
  out.push_back({p + "build_evals", count(build.evals), "count"});
  out.push_back({p + "join_s", join.total_s, "s"});
  out.push_back({p + "joins", count(join.calls), "count"});
  out.push_back({p + "join_p50_us", ReportableMedian(join.durations_us), "us"});
  out.push_back({p + "join_tail_us", TailPercentile(join.durations_us), "us"});
  out.push_back({p + "leave_s", leave.total_s, "s"});
  out.push_back({p + "leaves", count(leave.calls), "count"});
  out.push_back(
      {p + "leave_tail_us", TailPercentile(leave.durations_us), "us"});
  out.push_back({p + "find_s", find.total_s, "s"});
  out.push_back({p + "find_evals", count(find.evals), "count"});
  out.push_back({p + "find_p50_us", ReportableMedian(find.durations_us), "us"});
  out.push_back({p + "find_tail_us", TailPercentile(find.durations_us), "us"});
  out.push_back({p + "clone_ms",
                 clone.calls == 0
                     ? 0.0
                     : clone.total_s * 1000.0 / count(clone.calls),
                 "ms"});
}

std::vector<Metric> RunPerLayer(const Options& opt, bool& correct,
                                std::uint64_t& attempted,
                                std::uint64_t& failed) {
  const World world = np::perfbench::MakeWorld(opt.workload, opt.seed);
  const double ns_per_eval =
      np::perfbench::NsPerEval(world.factory.space(), opt.seed);
  // The first pass in a process runs slower (allocator and page-table
  // growth), so it only warms up; trace_overhead compares the traced
  // pass with the plain pass after it.
  const PassResult warmup = np::perfbench::RunPass(world, nullptr);
  correct = CheckPass(world, warmup, opt.expect_digest, "warmup") && correct;
  Tracer tracer;
  const PassResult traced = np::perfbench::RunPass(world, &tracer);
  correct = CheckPass(world, traced, opt.expect_digest, "traced") && correct;
  const PassResult plain = np::perfbench::RunPass(world, nullptr);
  correct = CheckPass(world, plain, opt.expect_digest, "plain") && correct;
  for (std::size_t i = 0; i < plain.reports.size(); ++i) {
    if (!np::perfbench::DeterministicBlocksEqual(plain.reports[i],
                                                 traced.reports[i])) {
      std::fprintf(stderr, "check failed: traced %s report differs\n",
                   world.algorithms[i].c_str());
      correct = false;
    }
  }
  attempted += 3 * QueriesPerRun(world);
  failed += FailedQueries(warmup) + FailedQueries(traced) + FailedQueries(plain);

  if (opt.workload == "serve_faulty") {
    const auto replay = np::perfbench::RunReplay(world);
    for (std::size_t i = 0; i < replay.size(); ++i) {
      if (!np::core::ScenarioReportsIdentical(replay[i],
                                              plain.reports[i].scenario)) {
        std::fprintf(stderr, "check failed: %s differs from serial replay\n",
                     world.algorithms[i].c_str());
        correct = false;
      }
    }
  }

  const np::perfbench::TraceTotals totals = tracer.Collect();
  std::uint64_t span_evals = 0;
  for (const auto& [name, sink] : tracer.sinks()) {
    for (const OpStats& op : sink->Snapshot()) {
      span_evals += op.evals;
    }
  }
  if (span_evals + totals.truth_evals != totals.total_evals) {
    std::fprintf(stderr,
                 "check failed: span evals %llu + truth %llu != total %llu\n",
                 static_cast<unsigned long long>(span_evals),
                 static_cast<unsigned long long>(totals.truth_evals),
                 static_cast<unsigned long long>(totals.total_evals));
    correct = false;
  }
  const double busy_s = tracer.BusySeconds();
  if (busy_s > traced.run_s) {
    std::fprintf(stderr, "check failed: spans cover %.6f s of a %.6f s run\n",
                 busy_s, traced.run_s);
    correct = false;
  }
  if (totals.overlap_violations != 0) {
    std::fprintf(stderr, "check failed: %llu calls overlapped a parallel build\n",
                 static_cast<unsigned long long>(totals.overlap_violations));
    correct = false;
  }

  std::uint64_t probes = 0;
  std::uint64_t retries = 0;
  std::uint64_t failed_probes = 0;
  for (const auto& r : traced.reports) {
    const auto& t = r.scenario.totals;
    probes += t.query_probes + t.maintenance_probes + t.build_probes;
    retries += t.retries;
    failed_probes += t.failed_probes;
  }
  const double probe_base = probes == 0 ? 1.0 : static_cast<double>(probes);

  std::vector<Metric> out;
  std::vector<OpArray> all;
  for (const auto& [name, sink] : tracer.sinks()) {
    all.push_back(sink->Snapshot());
  }
  AddOpMetrics("algos", Pool(all), out);
  for (const std::string& algo : kPerAlgorithm) {
    AddOpMetrics(algo, tracer.SinkFor(algo).Snapshot(), out);
  }
  out.push_back({"core.other_s", traced.run_s - busy_s, "s"});
  out.push_back(
      {"core.truth_evals", static_cast<double>(totals.truth_evals), "count"});
  out.push_back({"core.retry_share", static_cast<double>(retries) / probe_base,
                 "ratio"});
  out.push_back({"core.failed_probe_share",
                 static_cast<double>(failed_probes) / probe_base, "ratio"});
  out.push_back(
      {"matrix.evals", static_cast<double>(totals.total_evals), "count"});
  out.push_back({"matrix.ns_per_eval", ns_per_eval, "ns"});
  out.push_back({"trace_overhead", traced.run_s / plain.run_s, "ratio"});
  return out;
}

bool ParseOptions(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = std::stoi(value);
    } else if (key == "--expect-digest") {
      opt.expect_digest = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0 &&
         (opt.trace == 0 || opt.trace == 1);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!ParseOptions(argc, argv, opt)) {
      std::fprintf(stderr,
                   "usage: np_perfbench --workload <name> --seed <n> "
                   "--seconds <s> --trace <0|1> [--expect-digest <hex>]\n");
      return 2;
    }
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    const std::vector<Metric> metrics =
        opt.trace == 0 ? RunEndToEnd(opt, correct, attempted, failed)
                       : RunPerLayer(opt, correct, attempted, failed);
    if (!correct) {
      failed = attempted;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "np_perfbench: %s\n", e.what());
    return 1;
  }
}
