#include "matrix/embedded_space.h"

#include <cmath>
#include <utility>

#include "util/error.h"
#include "util/rng.h"

namespace np::matrix {

namespace {

void Validate(const EmbeddedSpaceConfig& config) {
  NP_ENSURE(config.num_nodes >= 1, "EmbeddedSpace requires n >= 1");
  NP_ENSURE(config.dimensions >= 1, "need at least one dimension");
  NP_ENSURE(config.side_ms > 0.0, "side must be positive");
  NP_ENSURE(config.distortion >= 0.0 && config.distortion < 1.0,
            "distortion must be in [0, 1)");
}

}  // namespace

EmbeddedSpace::EmbeddedSpace(const EmbeddedSpaceConfig& config)
    : config_(config) {
  Validate(config_);
  util::Rng rng(util::Mix64(config_.seed));
  coords_.resize(static_cast<std::size_t>(config_.num_nodes) *
                 static_cast<std::size_t>(config_.dimensions));
  for (double& c : coords_) {
    c = rng.Uniform(0.0, config_.side_ms);
  }
}

EmbeddedSpace::EmbeddedSpace(const EmbeddedSpaceConfig& config,
                             std::vector<double> coordinates)
    : config_(config), coords_(std::move(coordinates)) {
  Validate(config_);
  NP_ENSURE(coords_.size() == static_cast<std::size_t>(config_.num_nodes) *
                                  static_cast<std::size_t>(config_.dimensions),
            "need num_nodes x dimensions coordinates");
  for (const double c : coords_) {
    NP_ENSURE(c >= 0.0 && c <= config_.side_ms,
              "coordinates must lie in [0, side_ms]");
  }
}

LatencyMs EmbeddedSpace::Latency(NodeId a, NodeId b) const {
  NP_DCHECK(a >= 0 && a < config_.num_nodes, "node id out of range");
  NP_DCHECK(b >= 0 && b < config_.num_nodes, "node id out of range");
  if (a == b) {
    return 0.0;
  }
  const auto dims = static_cast<std::size_t>(config_.dimensions);
  const double* pa = coords_.data() + static_cast<std::size_t>(a) * dims;
  const double* pb = coords_.data() + static_cast<std::size_t>(b) * dims;
  double sq = 0.0;
  for (std::size_t d = 0; d < dims; ++d) {
    const double diff = pa[d] - pb[d];
    sq += diff * diff;
  }
  double latency = std::sqrt(sq);
  if (config_.distortion > 0.0) {
    // One uniform draw keyed on the unordered pair: probe-order- and
    // direction-independent by construction.
    const double u = util::MixToUnit(
        util::Mix64(config_.seed ^ util::PairKey(a, b)));
    latency *= 1.0 + config_.distortion * (2.0 * u - 1.0);
  }
  // Two random points can coincide; keep a strictly positive floor so
  // "closest" stays well-defined (same floor as GenerateEuclidean).
  return std::max(latency, 1e-6);
}

LatencyMatrix EmbeddedSpace::Materialize() const {
  LatencyMatrix m(config_.num_nodes);
  for (NodeId a = 0; a < config_.num_nodes; ++a) {
    for (NodeId b = a + 1; b < config_.num_nodes; ++b) {
      m.Set(a, b, Latency(a, b));
    }
  }
  return m;
}

}  // namespace np::matrix
