#include "matrix/faulty_space.h"

#include "util/error.h"
#include "util/rng.h"

namespace np::matrix {

FaultySpace::FaultySpace(const core::LatencySpace& inner, double loss_rate,
                         std::uint64_t seed,
                         const std::unordered_set<NodeId>* crashed)
    : inner_(&inner),
      loss_rate_(loss_rate),
      crashed_(crashed),
      attempts_(seed) {
  NP_ENSURE(loss_rate >= 0.0 && loss_rate < 1.0,
            "FaultySpace loss_rate must be in [0, 1)");
}

LatencyMs FaultySpace::Latency(NodeId a, NodeId b) const {
  // A crashed endpoint never answers, regardless of loss rate; checked
  // first so crash-only instances (loss_rate == 0) stay read-only and
  // shareable across query threads.
  if (crashed_ != nullptr && !crashed_->empty() &&
      (crashed_->count(a) != 0 || crashed_->count(b) != 0)) {
    return kLostProbeMs;
  }
  // a == b is a self-measurement (no network), exempt from loss like it
  // is exempt from NoisySpace jitter.
  if (loss_rate_ <= 0.0 || a == b) {
    return inner_->Latency(a, b);
  }
  if (util::MixToUnit(attempts_.Next(a, b)) < loss_rate_) {
    return kLostProbeMs;
  }
  return inner_->Latency(a, b);
}

void FaultySpace::LatencyMany(std::span<const NodeId> nodes, NodeId pivot,
                              std::span<LatencyMs> out) const {
  const bool crashes = crashed_ != nullptr && !crashed_->empty();
  if (!crashes && loss_rate_ <= 0.0) {
    inner_->LatencyMany(nodes, pivot, out);
    return;
  }
  if (crashes && crashed_->count(pivot) != 0) {
    // A dead pivot answers nothing and, as in Latency(), draws no loss.
    std::fill(out.begin(), out.end(), kLostProbeMs);
    return;
  }
  LatencyManySurvivors(*inner_, nodes, pivot, out, [&](std::size_t i) {
    const NodeId a = nodes[i];
    if (crashes && crashed_->count(a) != 0) {
      return true;
    }
    if (loss_rate_ <= 0.0 || a == pivot) {
      return false;
    }
    if (i + core::kPrefetchAhead < nodes.size()) {
      attempts_.Prefetch(nodes[i + core::kPrefetchAhead], pivot);
    }
    return util::MixToUnit(attempts_.Next(a, pivot)) < loss_rate_;
  });
}

std::size_t FaultySpace::PairHeadroom() const {
  const std::size_t inner = inner_->PairHeadroom();
  return loss_rate_ > 0.0 ? std::min(attempts_.headroom(), inner) : inner;
}

}  // namespace np::matrix
