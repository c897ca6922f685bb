#include "core/probe_channel.h"

#include "util/error.h"

namespace np::core {

ProbeChannel::ProbeChannel(const LatencySpace& backend,
                           const ProbeChannelConfig& config) {
  // Range checks run whether or not a layer is composed, so a bad
  // config fails the same way it did when every layer was built.
  NP_ENSURE(config.loss_rate >= 0.0 && config.loss_rate < 1.0,
            "FaultySpace loss_rate must be in [0, 1)");
  if (config.partition != nullptr) {
    config.partition->Validate();
  }
  const LatencySpace* top = &backend;
  if (config.noise_frac > 0.0 || config.noise_floor_ms > 0.0) {
    noisy_.emplace(*top, config.noise_frac, config.noise_seed,
                   config.noise_floor_ms);
    top = &*noisy_;
    stateful_ = true;
  }
  if (config.partition != nullptr && config.partition->Any()) {
    partitioned_.emplace(*top, *config.partition, config.partition_seed);
    if (config.epoch >= 0) {
      partitioned_->set_epoch(config.epoch);
    }
    top = &*partitioned_;
    stateful_ = stateful_ || config.partition->GreyActive();
  }
  if (config.loss_rate > 0.0 || config.crashes_possible) {
    faulty_.emplace(*top, config.loss_rate, config.fault_seed, config.crashed);
    top = &*faulty_;
    stateful_ = stateful_ || config.loss_rate > 0.0;
  }
  metered_.emplace(*top, config.ledger);
}

void ProbeChannel::set_crashed(const std::unordered_set<NodeId>* crashed) {
  if (faulty_) {
    faulty_->set_crashed(crashed);
  }
}

int ProbeChannel::BuildThreads(int requested) const {
  return stateful_ ? 1 : requested;
}

}  // namespace np::core
