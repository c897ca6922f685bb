// One probe path, composed once.
//
// Every probe an engine issues — overlay build, churn maintenance, each
// query — travels the same decorator stack over the latency backend:
//
//   Metered -> Faulty -> Partitioned -> Noisy -> backend
//
// ProbeChannel builds that stack from one config and composes only the
// layers the config turns on:
//
//   * Noisy       when noise_frac > 0 or noise_floor_ms > 0;
//   * Partitioned when the correlated-fault schedule has any pathology
//                 (PartitionSchedule::Any());
//   * Faulty      when loss_rate > 0 or a peer can crash while the
//                 channel is in use;
//   * Metered     always: it is what the engines bill.
//
// A skipped layer would have forwarded every probe verbatim (zero
// noise returns the true latency, an empty schedule and zero loss with
// no crashed peer lose nothing), so reports are byte-identical to the
// full stack while a fault-free, noise-free probe reaches the backend
// through one virtual call instead of four.
//
// Batched probes: every layer answers LatencyMany(nodes, pivot, out)
// with exactly the per-probe loop's values and side effects (counted in
// one pass, drawn in a second; loss layers forward only survivors), and
// ProbePolicy::ProbeMany builds retries and suspicion on top. A call
// site may batch a run of probes only when (1) its nodes are distinct,
// (2) the probes sit next to each other in the serial program with no
// other probe between them, and (3) — checked by ProbeMany itself — the
// run cannot start a new tracker generation (nodes.size() <
// space().PairHeadroom()), because retries reorder draws across pairs.
//
// The channel also owns the build-thread clamp: layers that keep
// per-pair state (noise, i.i.d. loss, grey loss) are not shareable
// across build threads, so a channel with any of them builds serially.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>

#include "core/latency_space.h"
#include "core/probe_counter.h"
#include "matrix/faulty_space.h"
#include "matrix/partitioned_space.h"
#include "util/types.h"

namespace np::core {

struct ProbeChannelConfig {
  /// Measurement noise (see NoisySpace).
  double noise_frac = 0.0;
  double noise_floor_ms = 0.0;
  std::uint64_t noise_seed = 0;
  /// Nullable: correlated-fault plan, borrowed. The layer is composed
  /// only when it has a pathology.
  const matrix::PartitionSchedule* partition = nullptr;
  std::uint64_t partition_seed = 0;
  /// Epoch the partition layer starts at; -1 = before epoch 0 (no
  /// window active), which is where maintenance channels start.
  int epoch = -1;
  /// i.i.d. probe loss (see FaultySpace).
  double loss_rate = 0.0;
  std::uint64_t fault_seed = 0;
  /// True when a peer may be in the crashed set while the channel
  /// probes; with loss_rate == 0 this alone composes the loss layer.
  bool crashes_possible = false;
  /// Nullable: dead peers, borrowed (see FaultySpace).
  const std::unordered_set<NodeId>* crashed = nullptr;
  /// Nullable: per-node load attribution (see MeteredSpace).
  PerNodeLedger* ledger = nullptr;
};

class ProbeChannel {
 public:
  /// Composes the active layers over `backend`, which (like every
  /// borrowed pointer in `config`) must outlive the channel.
  ProbeChannel(const LatencySpace& backend, const ProbeChannelConfig& config);
  ProbeChannel(const ProbeChannel&) = delete;
  ProbeChannel& operator=(const ProbeChannel&) = delete;

  /// The metered top of the stack: what algorithms probe through.
  const MeteredSpace& space() const { return *metered_; }

  /// The partition layer, or nullptr when it was not composed. Its
  /// epoch clock is advanced serially by the engines.
  matrix::PartitionedSpace* partition() {
    return partitioned_ ? &*partitioned_ : nullptr;
  }

  /// Re-points the loss layer at the crashed set (a no-op when the
  /// layer was not composed, i.e. no peer can crash).
  void set_crashed(const std::unordered_set<NodeId>* crashed);

  /// `requested` threads, or 1 when a composed layer keeps per-pair
  /// state that build threads would race on.
  int BuildThreads(int requested) const;

 private:
  std::optional<NoisySpace> noisy_;
  std::optional<matrix::PartitionedSpace> partitioned_;
  std::optional<matrix::FaultySpace> faulty_;
  std::optional<MeteredSpace> metered_;
  bool stateful_ = false;
};

}  // namespace np::core
