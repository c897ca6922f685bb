#include "core/epoch_window.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "core/experiment.h"
#include "util/error.h"

namespace np::core {

OverlaySplit SplitScenarioPopulation(const LatencySpace& space,
                                     const std::vector<NodeId>& population,
                                     NodeId initial_overlay, util::Rng& rng) {
  if (population.empty()) {
    return SplitOverlay(space.size(), initial_overlay, rng);
  }
  NP_ENSURE(initial_overlay >= 1, "overlay must be non-empty");
  NP_ENSURE(static_cast<std::size_t>(initial_overlay) < population.size(),
            "need at least one population node left over as a target");
  std::vector<NodeId> nodes = population;
  rng.Shuffle(nodes);
  OverlaySplit split;
  split.members.assign(nodes.begin(), nodes.begin() + initial_overlay);
  split.targets.assign(nodes.begin() + initial_overlay, nodes.end());
  return split;
}

matrix::PartitionSchedule BuildPartitionSchedule(
    const FaultConfig& fault, const matrix::ClusterLayout* layout,
    NodeId space_size, std::uint64_t fault_root) {
  matrix::PartitionSchedule sched;
  sched.grey_node_frac = fault.grey_node_frac;
  sched.grey_loss_rate = fault.grey_loss_rate;
  sched.grey_seed = util::Mix64(fault_root ^ 0x4);
  sched.asymmetric_frac = fault.asymmetric_loss;
  sched.asym_seed = util::Mix64(fault_root ^ 0x5);
  if (fault.partitions.empty()) {
    return sched;
  }
  NP_ENSURE(layout != nullptr,
            "fault.partitions splits clusters and needs a clustered world");
  for (const FaultConfig::Partition& p : fault.partitions) {
    NP_ENSURE(p.start_epoch >= 0 && p.end_epoch > p.start_epoch,
              "partition window needs 0 <= start_epoch < end_epoch");
    NP_ENSURE(p.groups.size() >= 2,
              "a partition needs at least two groups to split anything");
    // Cluster -> component map; unlisted clusters sit in component 0.
    std::vector<int> cluster_component(
        static_cast<std::size_t>(layout->cluster_count()), 0);
    std::vector<bool> seen(cluster_component.size(), false);
    for (std::size_t g = 0; g < p.groups.size(); ++g) {
      for (const int cluster : p.groups[g]) {
        NP_ENSURE(cluster >= 0 &&
                      static_cast<std::size_t>(cluster) < seen.size(),
                  "partition group names a cluster outside the world");
        NP_ENSURE(!seen[static_cast<std::size_t>(cluster)],
                  "partition groups must be disjoint");
        seen[static_cast<std::size_t>(cluster)] = true;
        cluster_component[static_cast<std::size_t>(cluster)] =
            static_cast<int>(g);
      }
    }
    matrix::PartitionWindow w;
    w.start_epoch = p.start_epoch;
    w.end_epoch = p.end_epoch;
    w.component.resize(static_cast<std::size_t>(space_size), 0);
    for (NodeId n = 0; n < space_size; ++n) {
      w.component[static_cast<std::size_t>(n)] =
          cluster_component[static_cast<std::size_t>(layout->ClusterOf(n))];
    }
    for (const matrix::PartitionWindow& other : sched.windows) {
      NP_ENSURE(w.end_epoch <= other.start_epoch ||
                    other.end_epoch <= w.start_epoch,
                "partition windows must not overlap");
    }
    sched.windows.push_back(std::move(w));
  }
  return sched;
}

bool CrashesPossible(const ChurnSchedule& schedule,
                     const ScenarioConfig& config) {
  if (!config.blackouts.empty()) {
    return true;
  }
  for (const ChurnEvent& event : schedule.events()) {
    if (event.type == ChurnEventType::kCrash) {
      return true;
    }
  }
  return false;
}

ChurnWindowRunner::ChurnWindowRunner(
    NearestPeerAlgorithm& algo, ChurnDriver& driver,
    const ChurnSchedule& schedule, const matrix::ClusterLayout* layout,
    const MeteredSpace& maint, ProbeCounter& counter,
    std::vector<ScenarioConfig::Blackout> blackouts,
    std::uint64_t rebuild_root, int build_threads, int total_epochs,
    bool incremental, std::uint64_t charged_build, WindowFaultHooks hooks)
    : algo_(algo),
      driver_(driver),
      schedule_(schedule),
      layout_(layout),
      maint_(maint),
      counter_(counter),
      blackouts_(std::move(blackouts)),
      rebuild_root_(rebuild_root),
      build_threads_(build_threads),
      total_epochs_(total_epochs),
      incremental_(incremental),
      charged_maintenance_(charged_build),
      hooks_(hooks) {
  std::sort(blackouts_.begin(), blackouts_.end(),
            [](const ScenarioConfig::Blackout& a,
               const ScenarioConfig::Blackout& b) {
              return a.time_s < b.time_s;
            });
}

void ChurnWindowRunner::RunWindow(int epoch, EpochReport& er) {
  er.epoch = epoch;
  er.time_s = schedule_.duration_s() *
              (static_cast<double>(epoch + 1) /
               static_cast<double>(total_epochs_));

  // Advance the correlated-fault clock before anything probes: a
  // window ending at this epoch heals now, so this window's probation
  // re-probes can get through — heal repair lands the epoch after the
  // partition, symmetric with crash detection's one-epoch delay.
  if (hooks_.partition != nullptr) {
    hooks_.partition->set_epoch(epoch);
  }
  if (hooks_.suspicion != nullptr) {
    hooks_.suspicion->set_epoch(epoch);
    // Strike recording is on only inside this serial window; queries
    // consult the quarantine set read-only.
    hooks_.suspicion->set_recording(true);
  }

  // Crashes from the previous window are detected now (their probes
  // kept failing all epoch) and purged with billed RemoveMember
  // repairs — one detection delay, before this window's churn.
  if (incremental_) {
    for (const NodeId dead : driver_.TakePendingRepairs()) {
      algo_.RemoveMember(dead);
    }
  }
  if (hooks_.suspicion != nullptr) {
    DrainProbation(epoch);
  }
  const bool last_epoch = epoch + 1 == total_epochs_;
  ChurnStats stats;
  while (next_blackout_ < blackouts_.size() &&
         (blackouts_[next_blackout_].time_s <= er.time_s || last_epoch)) {
    // Advance ordinary churn to the blackout instant, then drop
    // every live member of the cluster at once.
    const ScenarioConfig::Blackout& b = blackouts_[next_blackout_++];
    stats += driver_.ApplyUntil(schedule_, b.time_s);
    const std::vector<NodeId> snapshot = driver_.members();
    for (const NodeId member : snapshot) {
      if (layout_->ClusterOf(member) == b.cluster &&
          driver_.ForceCrash(member)) {
        ++stats.crashes;
      }
    }
  }
  stats += last_epoch ? driver_.ApplyAll(schedule_)
                      : driver_.ApplyUntil(schedule_, er.time_s);
  er.joins = stats.joins;
  er.leaves = stats.leaves;
  er.crashes = stats.crashes;
  er.skipped_events = stats.skipped;

  const std::int64_t churn_events = stats.joins + stats.leaves + stats.crashes;
  if (!incremental_ && churn_events > 0) {
    // No incremental maintenance: pay for a full rebuild on the live
    // membership. The per-epoch rebuild rng is independent of the
    // churn streams so resumed and straight-through schedules agree.
    // Strike recording pauses here: ParallelBuild probes from many
    // threads and the ledger is serial-only — scratch-rebuild overlays'
    // repair story is the rebuild itself, not the detector.
    if (hooks_.suspicion != nullptr) {
      hooks_.suspicion->set_recording(false);
    }
    util::Rng brng(
        util::Mix64(rebuild_root_ ^ static_cast<std::uint64_t>(epoch)));
    algo_.ParallelBuild(maint_, driver_.members(), brng, build_threads_);
    er.rebuilt = true;
    // The rebuild was over live members only, so every lingering
    // crashed entry is already gone.
    driver_.TakePendingRepairs();
  }
  if (hooks_.suspicion != nullptr) {
    hooks_.suspicion->set_recording(false);
    er.quarantined_peers =
        static_cast<std::uint64_t>(hooks_.suspicion->quarantined_count());
  }
  er.maintenance_messages = maint_.probes() - charged_maintenance_;
  charged_maintenance_ = maint_.probes();
  counter_.AddMaintenanceProbes(er.maintenance_messages);
  counter_.AddChurnEvents(static_cast<std::uint64_t>(churn_events));
  er.maintenance_per_event =
      churn_events == 0
          ? 0.0
          : static_cast<double>(er.maintenance_messages) /
                static_cast<double>(churn_events);
  er.live_members = static_cast<NodeId>(driver_.members().size());
}

void ChurnWindowRunner::DrainProbation(int epoch) {
  SuspicionLedger& ledger = *hooks_.suspicion;
  // Departed peers need no detector state (and must not be re-probed).
  const std::vector<NodeId>& members = driver_.members();
  const std::unordered_set<NodeId> live(members.begin(), members.end());
  ledger.PruneTo(live);
  const ProbePolicy& policy =
      hooks_.policy != nullptr ? *hooks_.policy : ProbePolicy::Default();
  for (const NodeId peer : ledger.ProbationDue(epoch)) {
    // One billed re-probe from an arbitrary-but-deterministic live
    // anchor; heal detection is metered traffic like everything else.
    NodeId anchor = kInvalidNode;
    for (const NodeId m : members) {
      if (m != peer) {
        anchor = m;
        break;
      }
    }
    if (anchor == kInvalidNode) {
      continue;  // nobody left to probe from
    }
    const bool ok = policy.ProbationProbe(maint_, peer, anchor).has_value();
    if (ledger.ResolveProbation(peer, epoch, ok) && incremental_) {
      // Released: the peer's overlay entries went stale while it was
      // quarantined; refresh them with a billed leave + rejoin, the
      // same shape as crash repair plus re-admission.
      util::Rng rrng(util::Mix64(hooks_.rejoin_root ^
                                 (static_cast<std::uint64_t>(epoch) << 32) ^
                                 static_cast<std::uint64_t>(peer)));
      algo_.RemoveMember(peer);
      algo_.AddMember(peer, rrng);
    }
  }
}

}  // namespace np::core
