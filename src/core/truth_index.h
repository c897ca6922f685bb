// Per-epoch ground truth: the true closest member to a query target.
//
// Every engine scores P(exact closest) against the member with the
// minimum clean latency to the target (ties to the lower id, the
// target itself skipped) — TrueClosestMember. A scan costs one backend
// evaluation per member per query. TruthIndex answers the same question
// from an index built once per membership:
//
//  - On an EmbeddedSpace (found at construction, no knob) the members
//    are bucketed into a uniform grid over [0, side_ms]^g, g = the
//    first min(d, 3) axes, about two members per cell. A query visits
//    cells in rings of growing Chebyshev radius around the target's
//    cell, evaluating the exact Latency(m, target) of every member
//    there, and stops once
//        gap * (1 - distortion) * (1 - 1e-9) > best so far,
//    where gap is the target's distance to the nearest face of the
//    visited box that is not on the grid boundary. Every unvisited
//    member lies beyond such a face, so its computed latency is at
//    least gap * (1 - distortion) up to a few ulps (rounding is
//    monotone, the distortion factor is 1 + delta * (2u - 1) with
//    u in [0, 1), and the 1e-6 floor only raises a latency); the 1e-9
//    slack covers the ulps and the strict `>` keeps every tie in play.
//    The answer is TrueClosestMember's, bit for bit.
//  - On any other space (dense, sparse, topology, or a wrapper that
//    hides the geometry) the index keeps the member list and answers
//    with TrueClosestMember's scan.
//
// It also answers the nearest-reachable truth a partition window
// scores against, reusing the epoch truth where that is exact.
//
// Immutable after construction: concurrent Closest calls are safe
// whenever the space's Latency is.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/latency_space.h"
#include "util/types.h"

namespace np::matrix {
class EmbeddedSpace;
struct PartitionWindow;
}  // namespace np::matrix

namespace np::core {

class TruthIndex {
 public:
  /// Borrows `space` (it must outlive the index); copies `members`.
  TruthIndex(const LatencySpace& space, const std::vector<NodeId>& members);

  /// Exactly TrueClosestMember(space, members, target): the member
  /// other than `target` with the minimum latency to it, lower id on
  /// ties; kInvalidNode when the target is the only member. Throws on
  /// an empty membership.
  NodeId Closest(NodeId target) const;

  /// The nearest reachable member under a partition window: the
  /// closest member in the target's component (the target itself not
  /// skipped), lower id on ties; kInvalidNode when the component holds
  /// no member. `closest` must be Closest(target). When it shares the
  /// target's component and the target is not a member, it is the
  /// answer (the minimum over every member is the minimum over any
  /// subset holding it); otherwise the component is scanned.
  NodeId ClosestReachable(NodeId target, NodeId closest,
                          const matrix::PartitionWindow& window) const;

  /// Whether `node` is a member (a binary search, no scan).
  bool Contains(NodeId node) const;

  /// True when queries are grid-pruned (the space is embedded).
  bool pruned() const { return embedded_ != nullptr; }

 private:
  /// Grid axes: the first min(d, kMaxGridAxes) coordinates. Axes past
  /// the embedding's dimension are one cell wide.
  static constexpr int kMaxGridAxes = 3;
  using Cell = std::array<int, kMaxGridAxes>;

  /// Lower face of cell `c` along a grid axis. CellOf keeps every
  /// coordinate x of cell c at Face(c) <= x < Face(c + 1), bar the
  /// open outer sides of the two boundary cells.
  double Face(int c) const { return static_cast<double>(c) * width_; }
  int CellOf(double x) const;
  Cell CellOfNode(NodeId node) const;
  /// Row-major cell number.
  std::size_t Flat(const Cell& c) const {
    std::size_t flat = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      flat = flat * static_cast<std::size_t>(extent_[i]) +
             static_cast<std::size_t>(c[i]);
    }
    return flat;
  }

  const LatencySpace* space_;
  const matrix::EmbeddedSpace* embedded_ = nullptr;
  /// Scan path: the membership. Grid path: the members in cell order.
  std::vector<NodeId> members_;
  /// The member ids in ascending order, for Contains.
  std::vector<NodeId> sorted_ids_;
  /// Grid path: cell i holds members_[cell_start_[i], cell_start_[i+1]).
  std::vector<std::uint32_t> cell_start_;
  int grid_axes_ = 0;
  /// Cells per axis: the same count on every grid axis, 1 past them.
  Cell extent_{1, 1, 1};
  double width_ = 0.0;
  double inv_width_ = 0.0;
  /// (1 - distortion) * (1 - 1e-9): the pruning bound's scale.
  double bound_scale_ = 1.0;
};

}  // namespace np::core
