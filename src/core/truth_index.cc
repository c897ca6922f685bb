#include "core/truth_index.h"

#include <algorithm>
#include <cstdlib>

#include "core/nearest_algorithm.h"
#include "matrix/embedded_space.h"
#include "matrix/partitioned_space.h"

namespace np::core {
namespace {

/// Cells on each grid axis: about two members per cell, and never more
/// cells than members.
int CellsPerAxis(std::size_t members, int axes) {
  const auto cells = [axes](std::uint64_t k) {
    std::uint64_t total = 1;
    for (int i = 0; i < axes; ++i) {
      total *= k;
    }
    return total;
  };
  const std::uint64_t budget = std::max<std::uint64_t>(1, members / 2);
  std::uint64_t k = 1;
  while (cells(k + 1) <= budget) {
    ++k;
  }
  return static_cast<int>(k);
}

/// Running minimum in TrueClosestMember's (latency, id) order. The
/// minimum does not depend on the order candidates are offered in.
struct Best {
  NodeId id = kInvalidNode;
  LatencyMs latency = kInfiniteLatency;

  void Offer(NodeId m, LatencyMs l) {
    if (l < latency || (l == latency && m < id)) {
      id = m;
      latency = l;
    }
  }
};

}  // namespace

TruthIndex::TruthIndex(const LatencySpace& space,
                       const std::vector<NodeId>& members)
    : space_(&space), sorted_ids_(members) {
  std::sort(sorted_ids_.begin(), sorted_ids_.end());
  const auto* embedded = dynamic_cast<const matrix::EmbeddedSpace*>(&space);
  if (embedded == nullptr || members.empty()) {
    members_ = members;
    return;
  }
  embedded_ = embedded;
  const matrix::EmbeddedSpaceConfig& config = embedded_->config();
  grid_axes_ = std::min(config.dimensions, kMaxGridAxes);
  const int k = CellsPerAxis(members.size(), grid_axes_);
  for (int i = 0; i < grid_axes_; ++i) {
    extent_[static_cast<std::size_t>(i)] = k;
  }
  width_ = config.side_ms / k;
  inv_width_ = k / config.side_ms;
  bound_scale_ = (1.0 - config.distortion) * (1.0 - 1e-9);

  // Counting sort into cells, stable in membership order.
  std::vector<std::size_t> cell_of(members.size());
  cell_start_.assign(static_cast<std::size_t>(k) *
                         static_cast<std::size_t>(extent_[1]) *
                         static_cast<std::size_t>(extent_[2]) +
                     1,
                 0);
  for (std::size_t i = 0; i < members.size(); ++i) {
    cell_of[i] = Flat(CellOfNode(members[i]));
    ++cell_start_[cell_of[i] + 1];
  }
  for (std::size_t c = 1; c < cell_start_.size(); ++c) {
    cell_start_[c] += cell_start_[c - 1];
  }
  members_.resize(members.size());
  std::vector<std::uint32_t> fill(cell_start_.begin(), cell_start_.end() - 1);
  for (std::size_t i = 0; i < members.size(); ++i) {
    members_[fill[cell_of[i]]++] = members[i];
  }
}

NodeId TruthIndex::ClosestReachable(
    NodeId target, NodeId closest,
    const matrix::PartitionWindow& window) const {
  const int component = matrix::ComponentOf(window, target);
  if (closest != kInvalidNode &&
      matrix::ComponentOf(window, closest) == component &&
      !Contains(target)) {
    return closest;
  }
  Best best;
  for (const NodeId m : members_) {
    if (matrix::ComponentOf(window, m) == component) {
      best.Offer(m, space_->Latency(m, target));
    }
  }
  return best.id;
}

bool TruthIndex::Contains(NodeId node) const {
  return std::binary_search(sorted_ids_.begin(), sorted_ids_.end(), node);
}

int TruthIndex::CellOf(double x) const {
  const int last = extent_[0] - 1;
  int c = std::clamp(static_cast<int>(x * inv_width_), 0, last);
  // The product can round across a face; settle against Face itself,
  // the value the pruning bound measures from.
  while (c > 0 && x < Face(c)) {
    --c;
  }
  while (c < last && x >= Face(c + 1)) {
    ++c;
  }
  return c;
}

TruthIndex::Cell TruthIndex::CellOfNode(NodeId node) const {
  const auto dims = static_cast<std::size_t>(embedded_->config().dimensions);
  const double* x =
      embedded_->coordinates().data() + static_cast<std::size_t>(node) * dims;
  Cell cell{0, 0, 0};
  for (int i = 0; i < grid_axes_; ++i) {
    cell[static_cast<std::size_t>(i)] = CellOf(x[i]);
  }
  return cell;
}

NodeId TruthIndex::Closest(NodeId target) const {
  if (embedded_ == nullptr) {
    return TrueClosestMember(*space_, members_, target);
  }
  const auto dims = static_cast<std::size_t>(embedded_->config().dimensions);
  const double* t =
      embedded_->coordinates().data() + static_cast<std::size_t>(target) * dims;
  const Cell tc = CellOfNode(target);

  Best best;
  const auto visit = [&](int x, int y, int z) {
    const std::size_t cell = Flat({x, y, z});
    for (std::uint32_t p = cell_start_[cell]; p < cell_start_[cell + 1]; ++p) {
      const NodeId member = members_[p];
      if (member != target) {
        best.Offer(member, embedded_->Latency(member, target));
      }
    }
  };

  for (int r = 0;; ++r) {
    Cell lo{};
    Cell hi{};
    bool whole = true;
    for (std::size_t i = 0; i < lo.size(); ++i) {
      lo[i] = std::max(0, tc[i] - r);
      hi[i] = std::min(extent_[i] - 1, tc[i] + r);
      whole = whole && lo[i] == 0 && hi[i] == extent_[i] - 1;
    }
    // Ring r: the cells of the box at Chebyshev distance exactly r.
    for (int x = lo[0]; x <= hi[0]; ++x) {
      const bool x_on = std::abs(x - tc[0]) == r;
      for (int y = lo[1]; y <= hi[1]; ++y) {
        if (x_on || std::abs(y - tc[1]) == r) {
          for (int z = lo[2]; z <= hi[2]; ++z) {
            visit(x, y, z);
          }
        } else {
          // r > 0 here (at r = 0 every cell is on the ring).
          if (tc[2] - r >= 0) {
            visit(x, y, tc[2] - r);
          }
          if (tc[2] + r < extent_[2]) {
            visit(x, y, tc[2] + r);
          }
        }
      }
    }
    if (whole) {
      break;
    }
    // Every unvisited member lies beyond an interior face of the box.
    LatencyMs gap = kInfiniteLatency;
    for (int i = 0; i < grid_axes_; ++i) {
      const auto a = static_cast<std::size_t>(i);
      if (lo[a] > 0) {
        gap = std::min(gap, t[i] - Face(lo[a]));
      }
      if (hi[a] < extent_[a] - 1) {
        gap = std::min(gap, Face(hi[a] + 1) - t[i]);
      }
    }
    if (gap * bound_scale_ > best.latency) {
      break;
    }
  }
  return best.id;
}

}  // namespace np::core
