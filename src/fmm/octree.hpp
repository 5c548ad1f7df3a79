// Adaptive, 2:1-balanced octree over a point set (paper Section III-A).
//
// Construction: start from one cube containing all points and split any box
// holding more than Q points (Q = `max_points_per_box`, the paper's workload
// knob). Only non-empty children are materialized. A 2:1 balance refinement
// then guarantees adjacent leaves differ by at most one level, which keeps
// the U/V/W/X interaction lists well-formed on adaptive distributions.
//
// Octant convention (pinned by tests): a point is assigned to the upper
// half of an axis when its coordinate is >= the box center, so each box
// owns the half-open cell [lo, center) x [center, hi] per axis -- a point
// exactly on a split plane always goes to the higher octant. `Box::contains`
// is closed, so points exactly on the domain boundary are accepted and land
// in the highest-octant leaf along that axis.
//
// Trees built over a fixed `Params.domain` additionally support
// `try_refit`: re-binning a slightly-moved copy of the same point set into
// the existing structure without touching keys, boxes, or parent/child
// links, which is what lets an `FmmSession` keep interaction lists, node
// slots, and operator plans alive across time steps.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "fmm/geometry.hpp"
#include "fmm/morton.hpp"

namespace eroof::fmm {

/// One octree node. Nodes are stored in a flat array; indices are stable.
struct Node {
  MortonKey key;
  Box box;
  int parent = -1;
  std::array<int, 8> children{-1, -1, -1, -1, -1, -1, -1, -1};
  bool leaf = true;
  /// Range of this node's points in the tree's permuted point order.
  std::uint32_t point_begin = 0;
  std::uint32_t point_end = 0;

  std::uint32_t num_points() const { return point_end - point_begin; }
  int level() const { return key.level(); }
};

/// The tree. Owns a permuted copy of the input points; `original_index`
/// maps a permuted position back to the caller's ordering.
class Octree {
 public:
  struct Params {
    std::uint32_t max_points_per_box = 64;  ///< the paper's Q
    int max_level = 12;
    bool balance_2to1 = true;
    /// >= 0: build a complete uniform tree of exactly this depth (every
    /// non-empty box splits until then; Q is ignored for the splitting
    /// decision). The paper's GPU implementation [9] uses uniform trees --
    /// all leaves at one level, W/X lists empty -- which is what its phase
    /// profile reflects. Use uniform_depth_for() to derive the depth from
    /// (N, Q).
    int uniform_depth = -1;
    /// half > 0: use this cube as the root box instead of the bounding cube
    /// of the points (which must all lie inside it). A fixed domain makes
    /// the tree geometry -- and therefore the per-level operators -- a
    /// function of the protocol rather than of one request's point set,
    /// which is what lets the serving plan cache share operators across
    /// requests.
    Box domain{{0.0, 0.0, 0.0}, 0.0};
  };

  /// Smallest depth d with N / 8^d <= Q (capped at max_level 12).
  static int uniform_depth_for(std::size_t n_points, std::uint32_t q);

  Octree(std::span<const Vec3> points, Params params);

  const std::vector<Node>& nodes() const { return nodes_; }
  const Node& node(int i) const { return nodes_[static_cast<std::size_t>(i)]; }
  int root() const { return 0; }

  /// Points in tree order (permuted from the constructor input).
  std::span<const Vec3> points() const { return points_; }

  /// original_index()[i] is the constructor-input position of points()[i].
  std::span<const std::uint32_t> original_index() const {
    return original_index_;
  }

  /// Indices of all leaves.
  const std::vector<int>& leaves() const { return leaves_; }

  /// Node indices grouped by level; levels_by()[l] lists level-l nodes.
  const std::vector<std::vector<int>>& nodes_by_level() const {
    return by_level_;
  }

  int max_depth() const { return static_cast<int>(by_level_.size()) - 1; }

  /// Looks up a node by Morton key; -1 if absent.
  int find(MortonKey key) const;

  /// Deepest existing node whose box contains `key`'s box (an ancestor of
  /// `key` or the node itself); -1 only if the tree is empty.
  int find_deepest_ancestor(MortonKey key) const;

  const Box& domain() const { return domain_; }
  const Params& params() const { return params_; }

  /// Re-bins a moved copy of the same point set into the existing tree
  /// structure, in place. Succeeds (returns true) only when the structure a
  /// fresh build over `new_points` would produce is *identical* to the
  /// current one; in that case the permuted point order, `original_index`,
  /// and every node's point range afterwards are bitwise what that fresh
  /// build would have computed, while node keys, boxes, parent/child links,
  /// `leaves()` and `nodes_by_level()` are untouched. On false the tree is
  /// unchanged and the caller must rebuild.
  ///
  /// Requirements: the tree was built over a fixed `Params.domain`
  /// (otherwise a fresh build would re-derive a different bounding cube and
  /// refit always refuses), `new_points.size()` equals `points().size()`,
  /// and every new point lies inside the domain. Trees that needed
  /// 2:1 balance splits refuse refit: their structure depends on the
  /// occupancy pattern in a way this check does not track.
  ///
  /// Steady-state calls are allocation-free: scratch is sized on first use
  /// and reused.
  bool try_refit(std::span<const Vec3> new_points);

  /// Number of splits forced by 2:1 balance enforcement during build.
  int balance_splits() const { return balance_splits_; }

 private:
  void build_recursive(int node_idx);
  void split(int node_idx);
  void enforce_balance();
  void finalize();
  void ensure_refit_scratch();

  Params params_;
  Box domain_;
  std::vector<Node> nodes_;
  std::vector<Vec3> points_;
  std::vector<std::uint32_t> original_index_;
  std::vector<int> leaves_;
  std::vector<std::vector<int>> by_level_;
  std::unordered_map<std::uint64_t, int> key_to_node_;
  int balance_splits_ = 0;

  // try_refit scratch, sized once on first refit and reused thereafter so
  // steady-state stepping stays allocation-free.
  std::vector<std::uint32_t> refit_count_;     ///< per-node occupancy tally
  std::vector<std::uint32_t> refit_cursor_;    ///< per-node scatter cursor
  std::vector<int> refit_point_leaf_;          ///< leaf index per input point
  std::vector<int> refit_leaf_dfs_;            ///< leaves in point-range order
};

}  // namespace eroof::fmm
