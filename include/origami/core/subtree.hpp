#pragma once

#include <cstdint>
#include <vector>

#include "origami/cluster/balancer.hpp"
#include "origami/cost/cost_model.hpp"
#include "origami/fsns/dir_tree.hpp"
#include "origami/mds/partition.hpp"

namespace origami::core {

/// Subtree-level aggregates for one epoch: per-directory stats rolled up
/// over each directory's subtree (migration granularity, §4.3), plus the
/// ownership-uniformity labels Meta-OPT needs to enumerate candidates.
///
/// All vectors are indexed by NodeId; entries for files are zero/unused.
class SubtreeView {
 public:
  /// Rolls up `dir_stats` over the tree and labels ownership uniformity.
  static SubtreeView build(const fsns::DirTree& tree,
                           const std::vector<cluster::DirEpochStats>& dir_stats,
                           const mds::PartitionMap& partition);

  /// Sum over the subtree of metadata read / write ops homed in it.
  [[nodiscard]] std::uint64_t reads(fsns::NodeId d) const { return reads_[d]; }
  [[nodiscard]] std::uint64_t writes(fsns::NodeId d) const { return writes_[d]; }
  [[nodiscard]] std::uint64_t ops(fsns::NodeId d) const {
    return reads_[d] + writes_[d];
  }
  /// Sum of analytic RCT homed in the subtree — the load `l_s` of
  /// Appendix A when ownership is uniform.
  [[nodiscard]] sim::SimTime rct(fsns::NodeId d) const { return rct_[d]; }

  /// Static namespace shape (subtree totals, from the tree itself).
  [[nodiscard]] std::uint64_t sub_files(fsns::NodeId d) const {
    return sub_files_[d];
  }
  [[nodiscard]] std::uint64_t sub_dirs(fsns::NodeId d) const {
    return sub_dirs_[d];
  }

  /// readdir count on the directory itself / ns-mutations targeting it.
  [[nodiscard]] std::uint32_t lsdir_self(fsns::NodeId d) const {
    return lsdir_self_[d];
  }
  [[nodiscard]] std::uint32_t nsm_self(fsns::NodeId d) const {
    return nsm_self_[d];
  }

  /// The single MDS owning every directory of the subtree, or kInvalidMds
  /// when ownership is mixed.
  [[nodiscard]] cost::MdsId uniform_owner(fsns::NodeId d) const {
    return uniform_owner_[d];
  }
  /// Marks the subtree as migrated to `to` and invalidates ancestors'
  /// uniformity (used by Meta-OPT's in-search state updates).
  void apply_migration(const fsns::DirTree& tree, fsns::NodeId subtree,
                       cost::MdsId to);

  /// Removes a single directory from the candidate pool without touching
  /// its descendants (used when a guard rejects the subtree as a whole but
  /// its children may still be migratable).
  void exclude(fsns::NodeId dir) { uniform_owner_[dir] = cost::kInvalidMds; }

  /// Total metadata ops across the whole epoch window.
  [[nodiscard]] std::uint64_t total_ops() const noexcept { return total_ops_; }

  /// Directories ranked by subtree RCT (descending), excluding the root —
  /// the candidate pool for Meta-OPT / the online balancers.
  [[nodiscard]] std::vector<fsns::NodeId> candidates(
      std::size_t max_candidates, std::uint64_t min_ops) const;

 private:
  std::vector<std::uint64_t> reads_;
  std::vector<std::uint64_t> writes_;
  std::vector<sim::SimTime> rct_;
  std::vector<std::uint64_t> sub_files_;
  std::vector<std::uint64_t> sub_dirs_;
  std::vector<std::uint32_t> lsdir_self_;
  std::vector<std::uint32_t> nsm_self_;
  std::vector<cost::MdsId> uniform_owner_;
  std::uint64_t total_ops_ = 0;
};

}  // namespace origami::core
