#include "origami/core/subtree.hpp"

#include <algorithm>

namespace origami::core {

SubtreeView SubtreeView::build(
    const fsns::DirTree& tree,
    const std::vector<cluster::DirEpochStats>& dir_stats,
    const mds::PartitionMap& partition) {
  SubtreeView view;
  const std::size_t n = tree.size();
  view.reads_.assign(n, 0);
  view.writes_.assign(n, 0);
  view.rct_.assign(n, 0);
  view.sub_files_.assign(n, 0);
  view.sub_dirs_.assign(n, 0);
  view.lsdir_self_.assign(n, 0);
  view.nsm_self_.assign(n, 0);
  view.uniform_owner_.assign(n, cost::kInvalidMds);

  // Seed directory-local values.
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<fsns::NodeId>(i);
    if (!tree.is_dir(id)) continue;
    const cluster::DirEpochStats& s = dir_stats[i];
    view.reads_[i] = s.reads;
    view.writes_[i] = s.writes;
    view.rct_[i] = s.rct;
    view.lsdir_self_[i] = s.lsdir;
    view.nsm_self_[i] = s.nsm_self;
    view.sub_files_[i] = tree.node(id).sub_files;
    view.sub_dirs_[i] = tree.node(id).sub_dirs;
    view.uniform_owner_[i] = partition.dir_owner(id);
    view.total_ops_ += s.reads + s.writes;
  }

  // Children always have larger ids than parents (append-only tree build),
  // so one reverse sweep aggregates bottom-up.
  for (std::size_t i = n; i-- > 1;) {
    const auto id = static_cast<fsns::NodeId>(i);
    if (!tree.is_dir(id)) continue;
    const fsns::NodeId p = tree.parent(id);
    view.reads_[p] += view.reads_[i];
    view.writes_[p] += view.writes_[i];
    view.rct_[p] += view.rct_[i];
    view.sub_files_[p] += view.sub_files_[i];
    view.sub_dirs_[p] += view.sub_dirs_[i];
    if (view.uniform_owner_[i] != view.uniform_owner_[p]) {
      view.uniform_owner_[p] = cost::kInvalidMds;
    }
  }
  return view;
}

void SubtreeView::apply_migration(const fsns::DirTree& tree,
                                  fsns::NodeId subtree, cost::MdsId to) {
  tree.visit_subtree(subtree, [&](fsns::NodeId id) {
    if (tree.is_dir(id)) uniform_owner_[id] = to;
  });
  // Ancestors may or may not remain uniform; conservatively mark mixed so
  // the search never migrates a stale aggregate.
  for (fsns::NodeId cur = tree.parent(subtree); cur != fsns::kInvalidNode;
       cur = tree.parent(cur)) {
    uniform_owner_[cur] = cost::kInvalidMds;
    if (cur == fsns::kRootNode) break;
  }
}

std::vector<fsns::NodeId> SubtreeView::candidates(std::size_t max_candidates,
                                                  std::uint64_t min_ops) const {
  std::vector<fsns::NodeId> out;
  for (std::size_t i = 1; i < rct_.size(); ++i) {
    if (uniform_owner_[i] == cost::kInvalidMds) continue;  // files & mixed
    if (reads_[i] + writes_[i] < min_ops) continue;
    out.push_back(static_cast<fsns::NodeId>(i));
  }
  std::stable_sort(out.begin(), out.end(), [&](fsns::NodeId a, fsns::NodeId b) {
    return rct_[a] > rct_[b];
  });
  if (out.size() > max_candidates) out.resize(max_candidates);
  return out;
}

}  // namespace origami::core
