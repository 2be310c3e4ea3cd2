#include "origami/mds/partition.hpp"

#include "origami/common/hash.hpp"

namespace origami::mds {

PartitionMap::PartitionMap(const fsns::DirTree& tree, std::uint32_t mds_count,
                           cost::MdsId initial_owner)
    : tree_(&tree),
      mds_count_(mds_count),
      owner_(tree.size(), initial_owner),
      prev_owner_(tree.size(), initial_owner),
      version_(tree.size(), 0),
      inode_count_(mds_count, 0) {
  inode_count_[initial_owner] = tree.size();
}

cost::MdsId PartitionMap::node_owner(fsns::NodeId node) const {
  if (tree_->is_dir(node)) return owner_[node];
  if (hash_file_inodes_) {
    return static_cast<cost::MdsId>(common::mix64(node + 0x2545f491) %
                                    mds_count_);
  }
  return owner_[tree_->parent(node)];
}

std::uint64_t PartitionMap::node_weight(fsns::NodeId dir) const {
  // A directory fragment carries its own inode plus its file children.
  return 1 + tree_->node(dir).sub_files;
}

void PartitionMap::set_dir_owner(fsns::NodeId dir, cost::MdsId new_owner) {
  const cost::MdsId old = owner_[dir];
  if (old == new_owner) return;
  const std::uint64_t w = node_weight(dir);
  inode_count_[old] -= w;
  inode_count_[new_owner] += w;
  owner_[dir] = new_owner;
}

std::uint64_t PartitionMap::migrate(fsns::NodeId subtree, cost::MdsId from,
                                    cost::MdsId to) {
  std::uint64_t moved = 0;
  tree_->visit_subtree(subtree, [&](fsns::NodeId id) {
    if (!tree_->is_dir(id) || owner_[id] != from) return;
    const std::uint64_t w = node_weight(id);
    prev_owner_[id] = from;
    owner_[id] = to;
    ++version_[id];
    inode_count_[from] -= w;
    inode_count_[to] += w;
    moved += w;
    if (transfer_observer_) transfer_observer_(id, from, to, version_[id]);
  });
  return moved;
}

std::uint64_t PartitionMap::migrate_single(fsns::NodeId dir, cost::MdsId from,
                                           cost::MdsId to) {
  if (!tree_->is_dir(dir) || owner_[dir] != from || from == to) return 0;
  const std::uint64_t w = node_weight(dir);
  prev_owner_[dir] = from;
  owner_[dir] = to;
  ++version_[dir];
  inode_count_[from] -= w;
  inode_count_[to] += w;
  if (transfer_observer_) transfer_observer_(dir, from, to, version_[dir]);
  return w;
}

bool PartitionMap::subtree_uniform(fsns::NodeId subtree) const {
  const cost::MdsId root_owner = owner_[subtree];
  bool uniform = true;
  tree_->visit_subtree(subtree, [&](fsns::NodeId id) {
    if (tree_->is_dir(id) && owner_[id] != root_owner) uniform = false;
  });
  return uniform;
}

namespace partitioner {

void single(PartitionMap& map) {
  const auto& tree = map.tree();
  for (fsns::NodeId d : tree.directories()) map.set_dir_owner(d, 0);
}

void coarse_hash(PartitionMap& map, std::uint32_t levels) {
  const auto& tree = map.tree();
  for (fsns::NodeId d : tree.directories()) {
    // Find the depth-`levels` ancestor (or the dir itself if shallower).
    fsns::NodeId anchor = d;
    while (tree.depth(anchor) > levels) anchor = tree.parent(anchor);
    const auto owner = static_cast<cost::MdsId>(
        common::mix64(anchor + 0x51ed270b) % map.mds_count());
    map.set_dir_owner(d, owner);
  }
}

void fine_hash(PartitionMap& map) {
  const auto& tree = map.tree();
  for (fsns::NodeId d : tree.directories()) {
    const auto owner = static_cast<cost::MdsId>(
        common::mix64(d + 0x9e3779b9) % map.mds_count());
    map.set_dir_owner(d, owner);
  }
  map.set_hash_file_inodes(true);
}

}  // namespace partitioner

}  // namespace origami::mds
