#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "origami/fsns/types.hpp"

namespace origami::fsns {

/// The hierarchical namespace used by the workload generators and the
/// simulated cluster: a rooted tree of directories and files stored in a
/// dense array (NodeId = index). The tree is built once per experiment and
/// is immutable during replay; replayed mutations (create/unlink/...) change
/// MDS state, not the tree shape, mirroring trace-replay methodology.
///
/// Each node's parent, depth and kind live in a separate 8-byte-per-node
/// link array, read through `parent()`, `depth()` and `is_dir()`: path
/// resolution walks only those links, so a chain walk touches one small
/// array rather than every ancestor's full `Node`.
class DirTree {
 public:
  struct Node {
    std::string name;
    std::vector<NodeId> children;      // empty for files
    std::uint32_t sub_files = 0;       // direct children that are files
    std::uint32_t sub_dirs = 0;        // direct children that are dirs
    std::uint32_t subtree_nodes = 1;   // nodes in the subtree incl. self
  };

  /// Creates a tree containing only the root directory "/".
  DirTree();

  /// Adds a directory/file under `parent` (must be a directory). Names are
  /// not checked for uniqueness (generators guarantee it).
  NodeId add_dir(NodeId parent, std::string name);
  NodeId add_file(NodeId parent, std::string name);

  [[nodiscard]] const Node& node(NodeId id) const { return nodes_[id]; }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] bool is_dir(NodeId id) const { return links_[id].is_dir != 0; }
  /// Root has depth 0.
  [[nodiscard]] std::uint32_t depth(NodeId id) const { return links_[id].depth; }
  /// kInvalidNode for the root.
  [[nodiscard]] NodeId parent(NodeId id) const { return links_[id].parent; }

  /// "/a/b/c" for display and hashing; root is "/".
  [[nodiscard]] std::string full_path(NodeId id) const;

  /// Ancestor chain root..id inclusive (root first).
  [[nodiscard]] std::vector<NodeId> ancestors(NodeId id) const;
  /// The same chain written into `chain`, which is resized to depth(id) + 1;
  /// a caller that keeps the buffer allocates only when a deeper chain
  /// than any before arrives.
  void ancestors(NodeId id, std::vector<NodeId>& chain) const;

  /// Number of path components resolved when accessing `id` (== depth; root
  /// itself needs none).
  [[nodiscard]] std::uint32_t path_length(NodeId id) const { return depth(id); }

  /// Recomputes `subtree_nodes` for every node and releases the arrays'
  /// growth slack (call once after building).
  void finalize();

  /// Visits every node of `root_id`'s subtree (preorder, including root_id).
  void visit_subtree(NodeId root_id,
                     const std::function<void(NodeId)>& fn) const;

  /// True if `node_id` is inside the subtree rooted at `root_id`
  /// (inclusive). O(depth).
  [[nodiscard]] bool in_subtree(NodeId node_id, NodeId root_id) const;

  /// All directory node ids in id order.
  [[nodiscard]] std::vector<NodeId> directories() const;

  /// Count of file nodes.
  [[nodiscard]] std::size_t file_count() const noexcept { return file_count_; }
  [[nodiscard]] std::size_t dir_count() const noexcept { return dir_count_; }

 private:
  struct Link {
    NodeId parent = kInvalidNode;
    std::uint32_t depth : 31 = 0;
    std::uint32_t is_dir : 1 = 0;
  };
  static_assert(sizeof(Link) == 8);

  NodeId add_node(NodeId parent, std::string name, bool is_dir);

  std::vector<Node> nodes_;
  std::vector<Link> links_;  ///< parallel to nodes_
  std::size_t file_count_ = 0;
  std::size_t dir_count_ = 0;
};

}  // namespace origami::fsns
