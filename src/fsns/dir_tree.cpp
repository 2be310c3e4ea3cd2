#include "origami/fsns/dir_tree.hpp"

#include <cassert>

namespace origami::fsns {

DirTree::DirTree() {
  nodes_.emplace_back();
  Link root;
  root.is_dir = 1;
  links_.push_back(root);
  dir_count_ = 1;
}

NodeId DirTree::add_node(NodeId parent, std::string name, bool is_dir) {
  assert(parent < nodes_.size());
  assert(this->is_dir(parent));
  const auto id = static_cast<NodeId>(nodes_.size());
  Node n;
  n.name = std::move(name);
  nodes_.push_back(std::move(n));
  Link link;
  link.parent = parent;
  link.depth = depth(parent) + 1;
  link.is_dir = is_dir ? 1 : 0;
  links_.push_back(link);
  Node& p = nodes_[parent];
  p.children.push_back(id);
  if (is_dir) {
    ++p.sub_dirs;
    ++dir_count_;
  } else {
    ++p.sub_files;
    ++file_count_;
  }
  return id;
}

NodeId DirTree::add_dir(NodeId parent, std::string name) {
  return add_node(parent, std::move(name), /*is_dir=*/true);
}

NodeId DirTree::add_file(NodeId parent, std::string name) {
  return add_node(parent, std::move(name), /*is_dir=*/false);
}

std::string DirTree::full_path(NodeId id) const {
  if (id == kRootNode) return "/";
  std::vector<const std::string*> parts;
  for (NodeId cur = id; cur != kRootNode; cur = parent(cur)) {
    parts.push_back(&nodes_[cur].name);
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    out += '/';
    out += **it;
  }
  return out;
}

std::vector<NodeId> DirTree::ancestors(NodeId id) const {
  std::vector<NodeId> chain;
  ancestors(id, chain);
  return chain;
}

void DirTree::ancestors(NodeId id, std::vector<NodeId>& chain) const {
  // The chain is depth(id) + 1 long, so it fills from the back and needs
  // no reversal.
  chain.resize(depth(id) + 1);
  std::size_t i = chain.size();
  for (NodeId cur = id; cur != kInvalidNode; cur = parent(cur)) {
    chain[--i] = cur;
  }
}

void DirTree::finalize() {
  // Children always have larger ids than parents (append-only build), so a
  // single reverse sweep accumulates subtree sizes bottom-up.
  for (auto& n : nodes_) n.subtree_nodes = 1;
  for (std::size_t i = nodes_.size(); i-- > 1;) {
    nodes_[parent(static_cast<NodeId>(i))].subtree_nodes +=
        nodes_[i].subtree_nodes;
  }
  // The shape is final: release both arrays' growth slack.
  nodes_.shrink_to_fit();
  links_.shrink_to_fit();
}

void DirTree::visit_subtree(NodeId root_id,
                            const std::function<void(NodeId)>& fn) const {
  std::vector<NodeId> stack{root_id};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    fn(id);
    const Node& n = nodes_[id];
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
}

bool DirTree::in_subtree(NodeId node_id, NodeId root_id) const {
  for (NodeId cur = node_id; cur != kInvalidNode; cur = parent(cur)) {
    if (cur == root_id) return true;
    if (depth(cur) < depth(root_id)) return false;
  }
  return false;
}

std::vector<NodeId> DirTree::directories() const {
  std::vector<NodeId> out;
  out.reserve(dir_count_);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (links_[i].is_dir != 0) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

}  // namespace origami::fsns
