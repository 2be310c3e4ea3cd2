#include "origami/fsns/path_resolver.hpp"

namespace origami::fsns {

std::vector<std::string_view> split_path(std::string_view path) {
  std::vector<std::string_view> parts;
  std::size_t pos = 0;
  while (pos < path.size()) {
    const std::size_t next = path.find('/', pos);
    const std::size_t end = next == std::string_view::npos ? path.size() : next;
    const std::string_view part = path.substr(pos, end - pos);
    if (!part.empty() && part != ".") parts.push_back(part);
    pos = end + 1;
  }
  return parts;
}

bool is_path_component(std::string_view name) {
  return !name.empty() && name != "." &&
         name.find('/') == std::string_view::npos;
}

PathResolver::PathResolver(const DirTree& tree) : tree_(&tree) {
  index_.reserve(tree.size());
  for (NodeId id = 1; id < tree.size(); ++id) {
    index_.emplace(std::make_pair(tree.parent(id), tree.node(id).name), id);
  }
}

std::optional<NodeId> PathResolver::child(NodeId parent,
                                          std::string_view name) const {
  const auto it = index_.find(std::make_pair(parent, std::string(name)));
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::optional<NodeId> PathResolver::resolve(std::string_view path) const {
  NodeId cur = kRootNode;
  for (std::string_view part : split_path(path)) {
    if (!tree_->is_dir(cur)) return std::nullopt;  // descent through a file
    const auto next = child(cur, part);
    if (!next) return std::nullopt;
    cur = *next;
  }
  return cur;
}

std::optional<std::vector<NodeId>> PathResolver::resolution_chain(
    std::string_view path) const {
  std::vector<NodeId> chain{kRootNode};
  NodeId cur = kRootNode;
  for (std::string_view part : split_path(path)) {
    if (!tree_->is_dir(cur)) return std::nullopt;
    const auto next = child(cur, part);
    if (!next) return std::nullopt;
    cur = *next;
    chain.push_back(cur);
  }
  return chain;
}

}  // namespace origami::fsns
