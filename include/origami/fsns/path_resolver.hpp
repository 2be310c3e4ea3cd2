#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "origami/fsns/dir_tree.hpp"

namespace origami::fsns {

/// Resolves textual paths ("/usr/bin/ls") against a DirTree via a
/// (parent, name) hash index — the lookup structure a real metadata client
/// walks component by component. Built once over an immutable tree; O(1)
/// per component.
class PathResolver {
 public:
  explicit PathResolver(const DirTree& tree);

  /// Resolves a single child entry under `parent`.
  [[nodiscard]] std::optional<NodeId> child(NodeId parent,
                                            std::string_view name) const;

  /// Resolves an absolute path. Accepts redundant slashes and "."
  /// components; "" and "/" resolve to the root. Returns nullopt for
  /// missing entries or descent through a file.
  [[nodiscard]] std::optional<NodeId> resolve(std::string_view path) const;

  /// The ancestor chain (root..node) a client would traverse to resolve
  /// `path`, or nullopt when resolution fails at any component.
  [[nodiscard]] std::optional<std::vector<NodeId>> resolution_chain(
      std::string_view path) const;

  [[nodiscard]] std::size_t index_size() const noexcept { return index_.size(); }

 private:
  struct KeyHash {
    std::size_t operator()(const std::pair<NodeId, std::string>& k) const {
      std::size_t h = std::hash<std::string>{}(k.second);
      return h ^ (static_cast<std::size_t>(k.first) * 0x9e3779b97f4a7c15ULL);
    }
  };

  const DirTree* tree_;
  std::unordered_map<std::pair<NodeId, std::string>, NodeId, KeyHash> index_;
};

/// Splits an absolute path into components, ignoring empty and "." parts.
std::vector<std::string_view> split_path(std::string_view path);

/// True when `name` can be one component of a path: split_path never
/// yields "", "." or a part containing '/'.
[[nodiscard]] bool is_path_component(std::string_view name);

}  // namespace origami::fsns
