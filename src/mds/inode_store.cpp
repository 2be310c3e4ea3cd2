#include "origami/mds/inode_store.hpp"

#include <cstring>

namespace origami::mds {

std::string inode_key(std::uint64_t parent, std::string_view name) {
  std::string key;
  key.reserve(8 + name.size());
  for (int shift = 56; shift >= 0; shift -= 8) {
    key.push_back(static_cast<char>((parent >> shift) & 0xff));
  }
  key.append(name);
  return key;
}

std::string encode_inode(const fsns::InodeAttr& attr, bool is_dir) {
  std::string out;
  out.resize(1 + sizeof(fsns::InodeAttr));
  out[0] = is_dir ? 1 : 0;
  std::memcpy(out.data() + 1, &attr, sizeof(fsns::InodeAttr));
  return out;
}

bool decode_inode(std::string_view data, fsns::InodeAttr& attr, bool& is_dir) {
  if (data.size() != 1 + sizeof(fsns::InodeAttr)) return false;
  is_dir = data[0] != 0;
  std::memcpy(&attr, data.data() + 1, sizeof(fsns::InodeAttr));
  return true;
}

common::Status InodeStore::put(const fsns::DirTree& tree, fsns::NodeId node,
                               const fsns::InodeAttr& attr) {
  const fsns::NodeId parent =
      node == fsns::kRootNode ? fsns::kRootNode : tree.parent(node);
  return db_.put(inode_key(parent, tree.node(node).name),
                 encode_inode(attr, tree.is_dir(node)));
}

common::Status InodeStore::erase(const fsns::DirTree& tree, fsns::NodeId node) {
  const fsns::NodeId parent =
      node == fsns::kRootNode ? fsns::kRootNode : tree.parent(node);
  return db_.del(inode_key(parent, tree.node(node).name));
}

bool InodeStore::lookup(const fsns::DirTree& tree, fsns::NodeId node,
                        fsns::InodeAttr* attr) const {
  const fsns::NodeId parent =
      node == fsns::kRootNode ? fsns::kRootNode : tree.parent(node);
  auto result = db_.get(inode_key(parent, tree.node(node).name));
  if (!result.is_ok()) return false;
  if (attr != nullptr) {
    bool is_dir = false;
    if (!decode_inode(result.value(), *attr, is_dir)) return false;
  }
  return true;
}

void InodeStore::list_dir(
    fsns::NodeId dir,
    const std::function<bool(std::string_view name)>& fn) const {
  const std::string prefix = inode_key(dir, {});
  db_.scan_prefix(prefix, [&](std::string_view key, std::string_view) {
    return fn(key.substr(8));
  });
}

}  // namespace origami::mds
