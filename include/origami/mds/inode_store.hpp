#pragma once

#include <string>
#include <string_view>

#include "origami/fsns/dir_tree.hpp"
#include "origami/fsns/types.hpp"
#include "origami/kv/db.hpp"

namespace origami::mds {

/// Encodes the (parent inode, name) composite key used by OrigamiFS (§4.2):
/// 8-byte big-endian parent id (so siblings are contiguous for readdir
/// scans) followed by the entry name.
std::string inode_key(std::uint64_t parent, std::string_view name);

/// Compact binary encoding of `InodeAttr` (+ a dir flag).
std::string encode_inode(const fsns::InodeAttr& attr, bool is_dir);
bool decode_inode(std::string_view data, fsns::InodeAttr& attr, bool& is_dir);

/// The per-MDS inode table: typed facade over the fragmented-LSM store.
class InodeStore {
 public:
  explicit InodeStore(kv::DbOptions options = {}) : db_(std::move(options)) {}

  common::Status put(const fsns::DirTree& tree, fsns::NodeId node,
                     const fsns::InodeAttr& attr = {});
  common::Status erase(const fsns::DirTree& tree, fsns::NodeId node);
  [[nodiscard]] bool lookup(const fsns::DirTree& tree, fsns::NodeId node,
                            fsns::InodeAttr* attr = nullptr) const;

  /// Visits every child entry of `dir` present in this store.
  void list_dir(fsns::NodeId dir,
                const std::function<bool(std::string_view name)>& fn) const;

  // Group-commit pipeline passthroughs (CommitMode::kAsync stores): the
  // cluster engines drive the real store's commit in lockstep with the
  // modeled journal and audit crashes against the measured WAL.
  common::Status commit() { return db_.commit(); }
  kv::Db::LossReport simulate_crash(bool tear_wal_tail = false) {
    return db_.simulate_crash(tear_wal_tail);
  }
  common::Status recover(kv::WalReplayStats* replay = nullptr) {
    return db_.recover(replay);
  }

  [[nodiscard]] const kv::Db& db() const noexcept { return db_; }
  [[nodiscard]] kv::Db& db() noexcept { return db_; }

 private:
  kv::Db db_;
};

}  // namespace origami::mds
