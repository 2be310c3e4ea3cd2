#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "origami/common/status.hpp"
#include "origami/fsns/types.hpp"
#include "origami/kv/db.hpp"

namespace origami::fs {

/// Inode number in the live metadata service (1 = root, 0 = invalid).
using Ino = std::uint64_t;
inline constexpr Ino kInvalidIno = 0;
inline constexpr Ino kRootIno = 1;

/// A directory entry as returned by readdir.
struct DirEntry {
  std::string name;
  Ino ino = kInvalidIno;
  bool is_dir = false;
};

/// Attributes returned by stat.
struct Stat {
  Ino ino = kInvalidIno;
  bool is_dir = false;
  fsns::InodeAttr attr;
  /// Shard currently serving this entry's dirent.
  std::uint32_t shard = 0;
};

/// Per-shard activity counters (the live analogue of the Data Collector).
struct ShardStats {
  std::uint64_t lookups = 0;    ///< dirent reads served
  std::uint64_t mutations = 0;  ///< dirent writes served
  std::uint64_t entries = 0;    ///< dirents currently stored
};

/// OrigamiFS — the paper's prototype metadata service (§4.2), as a real
/// in-process implementation rather than a cost simulation: a sharded,
/// mutable hierarchical namespace over fragmented-LSM stores, keyed by
/// (parent inode, name), with directory-ownership routing and live subtree
/// migration (the Migrator's mechanism).
///
/// Semantics are POSIX-flavoured: parents must exist and be directories,
/// create/mkdir fail on existing names, unlink refuses directories, rmdir
/// refuses non-empty directories and files, rename moves files or whole
/// directories.
///
/// Thread safety: none; callers serialise (a real deployment would shard
/// the lock with the namespace — out of scope here).
class OrigamiFs {
 public:
  struct Options {
    std::uint32_t shards = 5;
    kv::DbOptions db;
  };

  explicit OrigamiFs(Options options);
  OrigamiFs() : OrigamiFs(Options{}) {}

  // --- metadata operations (string paths) --------------------------------
  common::Result<Ino> mkdir(std::string_view path);
  common::Result<Ino> create(std::string_view path);
  common::Result<Stat> stat(std::string_view path) const;
  common::Status unlink(std::string_view path);
  common::Status rmdir(std::string_view path);
  common::Result<std::vector<DirEntry>> readdir(std::string_view path) const;
  common::Status rename(std::string_view from, std::string_view to);
  common::Status setattr(std::string_view path, const fsns::InodeAttr& attr);

  // --- balancing interface (the Migrator, §4.1) ---------------------------
  /// Shard owning a directory's fragment (where its children's dirents
  /// live). Errors if the path is missing or not a directory.
  common::Result<std::uint32_t> owner_of(std::string_view path) const;

  /// Moves the directory fragment rooted at `path` — the dir and every
  /// directory below it — to `target` shard, relocating all dirents.
  /// Returns the number of entries moved.
  common::Result<std::uint64_t> migrate_subtree(std::string_view path,
                                                std::uint32_t target);

  // --- introspection -------------------------------------------------------
  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// Direct access to one shard's store — the live fault engine drives the
  /// real group-commit/crash-recovery pipeline through this.
  [[nodiscard]] kv::Db& shard_db(std::uint32_t shard) noexcept {
    return *shards_[shard];
  }
  [[nodiscard]] const kv::Db& shard_db(std::uint32_t shard) const noexcept {
    return *shards_[shard];
  }
  [[nodiscard]] std::vector<ShardStats> shard_stats() const;
  [[nodiscard]] std::uint64_t entry_count() const noexcept { return entries_; }

  // --- the Data Collector (§4.1) -------------------------------------------
  /// Per-directory snapshot: namespace shape plus the access counters
  /// accumulated since the last drain — exactly the feature inputs of
  /// Table 1, at directory granularity.
  struct DirActivity {
    Ino ino = kInvalidIno;
    Ino parent = kInvalidIno;
    std::uint32_t depth = 0;
    std::uint32_t shard = 0;
    std::uint64_t sub_files = 0;  ///< direct file children
    std::uint64_t sub_dirs = 0;   ///< direct directory children
    std::uint64_t reads = 0;      ///< metadata reads homed here this epoch
    std::uint64_t writes = 0;     ///< metadata writes homed here this epoch
  };

  /// Dumps every directory's activity; with `reset`, starts a new epoch.
  [[nodiscard]] std::vector<DirActivity> collect_activity(bool reset = true);

  /// Ino-addressed variant of migrate_subtree (what a balancing loop uses,
  /// since the Data Collector reports inodes, not paths).
  common::Result<std::uint64_t> migrate_subtree_ino(Ino dir,
                                                    std::uint32_t target);

  // --- fault-tolerance interface (shared execution engine) -----------------
  /// Shard currently owning a directory's fragment (0 for unknown inodes).
  [[nodiscard]] std::uint32_t dir_shard(Ino dir) const {
    return dir_owner(dir);
  }

  /// Ownership epoch of a directory fragment, bumped on every owner change
  /// (balancer migration, failover reassignment, post-recovery restore) —
  /// the live analogue of mds::PartitionMap::ownership_epoch, compared by
  /// the request-fencing layer.
  [[nodiscard]] std::uint32_t ownership_epoch(Ino dir) const;

  /// Moves one directory's own fragment (its child dirents, not the
  /// subtree) to `target` and bumps its ownership epoch — the primitive
  /// crash failover and recovery restore are built on. Returns the number
  /// of dirents relocated; an empty fragment still transfers ownership.
  common::Result<std::uint64_t> reassign_dir(Ino dir, std::uint32_t target);

  /// Directory inodes currently owned by `shard`, sorted by ino so callers
  /// iterate deterministically.
  [[nodiscard]] std::vector<Ino> dirs_owned_by(std::uint32_t shard) const;

  // --- durability -----------------------------------------------------------
  /// Persists the whole service (every shard's LSM checkpoint + the
  /// ownership map and directory bookkeeping) under `prefix`:
  /// `<prefix>.manifest` plus `<prefix>.shard<N>`.
  common::Status checkpoint(const std::string& prefix) const;

  /// Restores a freshly-constructed service (same shard count) from a
  /// checkpoint written by `checkpoint()`.
  common::Status restore(const std::string& prefix);

 private:
  struct Resolved {
    Ino parent = kInvalidIno;   ///< inode of the parent directory
    std::string leaf;           ///< final component name ("" for root)
    Ino ino = kInvalidIno;      ///< inode of the entry (0 if absent)
    bool is_dir = false;
    fsns::InodeAttr attr;
  };

  [[nodiscard]] std::uint32_t dir_owner(Ino dir) const;
  [[nodiscard]] kv::Db& shard_for(Ino parent_dir) const;

  /// Walks the path; returns kNotFound if an intermediate component is
  /// missing or not a directory. The leaf itself may be absent
  /// (ino == kInvalidIno) — callers decide whether that is an error.
  common::Result<Resolved> resolve(std::string_view path) const;

  common::Status insert_entry(Ino parent, std::string_view name, Ino ino,
                              bool is_dir, const fsns::InodeAttr& attr);
  common::Status erase_entry(Ino parent, std::string_view name);

  /// Directory-tree bookkeeping for the Data Collector (depth is derived
  /// by walking parents so directory renames stay O(1)).
  struct DirMeta {
    Ino parent = kInvalidIno;
    std::string name;
    std::uint64_t sub_files = 0;
    std::uint64_t sub_dirs = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
  };
  void charge_read(Ino dir) const { dirs_[dir].reads++; }
  void charge_write(Ino dir) { dirs_[dir].writes++; }
  [[nodiscard]] std::uint32_t depth_of(Ino dir) const;
  common::Status migrate_subtree_resolved(Ino root, std::uint32_t target,
                                          std::uint64_t& moved);

  std::vector<std::unique_ptr<kv::Db>> shards_;
  mutable std::vector<ShardStats> stats_;
  std::unordered_map<Ino, std::uint32_t> owner_;  // directories only
  /// Ownership-change counters per directory (absent = epoch 0).
  std::unordered_map<Ino, std::uint32_t> dir_epoch_;
  mutable std::unordered_map<Ino, DirMeta> dirs_;  // directories only
  Ino next_ino_ = kRootIno + 1;
  std::uint64_t entries_ = 0;
};

}  // namespace origami::fs
