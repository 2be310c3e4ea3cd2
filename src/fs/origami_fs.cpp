#include "origami/fs/origami_fs.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <fstream>

#include "origami/fsns/path_resolver.hpp"
#include "origami/mds/inode_store.hpp"

namespace origami::fs {

namespace {

/// Dirent value layout: [u64 ino][u8 is_dir][InodeAttr].
std::string encode_dirent(Ino ino, bool is_dir, const fsns::InodeAttr& attr) {
  std::string out;
  out.resize(9 + sizeof(fsns::InodeAttr));
  std::memcpy(out.data(), &ino, 8);
  out[8] = is_dir ? 1 : 0;
  std::memcpy(out.data() + 9, &attr, sizeof(fsns::InodeAttr));
  return out;
}

bool decode_dirent(std::string_view data, Ino& ino, bool& is_dir,
                   fsns::InodeAttr& attr) {
  if (data.size() != 9 + sizeof(fsns::InodeAttr)) return false;
  std::memcpy(&ino, data.data(), 8);
  is_dir = data[8] != 0;
  std::memcpy(&attr, data.data() + 9, sizeof(fsns::InodeAttr));
  return true;
}

std::string dirent_key(Ino parent, std::string_view name) {
  // Big-endian parent so siblings are contiguous (readdir = prefix scan).
  std::string key;
  key.reserve(8 + name.size());
  for (int shift = 56; shift >= 0; shift -= 8) {
    key.push_back(static_cast<char>((parent >> shift) & 0xff));
  }
  key.append(name);
  return key;
}

std::string dirent_prefix(Ino parent) { return dirent_key(parent, {}); }

}  // namespace

OrigamiFs::OrigamiFs(Options options) {
  const std::uint32_t n = std::max<std::uint32_t>(1, options.shards);
  shards_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<kv::Db>(options.db));
  }
  stats_.resize(n);
  owner_[kRootIno] = 0;  // OrigamiFS initial state: everything on MDS-0
  dirs_[kRootIno] = DirMeta{};
}

std::uint32_t OrigamiFs::dir_owner(Ino dir) const {
  const auto it = owner_.find(dir);
  return it == owner_.end() ? 0 : it->second;
}

common::Status OrigamiFs::read_dirent(Ino dir, std::string_view name,
                                      Resolved& out) const {
  const std::uint32_t shard = dir_owner(dir);
  ++stats_[shard].lookups;
  auto value = shards_[shard]->get(dirent_key(dir, name));
  out.parent = dir;
  out.leaf = name;
  if (!value.is_ok()) {
    out.ino = kInvalidIno;  // absent — caller decides
    out.is_dir = false;
    return common::Status::ok();
  }
  if (!decode_dirent(value.value(), out.ino, out.is_dir, out.attr)) {
    return common::Status::corruption("bad dirent for " + std::string(name));
  }
  return common::Status::ok();
}

OrigamiFs::Resolution OrigamiFs::resolve(std::string_view path) const {
  Resolved out;
  out.ino = kRootIno;
  out.is_dir = true;

  const auto parts = fsns::split_path(path);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (!out.is_dir) {
      return common::Status::not_found("not a directory: " +
                                       std::string(parts[i - 1]));
    }
    if (auto s = read_dirent(out.ino, parts[i], out); !s.is_ok()) return s;
    if (out.ino == kInvalidIno && i + 1 < parts.size()) {
      return common::Status::not_found("missing component: " +
                                       std::string(parts[i]));
    }
  }
  return out;
}

OrigamiFs::Resolution OrigamiFs::resolve_at(Ino parent,
                                            std::string_view name) const {
  Resolved out;
  if (parent == kInvalidIno && name.empty()) {  // the root, as "/"
    out.ino = kRootIno;
    out.is_dir = true;
    return out;
  }
  const auto it = dirs_.find(parent);
  if (it == dirs_.end()) {
    return common::Status::not_found("no such directory inode");
  }
  if (!fsns::is_path_component(name)) {
    return common::Status::invalid_argument("bad entry name: " +
                                            std::string(name));
  }
  // The string form reads one dirent per component, each at the owner of
  // the directory holding it: every directory above `parent`, then
  // `parent` itself for the leaf.
  for (Ino dir = it->second.parent; dir != kInvalidIno;
       dir = dirs_.at(dir).parent) {
    ++stats_[dir_owner(dir)].lookups;
  }
  if (auto s = read_dirent(parent, name, out); !s.is_ok()) return s;
  return out;
}

common::Status OrigamiFs::insert_entry(Ino parent, std::string_view name,
                                       Ino ino, bool is_dir,
                                       const fsns::InodeAttr& attr) {
  const std::uint32_t shard = dir_owner(parent);
  ++stats_[shard].mutations;
  ++stats_[shard].entries;
  ++entries_;
  return shards_[shard]->put(dirent_key(parent, name),
                             encode_dirent(ino, is_dir, attr));
}

common::Status OrigamiFs::erase_entry(Ino parent, std::string_view name) {
  const std::uint32_t shard = dir_owner(parent);
  ++stats_[shard].mutations;
  --stats_[shard].entries;
  --entries_;
  return shards_[shard]->del(dirent_key(parent, name));
}

common::Result<Ino> OrigamiFs::mkdir(std::string_view path) {
  return mkdir_entry(resolve(path), path);
}
common::Result<Ino> OrigamiFs::mkdir_at(Ino parent, std::string_view name) {
  return mkdir_entry(resolve_at(parent, name), name);
}

common::Result<Ino> OrigamiFs::mkdir_entry(const Resolution& resolved,
                                           std::string_view what) {
  if (!resolved.is_ok()) return resolved.status();
  const Resolved& r = resolved.value();
  if (r.leaf.empty()) {
    return common::Status::already_exists("/");
  }
  if (r.ino != kInvalidIno) {
    return common::Status::already_exists(std::string(what));
  }
  const Ino ino = next_ino_++;
  fsns::InodeAttr attr;
  attr.mode = 0755;
  attr.nlink = 2;
  if (auto s = insert_entry(r.parent, r.leaf, ino, true, attr); !s.is_ok()) {
    return s;
  }
  // A new directory's fragment stays with its parent's shard until the
  // balancer says otherwise (subtree locality by default).
  owner_[ino] = dir_owner(r.parent);
  DirMeta meta;
  meta.parent = r.parent;
  meta.name = r.leaf;
  dirs_[ino] = std::move(meta);
  ++dirs_[r.parent].sub_dirs;
  charge_write(r.parent);
  return ino;
}

common::Result<Ino> OrigamiFs::create(std::string_view path) {
  return create_entry(resolve(path), path);
}
common::Result<Ino> OrigamiFs::create_at(Ino parent, std::string_view name) {
  return create_entry(resolve_at(parent, name), name);
}

common::Result<Ino> OrigamiFs::create_entry(const Resolution& resolved,
                                            std::string_view what) {
  if (!resolved.is_ok()) return resolved.status();
  const Resolved& r = resolved.value();
  if (r.leaf.empty() || r.ino != kInvalidIno) {
    return common::Status::already_exists(std::string(what));
  }
  const Ino ino = next_ino_++;
  if (auto s = insert_entry(r.parent, r.leaf, ino, false, {}); !s.is_ok()) {
    return s;
  }
  ++dirs_[r.parent].sub_files;
  charge_write(r.parent);
  return ino;
}

common::Result<Stat> OrigamiFs::stat(std::string_view path) const {
  return stat_entry(resolve(path), path);
}
common::Result<Stat> OrigamiFs::stat_at(Ino parent,
                                        std::string_view name) const {
  return stat_entry(resolve_at(parent, name), name);
}

common::Result<Stat> OrigamiFs::stat_entry(const Resolution& resolved,
                                           std::string_view what) const {
  if (!resolved.is_ok()) return resolved.status();
  const Resolved& r = resolved.value();
  if (r.ino == kInvalidIno) {
    return common::Status::not_found(std::string(what));
  }
  charge_read(r.is_dir ? r.ino : r.parent);
  Stat out;
  out.ino = r.ino;
  out.is_dir = r.is_dir;
  out.attr = r.attr;
  out.shard = r.leaf.empty() ? dir_owner(kRootIno) : dir_owner(r.parent);
  return out;
}

common::Status OrigamiFs::unlink(std::string_view path) {
  return unlink_entry(resolve(path), path);
}
common::Status OrigamiFs::unlink_at(Ino parent, std::string_view name) {
  return unlink_entry(resolve_at(parent, name), name);
}

common::Status OrigamiFs::unlink_entry(const Resolution& resolved,
                                       std::string_view what) {
  if (!resolved.is_ok()) return resolved.status();
  const Resolved& r = resolved.value();
  if (r.ino == kInvalidIno) return common::Status::not_found(std::string(what));
  if (r.is_dir) {
    return common::Status::failed_precondition("is a directory: " +
                                               std::string(what));
  }
  --dirs_[r.parent].sub_files;
  charge_write(r.parent);
  return erase_entry(r.parent, r.leaf);
}

common::Status OrigamiFs::rmdir(std::string_view path) {
  auto resolved = resolve(path);
  if (!resolved.is_ok()) return resolved.status();
  const Resolved& r = resolved.value();
  if (r.ino == kInvalidIno) return common::Status::not_found(std::string(path));
  if (!r.is_dir) {
    return common::Status::failed_precondition("not a directory: " +
                                               std::string(path));
  }
  bool empty = true;
  shards_[dir_owner(r.ino)]->scan_prefix(
      dirent_prefix(r.ino), [&](std::string_view, std::string_view) {
        empty = false;
        return false;
      });
  if (!empty) {
    return common::Status::failed_precondition("directory not empty: " +
                                               std::string(path));
  }
  if (auto s = erase_entry(r.parent, r.leaf); !s.is_ok()) return s;
  owner_.erase(r.ino);
  dirs_.erase(r.ino);
  --dirs_[r.parent].sub_dirs;
  charge_write(r.parent);
  return common::Status::ok();
}

common::Result<std::vector<DirEntry>> OrigamiFs::readdir(
    std::string_view path) const {
  return readdir_entry(resolve(path), path);
}
common::Result<std::vector<DirEntry>> OrigamiFs::readdir_at(
    Ino parent, std::string_view name) const {
  return readdir_entry(resolve_at(parent, name), name);
}

common::Result<std::vector<DirEntry>> OrigamiFs::readdir_entry(
    const Resolution& resolved, std::string_view what) const {
  if (!resolved.is_ok()) return resolved.status();
  const Resolved& r = resolved.value();
  if (r.ino == kInvalidIno) return common::Status::not_found(std::string(what));
  if (!r.is_dir) {
    return common::Status::failed_precondition("not a directory: " +
                                               std::string(what));
  }
  const std::uint32_t shard = dir_owner(r.ino);
  ++stats_[shard].lookups;
  charge_read(r.ino);
  std::vector<DirEntry> out;
  shards_[shard]->scan_prefix(
      dirent_prefix(r.ino), [&](std::string_view key, std::string_view value) {
        DirEntry e;
        e.name.assign(key.substr(8));
        fsns::InodeAttr attr;
        if (decode_dirent(value, e.ino, e.is_dir, attr)) {
          out.push_back(std::move(e));
        }
        return true;
      });
  return out;
}

common::Status OrigamiFs::rename(std::string_view from, std::string_view to) {
  auto src = resolve(from);
  if (!src.is_ok()) return src.status();
  const Resolved& s = src.value();
  if (s.ino == kInvalidIno) return common::Status::not_found(std::string(from));
  if (s.leaf.empty()) {
    return common::Status::invalid_argument("cannot rename /");
  }

  auto dst = resolve(to);
  if (!dst.is_ok()) return dst.status();
  const Resolved& d = dst.value();
  if (s.is_dir) {
    // Moving a directory beneath itself would cut it off from the root and
    // close a parent cycle (POSIX: EINVAL).
    for (Ino dir = d.parent; dir != kInvalidIno; dir = dirs_.at(dir).parent) {
      if (dir == s.ino) {
        return common::Status::invalid_argument(
            "cannot move a directory into its own subtree: " +
            std::string(to));
      }
    }
  }
  if (d.ino != kInvalidIno || d.leaf.empty()) {
    return common::Status::already_exists(std::string(to));
  }

  if (auto status = insert_entry(d.parent, d.leaf, s.ino, s.is_dir, s.attr);
      !status.is_ok()) {
    return status;
  }
  if (s.is_dir) {
    --dirs_[s.parent].sub_dirs;
    ++dirs_[d.parent].sub_dirs;
    DirMeta& meta = dirs_[s.ino];
    meta.parent = d.parent;
    meta.name = d.leaf;
  } else {
    --dirs_[s.parent].sub_files;
    ++dirs_[d.parent].sub_files;
  }
  charge_write(s.parent);
  charge_write(d.parent);
  return erase_entry(s.parent, s.leaf);
}

common::Status OrigamiFs::setattr(std::string_view path,
                                  const fsns::InodeAttr& attr) {
  return setattr_entry(resolve(path), path, attr);
}
common::Status OrigamiFs::setattr_at(Ino parent, std::string_view name,
                                     const fsns::InodeAttr& attr) {
  return setattr_entry(resolve_at(parent, name), name, attr);
}

common::Status OrigamiFs::setattr_entry(const Resolution& resolved,
                                        std::string_view what,
                                        const fsns::InodeAttr& attr) {
  if (!resolved.is_ok()) return resolved.status();
  const Resolved& r = resolved.value();
  if (r.ino == kInvalidIno || r.leaf.empty()) {
    return common::Status::not_found(std::string(what));
  }
  const std::uint32_t shard = dir_owner(r.parent);
  ++stats_[shard].mutations;
  charge_write(r.is_dir ? r.ino : r.parent);
  return shards_[shard]->put(dirent_key(r.parent, r.leaf),
                             encode_dirent(r.ino, r.is_dir, attr));
}

common::Result<std::uint32_t> OrigamiFs::owner_of(std::string_view path) const {
  auto resolved = resolve(path);
  if (!resolved.is_ok()) return resolved.status();
  const Resolved& r = resolved.value();
  if (r.ino == kInvalidIno) return common::Status::not_found(std::string(path));
  if (!r.is_dir) {
    return common::Status::failed_precondition("not a directory: " +
                                               std::string(path));
  }
  return dir_owner(r.ino);
}

common::Result<std::uint64_t> OrigamiFs::migrate_subtree(std::string_view path,
                                                         std::uint32_t target) {
  if (target >= shards_.size()) {
    return common::Status::invalid_argument("no such shard");
  }
  auto resolved = resolve(path);
  if (!resolved.is_ok()) return resolved.status();
  const Resolved& r = resolved.value();
  if (r.ino == kInvalidIno) return common::Status::not_found(std::string(path));
  if (!r.is_dir) {
    return common::Status::failed_precondition("not a directory: " +
                                               std::string(path));
  }
  std::uint64_t moved = 0;
  if (auto s = migrate_subtree_resolved(r.ino, target, moved); !s.is_ok()) {
    return s;
  }
  return moved;
}

common::Result<std::uint64_t> OrigamiFs::migrate_subtree_ino(
    Ino dir, std::uint32_t target) {
  if (target >= shards_.size()) {
    return common::Status::invalid_argument("no such shard");
  }
  if (dirs_.find(dir) == dirs_.end()) {
    return common::Status::not_found("no such directory inode");
  }
  std::uint64_t moved = 0;
  if (auto s = migrate_subtree_resolved(dir, target, moved); !s.is_ok()) {
    return s;
  }
  return moved;
}

common::Status OrigamiFs::migrate_subtree_resolved(Ino root,
                                                   std::uint32_t target,
                                                   std::uint64_t& moved) {
  // BFS over the directory fragments of the subtree, relocating each dir's
  // child dirents to the target shard (the Migrator's export/import).
  moved = 0;
  std::deque<Ino> queue{root};
  while (!queue.empty()) {
    const Ino dir = queue.front();
    queue.pop_front();
    const std::uint32_t from = dir_owner(dir);
    if (from != target) {
      std::vector<std::pair<std::string, std::string>> relocated;
      shards_[from]->scan_prefix(
          dirent_prefix(dir),
          [&](std::string_view key, std::string_view value) {
            relocated.emplace_back(std::string(key), std::string(value));
            return true;
          });
      for (const auto& [key, value] : relocated) {
        if (auto s = shards_[target]->put(key, value); !s.is_ok()) return s;
        if (auto s = shards_[from]->del(key); !s.is_ok()) return s;
      }
      stats_[from].entries -= relocated.size();
      stats_[target].entries += relocated.size();
      moved += relocated.size();
      owner_[dir] = target;
      ++dir_epoch_[dir];  // ownership changed: fence stale cached routes
    }
    // Enumerate children from the (now-)owning shard and descend.
    shards_[dir_owner(dir)]->scan_prefix(
        dirent_prefix(dir), [&](std::string_view, std::string_view value) {
          Ino ino = kInvalidIno;
          bool is_dir = false;
          fsns::InodeAttr attr;
          if (decode_dirent(value, ino, is_dir, attr) && is_dir) {
            queue.push_back(ino);
          }
          return true;
        });
  }
  return common::Status::ok();
}

std::uint32_t OrigamiFs::ownership_epoch(Ino dir) const {
  const auto it = dir_epoch_.find(dir);
  return it == dir_epoch_.end() ? 0 : it->second;
}

common::Result<std::uint64_t> OrigamiFs::reassign_dir(Ino dir,
                                                      std::uint32_t target) {
  if (target >= shards_.size()) {
    return common::Status::invalid_argument("no such shard");
  }
  if (dirs_.find(dir) == dirs_.end()) {
    return common::Status::not_found("no such directory inode");
  }
  const std::uint32_t from = dir_owner(dir);
  if (from == target) return std::uint64_t{0};
  std::vector<std::pair<std::string, std::string>> relocated;
  shards_[from]->scan_prefix(dirent_prefix(dir),
                             [&](std::string_view key, std::string_view value) {
                               relocated.emplace_back(std::string(key),
                                                      std::string(value));
                               return true;
                             });
  for (const auto& [key, value] : relocated) {
    if (auto s = shards_[target]->put(key, value); !s.is_ok()) return s;
    if (auto s = shards_[from]->del(key); !s.is_ok()) return s;
  }
  stats_[from].entries -= relocated.size();
  stats_[target].entries += relocated.size();
  owner_[dir] = target;
  ++dir_epoch_[dir];
  return static_cast<std::uint64_t>(relocated.size());
}

std::vector<Ino> OrigamiFs::dirs_owned_by(std::uint32_t shard) const {
  std::vector<Ino> out;
  for (const auto& [ino, meta] : dirs_) {
    if (dir_owner(ino) == shard) out.push_back(ino);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint32_t OrigamiFs::depth_of(Ino dir) const {
  std::uint32_t depth = 0;
  for (auto it = dirs_.find(dir);
       it != dirs_.end() && it->second.parent != kInvalidIno;
       it = dirs_.find(it->second.parent)) {
    ++depth;
  }
  return depth;
}

std::vector<OrigamiFs::DirActivity> OrigamiFs::collect_activity(bool reset) {
  std::vector<DirActivity> out;
  out.reserve(dirs_.size());
  for (auto& [ino, meta] : dirs_) {
    DirActivity a;
    a.ino = ino;
    a.parent = meta.parent;
    a.depth = depth_of(ino);
    a.shard = dir_owner(ino);
    a.sub_files = meta.sub_files;
    a.sub_dirs = meta.sub_dirs;
    a.reads = meta.reads;
    a.writes = meta.writes;
    out.push_back(a);
    if (reset) {
      meta.reads = 0;
      meta.writes = 0;
    }
  }
  return out;
}

std::vector<ShardStats> OrigamiFs::shard_stats() const { return stats_; }

common::Status OrigamiFs::checkpoint(const std::string& prefix) const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (auto s = shards_[i]->checkpoint(prefix + ".shard" + std::to_string(i));
        !s.is_ok()) {
      return s;
    }
  }
  // Manifest: next ino, entry count, per-shard stats, owner map, dir meta.
  std::ofstream out(prefix + ".manifest", std::ios::trunc);
  if (!out) return common::Status::unavailable("cannot write manifest");
  out << "origami-fs 1\n";
  out << shards_.size() << ' ' << next_ino_ << ' ' << entries_ << '\n';
  for (const ShardStats& st : stats_) {
    out << st.lookups << ' ' << st.mutations << ' ' << st.entries << '\n';
  }
  out << owner_.size() << '\n';
  for (const auto& [ino, shard] : owner_) out << ino << ' ' << shard << '\n';
  out << dirs_.size() << '\n';
  for (const auto& [ino, meta] : dirs_) {
    // Names never contain spaces? They can. Quote via length prefix.
    out << ino << ' ' << meta.parent << ' ' << meta.sub_files << ' '
        << meta.sub_dirs << ' ' << meta.reads << ' ' << meta.writes << ' '
        << meta.name.size() << ' ' << meta.name << '\n';
  }
  if (!out) return common::Status::unavailable("manifest write failed");
  return common::Status::ok();
}

common::Status OrigamiFs::restore(const std::string& prefix) {
  std::ifstream in(prefix + ".manifest");
  if (!in) return common::Status::not_found(prefix + ".manifest");
  std::string magic;
  int version = 0;
  std::size_t shard_count = 0;
  in >> magic >> version >> shard_count >> next_ino_ >> entries_;
  if (magic != "origami-fs" || version != 1 ||
      shard_count != shards_.size()) {
    return common::Status::corruption("bad manifest (or shard-count mismatch)");
  }
  for (ShardStats& st : stats_) in >> st.lookups >> st.mutations >> st.entries;

  std::size_t owners = 0;
  in >> owners;
  owner_.clear();
  dir_epoch_.clear();  // epochs restart from 0 after a restore
  for (std::size_t i = 0; i < owners; ++i) {
    Ino ino = 0;
    std::uint32_t shard = 0;
    in >> ino >> shard;
    owner_[ino] = shard;
  }
  std::size_t ndirs = 0;
  in >> ndirs;
  dirs_.clear();
  for (std::size_t i = 0; i < ndirs; ++i) {
    Ino ino = 0;
    DirMeta meta;
    std::size_t name_len = 0;
    in >> ino >> meta.parent >> meta.sub_files >> meta.sub_dirs >>
        meta.reads >> meta.writes >> name_len;
    in.get();  // the single separator space
    meta.name.resize(name_len);
    in.read(meta.name.data(), static_cast<std::streamsize>(name_len));
    dirs_[ino] = std::move(meta);
  }
  if (!in) return common::Status::corruption("truncated manifest");

  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (auto s = shards_[i]->restore(prefix + ".shard" + std::to_string(i));
        !s.is_ok()) {
      return s;
    }
  }
  return common::Status::ok();
}

}  // namespace origami::fs
