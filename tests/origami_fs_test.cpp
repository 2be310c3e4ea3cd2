// Tests for the live OrigamiFS metadata service: POSIX-flavoured semantics,
// shard routing, and subtree migration correctness.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "origami/common/rng.hpp"
#include "origami/fs/origami_fs.hpp"

namespace origami::fs {
namespace {

OrigamiFs::Options small_options(std::uint32_t shards = 3) {
  OrigamiFs::Options o;
  o.shards = shards;
  return o;
}

// ------------------------------------------------------------- semantics --

TEST(OrigamiFs, RootExists) {
  OrigamiFs fsys;
  auto s = fsys.stat("/");
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(s.value().ino, kRootIno);
  EXPECT_TRUE(s.value().is_dir);
}

TEST(OrigamiFs, MkdirCreateStat) {
  OrigamiFs fsys(small_options());
  ASSERT_TRUE(fsys.mkdir("/home").is_ok());
  ASSERT_TRUE(fsys.mkdir("/home/alice").is_ok());
  auto file = fsys.create("/home/alice/notes.txt");
  ASSERT_TRUE(file.is_ok());

  auto s = fsys.stat("/home/alice/notes.txt");
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(s.value().ino, file.value());
  EXPECT_FALSE(s.value().is_dir);

  auto d = fsys.stat("/home/alice");
  ASSERT_TRUE(d.is_ok());
  EXPECT_TRUE(d.value().is_dir);
}

TEST(OrigamiFs, ErrorsMatchPosixExpectations) {
  OrigamiFs fsys(small_options());
  ASSERT_TRUE(fsys.mkdir("/a").is_ok());
  ASSERT_TRUE(fsys.create("/a/f").is_ok());

  // Duplicate names.
  EXPECT_EQ(fsys.mkdir("/a").status().code(),
            common::StatusCode::kAlreadyExists);
  EXPECT_EQ(fsys.create("/a/f").status().code(),
            common::StatusCode::kAlreadyExists);
  // Missing intermediate.
  EXPECT_EQ(fsys.create("/missing/f").status().code(),
            common::StatusCode::kNotFound);
  // Descend through a file.
  EXPECT_EQ(fsys.stat("/a/f/x").status().code(), common::StatusCode::kNotFound);
  // unlink on a dir / rmdir on a file.
  EXPECT_EQ(fsys.unlink("/a").code(), common::StatusCode::kFailedPrecondition);
  EXPECT_EQ(fsys.rmdir("/a/f").code(), common::StatusCode::kFailedPrecondition);
  // rmdir on non-empty.
  EXPECT_EQ(fsys.rmdir("/a").code(), common::StatusCode::kFailedPrecondition);
  // stat of absent leaf.
  EXPECT_EQ(fsys.stat("/a/zzz").status().code(), common::StatusCode::kNotFound);
}

TEST(OrigamiFs, UnlinkAndRmdirLifecycle) {
  OrigamiFs fsys(small_options());
  ASSERT_TRUE(fsys.mkdir("/tmp").is_ok());
  ASSERT_TRUE(fsys.create("/tmp/x").is_ok());
  EXPECT_TRUE(fsys.unlink("/tmp/x").is_ok());
  EXPECT_EQ(fsys.stat("/tmp/x").status().code(), common::StatusCode::kNotFound);
  EXPECT_TRUE(fsys.rmdir("/tmp").is_ok());
  EXPECT_EQ(fsys.stat("/tmp").status().code(), common::StatusCode::kNotFound);
  // Recreating the same names must work.
  EXPECT_TRUE(fsys.mkdir("/tmp").is_ok());
  EXPECT_TRUE(fsys.create("/tmp/x").is_ok());
}

TEST(OrigamiFs, ReaddirListsAllChildren) {
  OrigamiFs fsys(small_options());
  ASSERT_TRUE(fsys.mkdir("/d").is_ok());
  std::set<std::string> expected;
  for (int i = 0; i < 20; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(fsys.create("/d/" + name).is_ok());
    expected.insert(name);
  }
  ASSERT_TRUE(fsys.mkdir("/d/sub").is_ok());
  expected.insert("sub");

  auto listing = fsys.readdir("/d");
  ASSERT_TRUE(listing.is_ok());
  std::set<std::string> got;
  for (const DirEntry& e : listing.value()) got.insert(e.name);
  EXPECT_EQ(got, expected);
  // readdir on root sees /d.
  auto root = fsys.readdir("/");
  ASSERT_TRUE(root.is_ok());
  ASSERT_EQ(root.value().size(), 1u);
  EXPECT_EQ(root.value()[0].name, "d");
  EXPECT_TRUE(root.value()[0].is_dir);
}

TEST(OrigamiFs, RenameFileAndDirectory) {
  OrigamiFs fsys(small_options());
  ASSERT_TRUE(fsys.mkdir("/src").is_ok());
  ASSERT_TRUE(fsys.mkdir("/dst").is_ok());
  ASSERT_TRUE(fsys.create("/src/file").is_ok());
  ASSERT_TRUE(fsys.mkdir("/src/dir").is_ok());
  ASSERT_TRUE(fsys.create("/src/dir/inner").is_ok());

  ASSERT_TRUE(fsys.rename("/src/file", "/dst/file2").is_ok());
  EXPECT_FALSE(fsys.stat("/src/file").is_ok());
  EXPECT_TRUE(fsys.stat("/dst/file2").is_ok());

  // Renaming a directory carries its subtree (same inode, entries follow).
  const auto before = fsys.stat("/src/dir").value().ino;
  ASSERT_TRUE(fsys.rename("/src/dir", "/dst/dir").is_ok());
  EXPECT_EQ(fsys.stat("/dst/dir").value().ino, before);
  EXPECT_TRUE(fsys.stat("/dst/dir/inner").is_ok());
  EXPECT_FALSE(fsys.stat("/src/dir/inner").is_ok());

  // Destination exists / renaming root are rejected.
  EXPECT_EQ(fsys.rename("/dst/file2", "/dst/dir").code(),
            common::StatusCode::kAlreadyExists);
  EXPECT_EQ(fsys.rename("/", "/x").code(), common::StatusCode::kInvalidArgument);
}

TEST(OrigamiFs, SetattrPersists) {
  OrigamiFs fsys(small_options());
  ASSERT_TRUE(fsys.create("/f").is_ok());
  fsns::InodeAttr attr;
  attr.mode = 0600;
  attr.size = 4096;
  ASSERT_TRUE(fsys.setattr("/f", attr).is_ok());
  auto s = fsys.stat("/f");
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(s.value().attr.mode, 0600u);
  EXPECT_EQ(s.value().attr.size, 4096u);
}

// --------------------------------------------------------------- sharding --

TEST(OrigamiFs, EverythingStartsOnShardZero) {
  OrigamiFs fsys(small_options());
  ASSERT_TRUE(fsys.mkdir("/a").is_ok());
  ASSERT_TRUE(fsys.mkdir("/a/b").is_ok());
  EXPECT_EQ(fsys.owner_of("/").value(), 0u);
  EXPECT_EQ(fsys.owner_of("/a").value(), 0u);
  EXPECT_EQ(fsys.owner_of("/a/b").value(), 0u);
  const auto stats = fsys.shard_stats();
  EXPECT_GT(stats[0].entries, 0u);
  EXPECT_EQ(stats[1].entries, 0u);
}

TEST(OrigamiFs, MigrationMovesFragmentsAndPreservesData) {
  OrigamiFs fsys(small_options());
  ASSERT_TRUE(fsys.mkdir("/proj").is_ok());
  ASSERT_TRUE(fsys.mkdir("/proj/src").is_ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fsys.create("/proj/src/f" + std::to_string(i)).is_ok());
  }
  ASSERT_TRUE(fsys.mkdir("/other").is_ok());

  auto moved = fsys.migrate_subtree("/proj", 2);
  ASSERT_TRUE(moved.is_ok());
  EXPECT_GT(moved.value(), 10u);
  EXPECT_EQ(fsys.owner_of("/proj").value(), 2u);
  EXPECT_EQ(fsys.owner_of("/proj/src").value(), 2u);
  EXPECT_EQ(fsys.owner_of("/other").value(), 0u);

  // Everything still resolves and lists correctly after the move.
  EXPECT_TRUE(fsys.stat("/proj/src/f3").is_ok());
  auto listing = fsys.readdir("/proj/src");
  ASSERT_TRUE(listing.is_ok());
  EXPECT_EQ(listing.value().size(), 10u);

  // New entries under the migrated dir land on the new shard.
  ASSERT_TRUE(fsys.create("/proj/src/fresh").is_ok());
  const auto stats = fsys.shard_stats();
  EXPECT_GT(stats[2].entries, 10u);

  // Idempotent: migrating again to the same shard moves nothing.
  EXPECT_EQ(fsys.migrate_subtree("/proj", 2).value(), 0u);
  // Bad target shard.
  EXPECT_EQ(fsys.migrate_subtree("/proj", 99).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(OrigamiFs, RandomOpsWithMigrationsMatchReferenceModel) {
  // Property test: a shadow model of (path -> is_dir) must agree with the
  // service under random ops interleaved with random subtree migrations.
  OrigamiFs fsys(small_options(4));
  common::Xoshiro256 rng(2024);

  std::vector<std::string> dirs{""};  // "" == root prefix
  std::set<std::string> files;
  for (int step = 0; step < 3'000; ++step) {
    const double roll = rng.uniform_double();
    if (roll < 0.25) {
      const std::string& parent = dirs[rng.uniform(dirs.size())];
      const std::string path = parent + "/d" + std::to_string(step);
      ASSERT_TRUE(fsys.mkdir(path).is_ok()) << path;
      dirs.push_back(path);
    } else if (roll < 0.6) {
      const std::string& parent = dirs[rng.uniform(dirs.size())];
      const std::string path = parent + "/f" + std::to_string(step);
      ASSERT_TRUE(fsys.create(path).is_ok()) << path;
      files.insert(path);
    } else if (roll < 0.75 && !files.empty()) {
      auto it = files.begin();
      std::advance(it, static_cast<long>(rng.uniform(files.size())));
      ASSERT_TRUE(fsys.unlink(*it).is_ok()) << *it;
      files.erase(it);
    } else if (roll < 0.9) {
      const std::string& victim = dirs[rng.uniform(dirs.size())];
      if (victim.empty()) continue;  // never migrate "/" wholesale? allowed, skip
      const auto target = static_cast<std::uint32_t>(rng.uniform(4));
      ASSERT_TRUE(fsys.migrate_subtree(victim, target).is_ok()) << victim;
    } else if (!files.empty()) {
      auto it = files.begin();
      std::advance(it, static_cast<long>(rng.uniform(files.size())));
      ASSERT_TRUE(fsys.stat(*it).is_ok()) << *it;
    }
  }
  // Final audit: every live file and directory resolves.
  for (const std::string& f : files) {
    auto s = fsys.stat(f);
    ASSERT_TRUE(s.is_ok()) << f;
    EXPECT_FALSE(s.value().is_dir);
  }
  for (const std::string& d : dirs) {
    if (d.empty()) continue;
    auto s = fsys.stat(d);
    ASSERT_TRUE(s.is_ok()) << d;
    EXPECT_TRUE(s.value().is_dir);
  }
  // Entry accounting is conserved across shards.
  std::uint64_t total = 0;
  for (const auto& st : fsys.shard_stats()) total += st.entries;
  EXPECT_EQ(total, fsys.entry_count());
  EXPECT_EQ(total, files.size() + dirs.size() - 1);
}

TEST(OrigamiFs, RenameIntoOwnSubtreeIsRefused) {
  OrigamiFs fsys(small_options());
  ASSERT_TRUE(fsys.mkdir("/a").is_ok());
  ASSERT_TRUE(fsys.mkdir("/a/b").is_ok());
  // Status first: were the move accepted, /a would close a parent cycle and
  // collect_activity below would never return.
  ASSERT_EQ(fsys.rename("/a", "/a/b/a").code(),
            common::StatusCode::kInvalidArgument);
  ASSERT_EQ(fsys.rename("/a", "/a/c").code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_TRUE(fsys.stat("/a").is_ok());
  EXPECT_TRUE(fsys.stat("/a/b").is_ok());
  EXPECT_EQ(fsys.collect_activity(false).size(), 3u);
  // Moving a directory up and out of its parent is fine.
  EXPECT_TRUE(fsys.rename("/a/b", "/b").is_ok());
  EXPECT_TRUE(fsys.stat("/b").is_ok());
}

// ------------------------------------------------- (parent ino, name) --

void expect_same(const common::Status& a, const common::Status& b) {
  EXPECT_EQ(a.code(), b.code()) << a.to_string() << " vs " << b.to_string();
}

template <typename T>
void expect_same_result(const common::Result<T>& a,
                        const common::Result<T>& b) {
  expect_same(a.status(), b.status());
}

void expect_same_counters(const OrigamiFs& a, const OrigamiFs& b) {
  const auto sa = a.shard_stats();
  const auto sb = b.shard_stats();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].lookups, sb[i].lookups) << "shard " << i;
    EXPECT_EQ(sa[i].mutations, sb[i].mutations) << "shard " << i;
    EXPECT_EQ(sa[i].entries, sb[i].entries) << "shard " << i;
  }
}

std::vector<OrigamiFs::DirActivity> sorted_activity(OrigamiFs& fsys,
                                                    bool reset) {
  auto out = fsys.collect_activity(reset);
  std::sort(out.begin(), out.end(),
            [](const auto& x, const auto& y) { return x.ino < y.ino; });
  return out;
}

void expect_same_activity(OrigamiFs& a, OrigamiFs& b, bool reset) {
  const auto xa = sorted_activity(a, reset);
  const auto xb = sorted_activity(b, reset);
  ASSERT_EQ(xa.size(), xb.size());
  for (std::size_t i = 0; i < xa.size(); ++i) {
    EXPECT_EQ(xa[i].ino, xb[i].ino);
    EXPECT_EQ(xa[i].parent, xb[i].parent);
    EXPECT_EQ(xa[i].depth, xb[i].depth);
    EXPECT_EQ(xa[i].shard, xb[i].shard);
    EXPECT_EQ(xa[i].sub_files, xb[i].sub_files);
    EXPECT_EQ(xa[i].sub_dirs, xb[i].sub_dirs);
    EXPECT_EQ(xa[i].reads, xb[i].reads) << "dir " << xa[i].ino;
    EXPECT_EQ(xa[i].writes, xb[i].writes) << "dir " << xa[i].ino;
  }
}

TEST(OrigamiFs, PathAndInoAddressingsAgree) {
  // Property test: one seeded op sequence drives two services, one by
  // string path and one by (parent inode, name). Every op returns the same
  // status and values on both, and after every migration the shard
  // counters and the Data Collector's activity are identical. A small name
  // pool makes duplicates, directory/file mismatches and misses common.
  OrigamiFs by_path(small_options(4));
  OrigamiFs by_ino(small_options(4));
  common::Xoshiro256 rng(2026);

  struct Dir {
    std::string path;  // "" for the root, so children are path + "/name"
    Ino ino;
  };
  std::vector<Dir> dirs{{"", kRootIno}};
  const char* const kNames[] = {"n0", "n1", "n2", "n3", "n4", "n5"};
  fsns::InodeAttr attr;
  for (int step = 0; step < 4'000; ++step) {
    // The root is addressed as "/" and (kInvalidIno, "").
    const bool root = rng.chance(0.05);
    const Dir dir = dirs[rng.uniform(dirs.size())];
    const std::string name = root ? "" : kNames[rng.uniform(std::size(kNames))];
    const std::string path = root ? "/" : dir.path + "/" + name;
    const Ino parent = root ? kInvalidIno : dir.ino;
    SCOPED_TRACE("step " + std::to_string(step) + ": " + path);

    const double roll = rng.uniform_double();
    if (roll < 0.15) {
      const auto a = by_path.mkdir(path);
      const auto b = by_ino.mkdir_at(parent, name);
      expect_same_result(a, b);
      if (a.is_ok() && b.is_ok()) {
        ASSERT_EQ(a.value(), b.value());
        dirs.push_back({path, a.value()});
      }
    } else if (roll < 0.35) {
      const auto a = by_path.create(path);
      const auto b = by_ino.create_at(parent, name);
      expect_same_result(a, b);
      if (a.is_ok() && b.is_ok()) {
        EXPECT_EQ(a.value(), b.value());
      }
    } else if (roll < 0.55) {
      const auto a = by_path.stat(path);
      const auto b = by_ino.stat_at(parent, name);
      expect_same_result(a, b);
      if (a.is_ok() && b.is_ok()) {
        EXPECT_EQ(a.value().ino, b.value().ino);
        EXPECT_EQ(a.value().is_dir, b.value().is_dir);
        EXPECT_EQ(a.value().shard, b.value().shard);
        EXPECT_EQ(a.value().attr.mode, b.value().attr.mode);
        EXPECT_EQ(a.value().attr.size, b.value().attr.size);
        EXPECT_EQ(a.value().attr.nlink, b.value().attr.nlink);
      }
    } else if (roll < 0.65) {
      const auto a = by_path.readdir(path);
      const auto b = by_ino.readdir_at(parent, name);
      expect_same_result(a, b);
      if (a.is_ok() && b.is_ok()) {
        ASSERT_EQ(a.value().size(), b.value().size());
        for (std::size_t i = 0; i < a.value().size(); ++i) {
          EXPECT_EQ(a.value()[i].name, b.value()[i].name);
          EXPECT_EQ(a.value()[i].ino, b.value()[i].ino);
          EXPECT_EQ(a.value()[i].is_dir, b.value()[i].is_dir);
        }
      }
    } else if (roll < 0.75) {
      attr.size = step;
      expect_same(by_path.setattr(path, attr),
                  by_ino.setattr_at(parent, name, attr));
    } else if (roll < 0.85) {
      expect_same(by_path.unlink(path), by_ino.unlink_at(parent, name));
    } else {
      const Ino moved = dirs[rng.uniform(dirs.size())].ino;
      const auto target = static_cast<std::uint32_t>(rng.uniform(4));
      if (rng.chance(0.5)) {
        const auto a = by_path.migrate_subtree_ino(moved, target);
        const auto b = by_ino.migrate_subtree_ino(moved, target);
        expect_same_result(a, b);
        if (a.is_ok() && b.is_ok()) {
          EXPECT_EQ(a.value(), b.value());
        }
      } else {
        const auto a = by_path.reassign_dir(moved, target);
        const auto b = by_ino.reassign_dir(moved, target);
        expect_same_result(a, b);
        if (a.is_ok() && b.is_ok()) {
          EXPECT_EQ(a.value(), b.value());
        }
      }
      expect_same_counters(by_path, by_ino);
      expect_same_activity(by_path, by_ino, /*reset=*/rng.chance(0.5));
    }
    if (::testing::Test::HasFailure()) return;
  }
  expect_same_counters(by_path, by_ino);
  expect_same_activity(by_path, by_ino, /*reset=*/false);
  EXPECT_GT(dirs.size(), 50u);

  // Outside input: a parent that is not a live directory (a file, an inode
  // never handed out) is not_found, a name no path spells is
  // invalid_argument, and neither moves a counter.
  ASSERT_TRUE(by_ino.mkdir_at(kRootIno, "probe").is_ok());
  const auto file = by_ino.create_at(kRootIno, "probe-file");
  ASSERT_TRUE(file.is_ok());
  const auto before = by_ino.shard_stats();
  const auto activity_before = sorted_activity(by_ino, /*reset=*/false);
  for (const Ino bad : {file.value(), Ino{1} << 40}) {
    using common::StatusCode;
    EXPECT_EQ(by_ino.mkdir_at(bad, "x").status().code(), StatusCode::kNotFound);
    EXPECT_EQ(by_ino.create_at(bad, "x").status().code(),
              StatusCode::kNotFound);
    EXPECT_EQ(by_ino.stat_at(bad, "x").status().code(), StatusCode::kNotFound);
    EXPECT_EQ(by_ino.readdir_at(bad, "x").status().code(),
              StatusCode::kNotFound);
    EXPECT_EQ(by_ino.setattr_at(bad, "x", {}).code(), StatusCode::kNotFound);
    EXPECT_EQ(by_ino.unlink_at(bad, "x").code(), StatusCode::kNotFound);
  }
  for (const char* bad : {"", ".", "a/b"}) {
    EXPECT_EQ(by_ino.stat_at(kRootIno, bad).status().code(),
              common::StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(by_ino.create_at(kRootIno, bad).status().code(),
              common::StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(by_ino.create_at(kInvalidIno, "x").status().code(),
            common::StatusCode::kNotFound);
  const auto after = by_ino.shard_stats();
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].lookups, before[i].lookups);
    EXPECT_EQ(after[i].mutations, before[i].mutations);
    EXPECT_EQ(after[i].entries, before[i].entries);
  }
  const auto activity_after = sorted_activity(by_ino, /*reset=*/false);
  ASSERT_EQ(activity_after.size(), activity_before.size());
  for (std::size_t i = 0; i < activity_after.size(); ++i) {
    EXPECT_EQ(activity_after[i].reads, activity_before[i].reads);
    EXPECT_EQ(activity_after[i].writes, activity_before[i].writes);
  }
}

}  // namespace
}  // namespace origami::fs

namespace origami::fs {
namespace {

TEST(OrigamiFsCheckpoint, SurvivesRestart) {
  const std::string prefix = ::testing::TempDir() + "/origami_fs_ckpt";
  {
    OrigamiFs fsys(small_options(3));
    ASSERT_TRUE(fsys.mkdir("/proj").is_ok());
    ASSERT_TRUE(fsys.mkdir("/proj/src").is_ok());
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(fsys.create("/proj/src/f" + std::to_string(i)).is_ok());
    }
    ASSERT_TRUE(fsys.migrate_subtree("/proj", 2).is_ok());
    ASSERT_TRUE(fsys.checkpoint(prefix).is_ok());
  }

  OrigamiFs revived(small_options(3));
  ASSERT_TRUE(revived.restore(prefix).is_ok());
  // Namespace intact, ownership preserved, new writes get fresh inos.
  EXPECT_TRUE(revived.stat("/proj/src/f7").is_ok());
  EXPECT_EQ(revived.readdir("/proj/src").value().size(), 25u);
  EXPECT_EQ(revived.owner_of("/proj").value(), 2u);
  const auto before = revived.entry_count();
  auto fresh = revived.create("/proj/src/after-restart");
  ASSERT_TRUE(fresh.is_ok());
  EXPECT_EQ(revived.entry_count(), before + 1);
  // The fresh inode does not collide with any checkpointed one.
  EXPECT_NE(fresh.value(), revived.stat("/proj/src/f7").value().ino);

  // Activity bookkeeping survives too (shape, not the live counters).
  bool found_src = false;
  for (const auto& a : revived.collect_activity(false)) {
    if (a.sub_files >= 25) found_src = true;
  }
  EXPECT_TRUE(found_src);

  for (int i = 0; i < 3; ++i) {
    std::remove((prefix + ".shard" + std::to_string(i)).c_str());
  }
  std::remove((prefix + ".manifest").c_str());
}

TEST(OrigamiFsCheckpoint, ShardCountMismatchRejected) {
  const std::string prefix = ::testing::TempDir() + "/origami_fs_ckpt2";
  {
    OrigamiFs fsys(small_options(2));
    ASSERT_TRUE(fsys.mkdir("/d").is_ok());
    ASSERT_TRUE(fsys.checkpoint(prefix).is_ok());
  }
  OrigamiFs wrong(small_options(4));
  EXPECT_EQ(wrong.restore(prefix).code(), common::StatusCode::kCorruption);
  for (int i = 0; i < 2; ++i) {
    std::remove((prefix + ".shard" + std::to_string(i)).c_str());
  }
  std::remove((prefix + ".manifest").c_str());
}

}  // namespace
}  // namespace origami::fs
