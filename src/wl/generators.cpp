#include "origami/wl/generators.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "origami/common/rng.hpp"
#include "origami/common/zipf.hpp"

namespace origami::wl {

namespace {

using common::Xoshiro256;
using common::ZipfDistribution;
using fsns::NodeId;
using fsns::OpType;

std::string numbered(const char* stem, std::uint32_t i) {
  return std::string(stem) + std::to_string(i);
}

}  // namespace

// ---------------------------------------------------------------------------
// Trace-RW: large compilation job (read-write, after Mantle's compile trace).
// ---------------------------------------------------------------------------
Trace make_trace_rw(const TraceRwConfig& cfg) {
  Trace trace;
  trace.name = "trace-rw";
  auto& tree = trace.tree;
  Xoshiro256 rng(cfg.seed);

  // --- namespace -----------------------------------------------------------
  const NodeId src_root = tree.add_dir(fsns::kRootNode, "src");
  const NodeId build_root = tree.add_dir(fsns::kRootNode, "build");
  const NodeId include_root = tree.add_dir(fsns::kRootNode, "include");
  tree.add_dir(fsns::kRootNode, "tools");

  // Shared header tree: a modest number of hot, widely stat()ed files,
  // nested a few levels deep (/include/pkgX/vY/detail/...) so resolution
  // reaches past the near-root cache like a real install tree.
  std::vector<NodeId> shared_headers;
  {
    const std::uint32_t header_dirs = std::max<std::uint32_t>(1, cfg.headers_shared / 30);
    std::vector<NodeId> hdirs;
    for (std::uint32_t d = 0; d < header_dirs; ++d) {
      const NodeId pkg = tree.add_dir(include_root, numbered("pkg", d));
      const NodeId ver = tree.add_dir(pkg, numbered("v", d % 3));
      hdirs.push_back(ver);
      hdirs.push_back(tree.add_dir(ver, "detail"));
    }
    for (std::uint32_t h = 0; h < cfg.headers_shared; ++h) {
      const NodeId dir = hdirs[h % hdirs.size()];
      shared_headers.push_back(tree.add_file(dir, numbered("hdr", h) + ".h"));
    }
  }

  struct Module {
    NodeId src_dir;
    NodeId build_dir;
    std::vector<NodeId> sources;
    std::vector<NodeId> local_headers;
    std::vector<NodeId> objects;
  };
  struct Project {
    NodeId src_dir;
    std::vector<Module> modules;
  };

  std::vector<Project> projects;
  projects.reserve(cfg.projects);
  for (std::uint32_t p = 0; p < cfg.projects; ++p) {
    Project proj;
    proj.src_dir = tree.add_dir(src_root, numbered("proj", p));
    const NodeId proj_build = tree.add_dir(build_root, numbered("proj", p));
    for (std::uint32_t m = 0; m < cfg.modules_per_project; ++m) {
      Module mod;
      // /src/projP/modM/src/{shardA,shardB}/... and
      // /build/projP/modM/obj/{shardA,shardB}/... — source files sit six
      // levels deep, as in real checkouts.
      const NodeId mod_dir = tree.add_dir(proj.src_dir, numbered("mod", m));
      mod.src_dir = tree.add_dir(mod_dir, "src");
      const NodeId inc_dir = tree.add_dir(mod_dir, "include");
      const NodeId build_mod = tree.add_dir(proj_build, numbered("mod", m));
      mod.build_dir = tree.add_dir(build_mod, "obj");
      const std::array<NodeId, 2> src_shards = {
          tree.add_dir(mod.src_dir, "shardA"), tree.add_dir(mod.src_dir, "shardB")};
      const std::array<NodeId, 2> obj_shards = {
          tree.add_dir(mod.build_dir, "shardA"),
          tree.add_dir(mod.build_dir, "shardB")};
      for (std::uint32_t f = 0; f < cfg.sources_per_module; ++f) {
        mod.sources.push_back(
            tree.add_file(src_shards[f % 2], numbered("file", f) + ".c"));
        mod.objects.push_back(
            tree.add_file(obj_shards[f % 2], numbered("file", f) + ".o"));
      }
      const std::uint32_t local_headers = 2 + static_cast<std::uint32_t>(rng.uniform(4));
      for (std::uint32_t h = 0; h < local_headers; ++h) {
        mod.local_headers.push_back(
            tree.add_file(inc_dir, numbered("local", h) + ".h"));
      }
      proj.modules.push_back(std::move(mod));
    }
    projects.push_back(std::move(proj));
  }
  tree.finalize();

  // --- operation stream -----------------------------------------------------
  // The build sweeps projects in waves (a scheduler compiling one or two
  // projects at a time), which creates the moving subtree hotspots that
  // subtree balancers feed on.
  ZipfDistribution header_zipf(shared_headers.size(), 0.9);
  trace.ops.reserve(cfg.ops);
  std::uint32_t active_project = 0;
  std::uint64_t ops_in_project = 0;
  const std::uint64_t ops_per_project_wave =
      std::max<std::uint64_t>(1, cfg.ops / std::max<std::uint32_t>(1, cfg.waves));

  while (trace.ops.size() < cfg.ops) {
    if (ops_in_project++ >= ops_per_project_wave) {
      ops_in_project = 0;
      active_project = (active_project + 5) % cfg.projects;  // stride sweep
    }
    // Mostly the active project; some background noise from others.
    const Project& proj = rng.chance(0.75)
                              ? projects[active_project]
                              : projects[rng.uniform(projects.size())];
    const Module& mod = proj.modules[rng.uniform(proj.modules.size())];
    const std::size_t si = rng.uniform(mod.sources.size());

    // One compile unit: stat+open source, stat headers, emit object.
    trace.ops.push_back({OpType::kStat, mod.sources[si], fsns::kInvalidNode, 0});
    trace.ops.push_back({OpType::kOpen, mod.sources[si], fsns::kInvalidNode, 4096});
    const std::uint32_t hdr_reads = 3 + static_cast<std::uint32_t>(rng.uniform(6));
    for (std::uint32_t h = 0; h < hdr_reads && trace.ops.size() < cfg.ops; ++h) {
      const NodeId hdr = rng.chance(0.7)
                             ? shared_headers[header_zipf(rng)]
                             : mod.local_headers[rng.uniform(mod.local_headers.size())];
      trace.ops.push_back({OpType::kStat, hdr, fsns::kInvalidNode, 0});
    }
    if (rng.chance(0.4)) {
      trace.ops.push_back({OpType::kUnlink, mod.objects[si], fsns::kInvalidNode, 0});
    }
    trace.ops.push_back({OpType::kCreate, mod.objects[si], fsns::kInvalidNode, 16384});
    if (rng.chance(0.12)) {
      trace.ops.push_back({OpType::kReaddir, mod.src_dir, fsns::kInvalidNode, 0});
    }
    if (rng.chance(0.05)) {
      // install step: rename the object within the build tree
      trace.ops.push_back({OpType::kRename, mod.objects[si], mod.build_dir, 0});
    }
    if (rng.chance(0.08)) {
      trace.ops.push_back({OpType::kSetattr, mod.sources[si], fsns::kInvalidNode, 0});
    }
  }
  trace.ops.resize(cfg.ops);
  return trace;
}

// ---------------------------------------------------------------------------
// Trace-RO: web application access trace (read-only, skewed, deep).
// ---------------------------------------------------------------------------
Trace make_trace_ro(const TraceRoConfig& cfg) {
  Trace trace;
  trace.name = "trace-ro";
  auto& tree = trace.tree;
  Xoshiro256 rng(cfg.seed);

  // --- namespace: per-site deep trees --------------------------------------
  const NodeId www = tree.add_dir(fsns::kRootNode, "www");
  struct Site {
    std::vector<NodeId> dirs;
    std::vector<NodeId> files;
  };
  std::vector<Site> sites(cfg.top_sites);
  for (std::uint32_t s = 0; s < cfg.top_sites; ++s) {
    sites[s].dirs.push_back(tree.add_dir(www, numbered("site", s)));
  }

  // Grow directories by preferential attachment biased toward deeper dirs so
  // the hierarchy exceeds ten levels (paper §2.4 / §5.1).
  for (std::uint32_t d = cfg.top_sites; d < cfg.dirs; ++d) {
    Site& site = sites[rng.uniform(sites.size())];
    // Bias: sample two candidates, keep the deeper one (capped at cfg.depth).
    NodeId a = site.dirs[rng.uniform(site.dirs.size())];
    NodeId b = site.dirs[rng.uniform(site.dirs.size())];
    NodeId parent = tree.depth(a) >= tree.depth(b) ? a : b;
    if (tree.depth(parent) >= cfg.depth) parent = site.dirs[0];
    site.dirs.push_back(tree.add_dir(parent, numbered("d", d)));
  }
  for (std::uint32_t f = 0; f < cfg.files; ++f) {
    Site& site = sites[rng.uniform(sites.size())];
    const NodeId dir = site.dirs[rng.uniform(site.dirs.size())];
    site.files.push_back(tree.add_file(dir, numbered("page", f) + ".html"));
  }
  tree.finalize();

  // --- operation stream: Zipf over sites, Zipf over files within a site ----
  // Hot files cluster inside hot sites, so hotness is subtree-shaped — the
  // structure subtree migration exploits. Within a site, popularity rank is
  // decoupled from creation order (a permutation), so the hot set scatters
  // across the site's directories instead of concentrating in the earliest
  // deep chain.
  ZipfDistribution site_zipf(cfg.top_sites, 1.2);
  std::vector<ZipfDistribution> file_zipf;
  file_zipf.reserve(cfg.top_sites);
  for (auto& site : sites) {
    file_zipf.emplace_back(std::max<std::size_t>(1, site.files.size()),
                           cfg.zipf_theta);
    for (std::size_t i = site.files.size(); i > 1; --i) {
      std::swap(site.files[i - 1], site.files[rng.uniform(i)]);
    }
  }

  trace.ops.reserve(cfg.ops);
  while (trace.ops.size() < cfg.ops) {
    const std::size_t s = site_zipf(rng);
    const Site& site = sites[s];
    if (site.files.empty()) continue;
    const NodeId file = site.files[file_zipf[s](rng)];
    const double roll = rng.uniform_double();
    if (roll < 0.78) {
      trace.ops.push_back({OpType::kOpen, file, fsns::kInvalidNode, 8192});
    } else if (roll < 0.95) {
      trace.ops.push_back({OpType::kStat, file, fsns::kInvalidNode, 0});
    } else {
      trace.ops.push_back({OpType::kReaddir, tree.parent(file), fsns::kInvalidNode, 0});
    }
  }
  return trace;
}

// ---------------------------------------------------------------------------
// Trace-WI: write-intensive cloud DFS trace (after CFS's characteristics).
// ---------------------------------------------------------------------------
Trace make_trace_wi(const TraceWiConfig& cfg) {
  Trace trace;
  trace.name = "trace-wi";
  auto& tree = trace.tree;
  Xoshiro256 rng(cfg.seed);

  const NodeId vol = tree.add_dir(fsns::kRootNode, "volumes");
  struct Tenant {
    std::vector<NodeId> dirs;
    std::vector<NodeId> files;
  };
  std::vector<Tenant> tenants(cfg.tenants);
  for (std::uint32_t t = 0; t < cfg.tenants; ++t) {
    const NodeId troot = tree.add_dir(vol, numbered("tenant", t));
    Tenant& tenant = tenants[t];
    // Two-level layout: buckets then leaf dirs, like object-style paths.
    const std::uint32_t buckets = 1 + cfg.dirs_per_tenant / 40;
    std::vector<NodeId> bucket_ids;
    for (std::uint32_t b = 0; b < buckets; ++b) {
      bucket_ids.push_back(tree.add_dir(troot, numbered("bucket", b)));
    }
    for (std::uint32_t d = 0; d < cfg.dirs_per_tenant; ++d) {
      const NodeId dir =
          tree.add_dir(bucket_ids[rng.uniform(bucket_ids.size())], numbered("d", d));
      tenant.dirs.push_back(dir);
      for (std::uint32_t f = 0; f < cfg.files_per_dir; ++f) {
        tenant.files.push_back(tree.add_file(dir, numbered("obj", f)));
      }
    }
  }
  tree.finalize();

  // --- operation stream: drifting hot tenants ------------------------------
  // Each phase concentrates writes on a few tenants; the hot set rotates
  // every phase, producing the "highly dynamic and skewed load" that makes
  // Trace-WI the hardest case for every balancer (paper §5.6).
  trace.ops.reserve(cfg.ops);
  const std::uint64_t ops_per_phase = std::max<std::uint64_t>(1, cfg.ops / cfg.phases);
  ZipfDistribution dir_zipf(
      std::max<std::size_t>(1, tenants[0].dirs.size()), cfg.zipf_theta);

  for (std::uint32_t phase = 0; phase < cfg.phases; ++phase) {
    // A sliding window of 4 hot tenants: each phase shifts the window by
    // one, so most of the hot set persists while the load still drifts
    // across all tenants over the trace.
    std::array<std::uint32_t, 4> hot{};
    for (std::size_t i = 0; i < hot.size(); ++i) {
      hot[i] = (phase + static_cast<std::uint32_t>(i) *
                            std::max<std::uint32_t>(1, cfg.tenants / 4)) %
               cfg.tenants;
    }
    for (std::uint64_t k = 0; k < ops_per_phase && trace.ops.size() < cfg.ops; ++k) {
      // The leading hot tenant takes roughly half the hot traffic — more
      // than one MDS's fair share, so any tenant-granular partitioning
      // (hashing included) is structurally imbalanced.
      std::uint32_t t;
      if (rng.chance(0.8)) {
        const double r = rng.uniform_double();
        t = hot[r < 0.5 ? 0 : (r < 0.75 ? 1 : (r < 0.9 ? 2 : 3))];
      } else {
        t = static_cast<std::uint32_t>(rng.uniform(cfg.tenants));
      }
      Tenant& tenant = tenants[t];
      const NodeId dir = tenant.dirs[dir_zipf(rng) % tenant.dirs.size()];
      const auto& children = tree.node(dir).children;
      const NodeId file = children.empty() ? dir : children[rng.uniform(children.size())];

      const double roll = rng.uniform_double();
      if (roll < cfg.write_fraction) {
        const double w = rng.uniform_double();
        if (w < 0.72) {
          trace.ops.push_back({OpType::kCreate, file, fsns::kInvalidNode, 65536});
        } else if (w < 0.82) {
          trace.ops.push_back({OpType::kSetattr, file, fsns::kInvalidNode, 0});
        } else if (w < 0.92) {
          trace.ops.push_back({OpType::kUnlink, file, fsns::kInvalidNode, 0});
        } else if (w < 0.97) {
          trace.ops.push_back({OpType::kMkdir, dir, fsns::kInvalidNode, 0});
        } else {
          const NodeId dst = tenant.dirs[rng.uniform(tenant.dirs.size())];
          trace.ops.push_back({OpType::kRename, file, dst, 0});
        }
      } else {
        const double r = rng.uniform_double();
        if (r < 0.7) {
          trace.ops.push_back({OpType::kStat, file, fsns::kInvalidNode, 0});
        } else if (r < 0.92) {
          trace.ops.push_back({OpType::kOpen, file, fsns::kInvalidNode, 65536});
        } else {
          trace.ops.push_back({OpType::kReaddir, dir, fsns::kInvalidNode, 0});
        }
      }
    }
  }
  return trace;
}

// ---------------------------------------------------------------------------
// mdtest: flat create/stat/unlink sweeps (HPC metadata stress benchmark).
// ---------------------------------------------------------------------------
Trace make_trace_mdtest(const TraceMdtestConfig& cfg) {
  Trace trace;
  trace.name = "trace-mdtest";
  auto& tree = trace.tree;
  Xoshiro256 rng(cfg.seed);

  const NodeId job = tree.add_dir(fsns::kRootNode, "mdtest");
  std::vector<std::vector<NodeId>> files(cfg.ranks);
  std::vector<NodeId> rank_dirs(cfg.ranks);
  for (std::uint32_t r = 0; r < cfg.ranks; ++r) {
    rank_dirs[r] = tree.add_dir(job, numbered("rank", r));
    files[r].reserve(cfg.files_per_rank);
    for (std::uint32_t f = 0; f < cfg.files_per_rank; ++f) {
      files[r].push_back(tree.add_file(rank_dirs[r], numbered("file", f)));
    }
  }
  tree.finalize();

  // Ranks advance through each phase concurrently: interleave by drawing a
  // random rank per step, advancing that rank's cursor — this matches how
  // mdtest's MPI ranks actually overlap in time.
  trace.ops.reserve(static_cast<std::size_t>(cfg.iterations) * cfg.ranks *
                    cfg.files_per_rank * 3);
  for (std::uint32_t iter = 0; iter < cfg.iterations; ++iter) {
    for (OpType phase : {OpType::kCreate, OpType::kStat, OpType::kUnlink}) {
      std::vector<std::uint32_t> cursor(cfg.ranks, 0);
      std::uint64_t remaining =
          static_cast<std::uint64_t>(cfg.ranks) * cfg.files_per_rank;
      while (remaining > 0) {
        const std::uint32_t r =
            static_cast<std::uint32_t>(rng.uniform(cfg.ranks));
        if (cursor[r] >= cfg.files_per_rank) continue;
        trace.ops.push_back(
            {phase, files[r][cursor[r]++], fsns::kInvalidNode, 0});
        --remaining;
      }
    }
  }
  return trace;
}

// ---------------------------------------------------------------------------
// Trace-Falcon: deep-learning data pipeline (FalconFS-style, timed).
// ---------------------------------------------------------------------------
Trace make_trace_falcon(const TraceFalconConfig& cfg) {
  Trace trace;
  trace.name = "trace-falcon";
  auto& tree = trace.tree;
  Xoshiro256 rng(cfg.seed);

  // --- namespace: dataset shards of small sample files + checkpoint dirs ---
  const NodeId data_root = tree.add_dir(fsns::kRootNode, "data");
  const NodeId ckpt_root = tree.add_dir(fsns::kRootNode, "ckpt");
  struct Shard {
    NodeId dir;
    std::vector<NodeId> samples;
  };
  std::vector<Shard> shards;
  shards.reserve(static_cast<std::size_t>(cfg.datasets) *
                 cfg.shards_per_dataset);
  for (std::uint32_t d = 0; d < cfg.datasets; ++d) {
    const NodeId ds = tree.add_dir(data_root, numbered("ds", d));
    for (std::uint32_t s = 0; s < cfg.shards_per_dataset; ++s) {
      Shard sh;
      sh.dir = tree.add_dir(ds, numbered("shard", s));
      sh.samples.reserve(cfg.files_per_shard);
      for (std::uint32_t f = 0; f < cfg.files_per_shard; ++f) {
        sh.samples.push_back(tree.add_file(sh.dir, numbered("samp", f)));
      }
      shards.push_back(std::move(sh));
    }
  }
  struct Trainer {
    NodeId ckpt_dir;
    std::vector<NodeId> ckpt_files;
  };
  std::vector<Trainer> trainers(cfg.trainers);
  for (std::uint32_t t = 0; t < cfg.trainers; ++t) {
    trainers[t].ckpt_dir = tree.add_dir(ckpt_root, numbered("trainer", t));
    for (std::uint32_t e = 0; e < cfg.epochs; ++e) {
      trainers[t].ckpt_files.push_back(
          tree.add_file(trainers[t].ckpt_dir, numbered("step", e) + ".pt"));
    }
  }
  tree.finalize();

  // --- timed op stream -----------------------------------------------------
  // Every op gets a native arrival timestamp: Poisson gaps at `storm_rate`
  // during scan/checkpoint storms, at `read_rate` during the shuffled-read
  // body, with a short synchronization pause at every phase barrier.
  trace.ops.reserve(cfg.ops);
  trace.arrivals.reserve(cfg.ops);
  sim::SimTime now = 0;
  auto emit = [&](const MetaOp& op, double rate) {
    now += std::max<sim::SimTime>(
        1, static_cast<sim::SimTime>(rng.exponential(rate) *
                                     static_cast<double>(sim::kSecond)));
    trace.ops.push_back(op);
    trace.arrivals.push_back(now);
  };
  ZipfDistribution sample_zipf(cfg.files_per_shard, cfg.shuffle_theta);

  const std::uint64_t per_epoch = std::max<std::uint64_t>(
      1, cfg.ops / std::max<std::uint32_t>(1, cfg.epochs));
  for (std::uint32_t epoch = 0; trace.ops.size() < cfg.ops; ++epoch) {
    // Scan storm: every trainer lists its round-robin slice of the shard
    // index and probes a few samples per shard before the epoch starts.
    for (std::uint32_t t = 0;
         t < cfg.trainers && trace.ops.size() < cfg.ops; ++t) {
      for (std::size_t s = t; s < shards.size(); s += cfg.trainers) {
        const Shard& sh = shards[s];
        emit({OpType::kReaddir, sh.dir, fsns::kInvalidNode, 0},
             cfg.storm_rate);
        const std::uint32_t probes =
            2 + static_cast<std::uint32_t>(rng.uniform(3));
        for (std::uint32_t p = 0; p < probes; ++p) {
          emit({OpType::kStat, sh.samples[rng.uniform(sh.samples.size())],
                fsns::kInvalidNode, 0},
               cfg.storm_rate);
        }
        if (trace.ops.size() >= cfg.ops) break;
      }
    }
    now += sim::millis(5);  // barrier: trainers wait for the slowest scan

    // Shuffled-read body: trainers interleave stat+open pairs over their
    // epoch-shuffled shard schedule, Zipf-skewed within each shard.
    const std::uint64_t ckpt_budget = static_cast<std::uint64_t>(cfg.trainers) * 4;
    const std::uint64_t read_target =
        per_epoch > ckpt_budget ? per_epoch - ckpt_budget : per_epoch;
    for (std::uint64_t i = 0;
         i < read_target && trace.ops.size() < cfg.ops; ++i) {
      const std::uint32_t t =
          static_cast<std::uint32_t>(i % cfg.trainers);
      const Shard& sh =
          shards[(t + rng.uniform(shards.size())) % shards.size()];
      const NodeId samp = sh.samples[sample_zipf(rng)];
      emit({OpType::kStat, samp, fsns::kInvalidNode, 0}, cfg.read_rate);
      emit({OpType::kOpen, samp, fsns::kInvalidNode, 4096}, cfg.read_rate);
    }
    now += sim::millis(5);  // barrier before the checkpoint flush

    // Checkpoint burst: each trainer rewrites its step file (unlink the
    // stale one, create the new one, fsync-style setattr, list the dir).
    for (std::uint32_t t = 0;
         t < cfg.trainers && trace.ops.size() < cfg.ops; ++t) {
      const Trainer& tr = trainers[t];
      const NodeId f = tr.ckpt_files[epoch % tr.ckpt_files.size()];
      if (epoch >= tr.ckpt_files.size()) {
        emit({OpType::kUnlink, f, fsns::kInvalidNode, 0}, cfg.storm_rate);
      }
      emit({OpType::kCreate, f, fsns::kInvalidNode, 1 << 20}, cfg.storm_rate);
      emit({OpType::kSetattr, f, fsns::kInvalidNode, 0}, cfg.storm_rate);
      emit({OpType::kReaddir, tr.ckpt_dir, fsns::kInvalidNode, 0},
           cfg.storm_rate);
    }
  }
  trace.ops.resize(cfg.ops);
  trace.arrivals.resize(cfg.ops);
  return trace;
}

// ---------------------------------------------------------------------------
// Trace-Midas: HPC job-burst metadata storms (MIDAS-style, timed).
// ---------------------------------------------------------------------------
Trace make_trace_midas(const TraceMidasConfig& cfg) {
  Trace trace;
  trace.name = "trace-midas";
  auto& tree = trace.tree;
  Xoshiro256 rng(cfg.seed);

  // --- namespace: shared hot dirs + per-job rank trees ---------------------
  const NodeId scratch = tree.add_dir(fsns::kRootNode, "scratch");
  const NodeId shared = tree.add_dir(scratch, "shared");
  struct HotDir {
    NodeId dir;
    std::vector<NodeId> files;
  };
  std::vector<HotDir> hot(std::max<std::uint32_t>(1, cfg.hot_dirs));
  for (std::size_t h = 0; h < hot.size(); ++h) {
    hot[h].dir = tree.add_dir(shared, numbered("hot", static_cast<std::uint32_t>(h)));
    for (std::uint32_t f = 0; f < 32; ++f) {
      hot[h].files.push_back(tree.add_file(hot[h].dir, numbered("lib", f)));
    }
  }
  const NodeId jobs_root = tree.add_dir(scratch, "jobs");
  struct Rank {
    NodeId dir;
    std::vector<NodeId> files;
  };
  std::vector<std::vector<Rank>> job_ranks(cfg.jobs);
  for (std::uint32_t j = 0; j < cfg.jobs; ++j) {
    const NodeId jdir = tree.add_dir(jobs_root, numbered("job", j));
    job_ranks[j].resize(cfg.ranks_per_job);
    for (std::uint32_t r = 0; r < cfg.ranks_per_job; ++r) {
      Rank& rank = job_ranks[j][r];
      rank.dir = tree.add_dir(jdir, numbered("rank", r));
      rank.files.reserve(cfg.files_per_rank);
      for (std::uint32_t f = 0; f < cfg.files_per_rank; ++f) {
        rank.files.push_back(tree.add_file(rank.dir, numbered("out", f)));
      }
    }
  }
  tree.finalize();

  // --- timed op stream: background trickle punctuated by job storms --------
  trace.ops.reserve(cfg.ops);
  trace.arrivals.reserve(cfg.ops);
  sim::SimTime now = 0;
  auto emit = [&](const MetaOp& op, double rate) {
    now += std::max<sim::SimTime>(
        1, static_cast<sim::SimTime>(rng.exponential(rate) *
                                     static_cast<double>(sim::kSecond)));
    trace.ops.push_back(op);
    trace.arrivals.push_back(now);
  };
  auto background_op = [&]() -> MetaOp {
    // Interactive users: mostly stats of the shared libraries, the odd
    // listing of a job tree they are watching.
    if (rng.chance(0.15)) {
      const std::uint32_t j = static_cast<std::uint32_t>(rng.uniform(cfg.jobs));
      const auto& ranks = job_ranks[j];
      return {OpType::kReaddir, ranks[rng.uniform(ranks.size())].dir,
              fsns::kInvalidNode, 0};
    }
    const HotDir& h = hot[rng.uniform(hot.size())];
    return {OpType::kStat, h.files[rng.uniform(h.files.size())],
            fsns::kInvalidNode, 0};
  };

  // Each job storm writes every rank's output files while hammering the
  // shared hot dirs; storms are sized from the namespace, and the
  // background segment between storms is scaled so roughly
  // `burst_fraction` of all ops land inside storms.
  const std::uint64_t storm_size =
      static_cast<std::uint64_t>(cfg.ranks_per_job) *
      (2 + cfg.files_per_rank + cfg.files_per_rank / 3);
  const double bf = std::min(0.999, std::max(0.001, cfg.burst_fraction));
  const std::uint64_t background_size = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(storm_size) * (1.0 - bf) / bf));
  for (std::uint32_t wave = 0; trace.ops.size() < cfg.ops; ++wave) {
    const std::uint32_t j = wave % cfg.jobs;
    for (std::uint64_t b = 0;
         b < background_size && trace.ops.size() < cfg.ops; ++b) {
      emit(background_op(), cfg.base_rate);
    }
    for (std::uint32_t r = 0;
         r < cfg.ranks_per_job && trace.ops.size() < cfg.ops; ++r) {
      const Rank& rank = job_ranks[j][r];
      // Startup: every rank resolves the shared runtime before computing.
      emit({OpType::kStat, hot[r % hot.size()].dir, fsns::kInvalidNode, 0},
           cfg.burst_rate);
      emit({OpType::kReaddir, rank.dir, fsns::kInvalidNode, 0},
           cfg.burst_rate);
      for (std::uint32_t f = 0;
           f < cfg.files_per_rank && trace.ops.size() < cfg.ops; ++f) {
        if (wave >= cfg.jobs) {
          // Recycled job slot: the previous run's output must go first.
          emit({OpType::kUnlink, rank.files[f], fsns::kInvalidNode, 0},
               cfg.burst_rate);
        }
        emit({OpType::kCreate, rank.files[f], fsns::kInvalidNode, 65536},
             cfg.burst_rate);
        if (f % 3 == 0) {
          const HotDir& h = hot[rng.uniform(hot.size())];
          emit({OpType::kStat, h.files[rng.uniform(h.files.size())],
                fsns::kInvalidNode, 0},
               cfg.burst_rate);
        }
      }
    }
  }
  trace.ops.resize(cfg.ops);
  trace.arrivals.resize(cfg.ops);
  return trace;
}

Trace make_trace_web_motivation(std::uint64_t seed, std::uint64_t ops) {
  TraceRoConfig cfg;
  cfg.seed = seed;
  cfg.ops = ops;
  cfg.top_sites = 24;
  cfg.depth = 8;  // the §2.2 Apache-log replay is shallower than Trace-RO
  cfg.dirs = 12'000;
  cfg.files = 48'000;
  cfg.zipf_theta = 1.05;
  Trace t = make_trace_ro(cfg);
  t.name = "trace-web-motivation";
  return t;
}

namespace {

/// Sets the two knobs every sized config shares and generates.
template <typename Config>
Trace sized(Trace (*make)(const Config&), std::uint64_t seed,
            std::uint64_t ops) {
  Config cfg;
  cfg.seed = seed;
  cfg.ops = ops;
  return make(cfg);
}

}  // namespace

common::Result<Trace> make_trace(std::string_view family, std::uint64_t seed,
                                 std::uint64_t ops) {
  if (family == "rw") return sized(&make_trace_rw, seed, ops);
  if (family == "ro") return sized(&make_trace_ro, seed, ops);
  if (family == "wi") return sized(&make_trace_wi, seed, ops);
  if (family == "web") return make_trace_web_motivation(seed, ops);
  if (family == "mdtest") {
    TraceMdtestConfig cfg;
    cfg.seed = seed;
    return make_trace_mdtest(cfg);
  }
  if (family == "falcon") return sized(&make_trace_falcon, seed, ops);
  if (family == "midas") return sized(&make_trace_midas, seed, ops);
  std::string known;
  for (const std::string_view name : kTraceFamilies) {
    known += known.empty() ? "" : "|";
    known += name;
  }
  return common::Status::invalid_argument("unknown trace family '" +
                                          std::string(family) + "' (" +
                                          known + ")");
}

}  // namespace origami::wl
