#include "origami/fs/live_replay.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "origami/cluster/fault_plane.hpp"
#include "origami/cluster/migration.hpp"
#include "origami/wl/arrival.hpp"

namespace origami::fs {

namespace {

/// Lazily materialises trace-tree nodes in the live service, caching which
/// ids already exist and the live inode each directory node resolved to
/// (the fencing layer keys its client cache by inode). Requests go out
/// addressed by (parent inode, name), so each costs one dirent read.
class Materialiser {
 public:
  Materialiser(const fsns::DirTree& tree, OrigamiFs& fsys)
      : tree_(tree),
        fsys_(fsys),
        created_(tree.size(), false),
        ino_(tree.size(), kInvalidIno) {
    created_[fsns::kRootNode] = true;
    ino_[fsns::kRootNode] = kRootIno;
  }

  /// Runs `op(parent ino, name)` on node `id`'s entry; the root is
  /// (kInvalidIno, ""). When a directory above `id` never became live (a
  /// create aimed at a directory node put a file in its place), a path
  /// walk would stop at the topmost such directory with not_found, after
  /// one lookup per directory above it: that is charged by resolving the
  /// dead entry under its live parent, and `op` is not run.
  template <typename Op>
  auto at(fsns::NodeId id, Op&& op) {
    if (id == fsns::kRootNode) return op(kInvalidIno, std::string_view{});
    const fsns::NodeId parent = tree_.parent(id);
    if (ino_[parent] != kInvalidIno) return op(ino_[parent], name(id));
    fsns::NodeId dead = parent;
    for (fsns::NodeId n = tree_.parent(parent); n != fsns::kRootNode;
         n = tree_.parent(n)) {
      if (ino_[n] == kInvalidIno) dead = n;
    }
    // Not a live directory, so readdir charges the walk and nothing else.
    (void)fsys_.readdir_at(ino_[tree_.parent(dead)], name(dead));
    return decltype(op(kInvalidIno, std::string_view{}))(
        common::Status::not_found(std::string(name(dead))));
  }

  /// Ensures every *directory* ancestor of `id` exists (not `id` itself
  /// unless it is a directory and `include_self`), top down. Every
  /// ancestor's flag is checked, not only those below the first created
  /// one: an unlink aimed at a directory un-marks it while its descendants
  /// stay marked, and the next op below it retries (and fails) its mkdir.
  void ensure_dirs(fsns::NodeId id, bool include_self) {
    if (id == fsns::kRootNode) return;
    missing_.clear();
    for (fsns::NodeId node = include_self ? id : tree_.parent(id);
         node != fsns::kRootNode; node = tree_.parent(node)) {
      if (!created_[node] && tree_.is_dir(node)) missing_.push_back(node);
    }
    for (auto it = missing_.rbegin(); it != missing_.rend(); ++it) {
      auto r = at(*it, [&](Ino parent, std::string_view name) {
        return fsys_.mkdir_at(parent, name);
      });
      if (r.is_ok()) ino_[*it] = r.value();
      created_[*it] = true;
    }
  }

  void mark(fsns::NodeId id, bool exists) { created_[id] = exists; }
  [[nodiscard]] bool exists(fsns::NodeId id) const { return created_[id]; }
  /// Live inode of a materialised directory node (kInvalidIno if unknown).
  [[nodiscard]] Ino ino_of(fsns::NodeId id) const { return ino_[id]; }

 private:
  [[nodiscard]] std::string_view name(fsns::NodeId id) const {
    return tree_.node(id).name;
  }

  const fsns::DirTree& tree_;
  OrigamiFs& fsys_;
  std::vector<bool> created_;
  std::vector<Ino> ino_;
  std::vector<fsns::NodeId> missing_;  ///< scratch for ensure_dirs
};

/// Operations between fault/commit sync points (see `sync_point`): the
/// cadence at which crash windows are compared with the virtual clock, so
/// every faulted result depends on it.
constexpr std::uint64_t kSyncOps = 512;
/// One fault-sampling interval on the virtual clock (the live analogue of
/// the simulator's epoch length for `windows_for_epoch`).
constexpr sim::SimTime kFaultEpoch = sim::millis(500);

/// The live engine's namespace as the fault plane sees it: shards over the
/// OrigamiFs ownership map, fragments are directory inodes walked in inode
/// order and weighed in stored dirents, and every successful reassignment
/// counts as a move — empty fragments included.
class ShardNamespace final : public cluster::FaultNamespace {
 public:
  ShardNamespace(OrigamiFs& fsys, const std::vector<bool>& down)
      : fsys_(fsys), down_(down) {}

  [[nodiscard]] bool down(std::uint32_t shard) const override {
    return down_[shard];
  }
  [[nodiscard]] std::vector<std::uint64_t> loads() const override {
    std::vector<std::uint64_t> entries;
    for (const ShardStats& st : fsys_.shard_stats()) {
      entries.push_back(st.entries);
    }
    return entries;
  }
  [[nodiscard]] std::vector<std::uint64_t> fragments_of(
      std::uint32_t shard) const override {
    return fsys_.dirs_owned_by(shard);
  }
  [[nodiscard]] std::uint32_t ownership_epoch(
      std::uint64_t dir) const override {
    return fsys_.ownership_epoch(dir);
  }
  std::optional<std::uint64_t> move(std::uint64_t dir, std::uint32_t from,
                                    std::uint32_t to) override {
    if (fsys_.dir_shard(dir) != from) return std::nullopt;
    auto r = fsys_.reassign_dir(dir, to);
    if (!r.is_ok()) return std::nullopt;
    return r.value();
  }

 private:
  OrigamiFs& fsys_;
  const std::vector<bool>& down_;
};

/// The live-mode twin of the simulator's exec/failover/migration stack: it
/// shares the crash protocol (`cluster::FaultPlane`: fault injector,
/// per-shard journals, failover log) and `TwoPhaseLog` with the epoch
/// engine, and serves every request on the calling thread, in seed op
/// order:
///
///  - it mutates the namespace through the ino-addressed `OrigamiFs` entry
///    points (one dirent read per request, the parent's inode taken from
///    the `Materialiser`) and runs the retry/fencing client model;
///  - it prices the request on a cost-model virtual clock (per-client
///    ready times, per-shard logical clocks, Eq. 2 service charges,
///    straggler multipliers);
///  - it records the request where it is priced: latency histogram, the
///    shard's busy time and served count, and for a faulted write the
///    journal append, ack and batch-or-age group-commit flush on the shard
///    clock;
///  - with faults armed, every `kSyncOps` operations it fires due
///    crashes/recoveries plus the commit-window sweep.
///
/// One serial loop computes every number, so the output is a function of
/// the trace and the options alone.
class LiveEngine final : public LiveFaultContext {
 public:
  LiveEngine(const wl::Trace& trace, OrigamiFs& fsys,
             const LiveReplayOptions& opt)
      : trace_(trace),
        fsys_(fsys),
        opt_(opt),
        faults_on_(opt.faults.enabled()),
        plane_(opt.faults, opt.recovery, fsys.shard_count()),
        loss_rng_(opt.faults.seed ^ 0x11febeefULL),
        arrival_(wl::resolve_arrival(opt.arrival, {&trace, opt.clients})),
        arrival_rng_(opt.faults.seed ^ 0xa114a1ULL),
        model_(opt.cost),
        mat_(trace.tree, fsys) {
    const std::uint32_t n = fsys_.shard_count();
    shard_clock_.assign(n, 0);
    stats_.shard_busy.assign(n, 0);
    stats_.shard_served.assign(n, 0);
    client_ready_.assign(std::max<std::uint32_t>(1, opt_.clients), 0);
    if (faults_on_) {
      down_.assign(n, false);
      down_until_.assign(n, 0);
      stragglers_.resize(n);
      strag_cursor_.assign(n, 0);
    }
    if (plane_.async_commit() &&
        fsys.shard_db(0).options().commit_mode == kv::CommitMode::kAsync) {
      // The shard stores group-commit too: crashes tear them and the
      // sync-point sweeps and the roll-up drain them in lockstep.
      for (std::uint32_t s = 0; s < n; ++s) {
        plane_.attach_group_commit_store(fsys.shard_db(s));
      }
    }
  }

  LiveReplayStats run() {
    std::uint64_t since_epoch = 0;
    for (std::size_t i = 0; i < trace_.ops.size(); ++i) {
      // Fault/commit sync point: fire everything due on the virtual clock.
      if (faults_on_ && i % kSyncOps == 0) sync_point();

      const wl::MetaOp& op = trace_.ops[i];
      const fsns::NodeId home_node = trace_.tree.is_dir(op.target)
                                         ? op.target
                                         : trace_.tree.parent(op.target);
      const auto client =
          static_cast<std::uint32_t>(i % client_ready_.size());
      // The arrival plane stamps when this op enters the system: closed
      // loops chain off the issuing client's previous completion; open
      // loops are a pure time process on the virtual clock.
      sim::SimTime arrival;
      if (arrival_->closed_loop()) {
        arrival = client_ready_[client];
      } else {
        arrival = i == 0 ? arrival_->first_arrival()
                         : arrival_->next_arrival(i, prev_arrival_,
                                                  arrival_rng_);
        prev_arrival_ = arrival;
      }
      sim::SimTime ready = arrival;

      if (faults_on_ && !deliver_with_retries(ready)) {
        // Retry budget exhausted: the request is abandoned client-side;
        // the client still burned the timeouts and backoffs.
        ++stats_.faults.failed_ops;
        client_ready_[client] = std::max(client_ready_[client], ready);
        vnow_ = std::max(vnow_, ready);
        continue;
      }
      if (faults_on_ && opt_.recovery.fencing &&
          fence(mat_.ino_of(home_node))) {
        ready += opt_.cost.rtt;  // bounced once, re-resolves at the owner
      }

      const common::Status status = execute(op);
      ++stats_.executed;
      if (!status.is_ok()) ++stats_.failed;

      dispatch(op, home_node, client, arrival, ready);

      if (opt_.on_epoch != nullptr && opt_.epoch_ops > 0 &&
          ++since_epoch >= opt_.epoch_ops) {
        since_epoch = 0;
        ++stats_.epochs;
        stats_.migrations += opt_.on_epoch(fsys_, *this);
      }
    }
    finalize();
    return std::move(stats_);
  }

  // --- LiveFaultContext ----------------------------------------------------
  [[nodiscard]] bool shard_down(std::uint32_t shard) const override {
    return faults_on_ && shard < down_.size() && down_[shard];
  }

  void record_prepare(Ino subtree, std::uint32_t from,
                      std::uint32_t to) override {
    record(recovery::JournalRecordKind::kPrepare, subtree, from, to,
           stats_.faults.prepared_migrations);
  }
  void record_commit(Ino subtree, std::uint32_t from,
                     std::uint32_t to) override {
    record(recovery::JournalRecordKind::kCommit, subtree, from, to,
           stats_.faults.committed_migrations);
  }
  void record_abort(Ino subtree, std::uint32_t from,
                    std::uint32_t to) override {
    record(recovery::JournalRecordKind::kAbort, subtree, from, to,
           stats_.faults.aborted_migrations);
  }

 private:
  /// Journals one two-phase transition at each live endpoint and counts it.
  void record(recovery::JournalRecordKind kind, Ino subtree,
              std::uint32_t from, std::uint32_t to, std::uint64_t& counter) {
    if (!faults_on_) return;
    cluster::TwoPhaseLog::record(kind, static_cast<fsns::NodeId>(subtree),
                                 from, to, fsys_.ownership_epoch(subtree),
                                 vnow_, journal_if_up(from), journal_if_up(to),
                                 nullptr);
    ++counter;
  }

  struct StragglerWindow {
    sim::SimTime from;
    sim::SimTime until;
    double factor;
  };

  [[nodiscard]] recovery::MetadataJournal* journal_if_up(std::uint32_t shard) {
    if (shard >= plane_.journals().size() || down_[shard]) return nullptr;
    return &plane_.journal(shard);
  }

  // --- virtual clock -------------------------------------------------------

  /// Prices the executed request on the virtual clock and records it at its
  /// home shard: latency, busy time, served count and, for a faulted
  /// write, the journal's durability plane.
  void dispatch(const wl::MetaOp& op, fsns::NodeId home_node,
                std::uint32_t client, sim::SimTime arrival,
                sim::SimTime ready) {
    const Ino home = mat_.ino_of(home_node);
    const std::uint32_t shard =
        home != kInvalidIno ? fsys_.dir_shard(home) : fsys_.dir_shard(kRootIno);
    // Eq. 2 inputs from the namespace the request actually resolved:
    // k path components, m distinct owners along the materialised ancestor
    // chain (m > 1 also marks a cross-shard mutation for the T_coor term).
    const std::uint32_t k = trace_.tree.path_length(op.target);
    const std::uint32_t m = distinct_owners(home_node, shard);
    sim::SimTime service = model_.t_meta(op.type, k, m, 0, m > 1);
    const sim::SimTime start = std::max(ready, shard_clock_[shard]);
    if (faults_on_) service = straggler_adjust(shard, start, service);
    shard_clock_[shard] = start + service;
    const sim::SimTime completion =
        shard_clock_[shard] + opt_.cost.rtt * static_cast<sim::SimTime>(m);
    client_ready_[client] = completion;
    vnow_ = std::max(vnow_, completion);

    stats_.latency.add(static_cast<std::uint64_t>(completion - arrival));
    stats_.shard_busy[shard] += service;
    ++stats_.shard_served[shard];
    if (!faults_on_ || !fsns::is_write(op.type) || home == kInvalidIno) {
      return;
    }
    // Frame the acknowledged write into its shard's journal on the shard
    // clock. Live calls return synchronously, so in async mode the ack
    // lands with the append; durability still waits for the group commit,
    // which the shard decides on its own clock: batch size first, then
    // the commit-window age of the oldest buffered record.
    const std::uint64_t op_id = ++next_op_id_;
    const sim::SimTime stamp = shard_clock_[shard];
    recovery::MetadataJournal& journal = plane_.journal(shard);
    journal.append_op(op_id, static_cast<fsns::NodeId>(home), stamp);
    if (!plane_.async_commit()) return;
    journal.note_acked(op_id, stamp);
    const bool batch_due =
        journal.pending_records() >= opt_.recovery.commit_batch;
    const bool age_due =
        journal.pending_records() > 0 &&
        stamp - journal.oldest_pending_at() >= opt_.recovery.commit_window;
    if (batch_due || age_due) (void)journal.flush(stamp);
  }

  /// Distinct shard owners along the materialised ancestor chain of the
  /// request's home directory (always includes the home shard itself).
  [[nodiscard]] std::uint32_t distinct_owners(fsns::NodeId home_node,
                                              std::uint32_t home_shard) {
    owners_buf_.clear();
    owners_buf_.push_back(home_shard);
    fsns::NodeId n = home_node;
    while (n != fsns::kRootNode) {
      n = trace_.tree.parent(n);
      const Ino ino = mat_.ino_of(n);
      if (ino == kInvalidIno) continue;
      const std::uint32_t o = fsys_.dir_shard(ino);
      if (std::find(owners_buf_.begin(), owners_buf_.end(), o) ==
          owners_buf_.end()) {
        owners_buf_.push_back(o);
      }
    }
    return static_cast<std::uint32_t>(owners_buf_.size());
  }

  /// Multiplies the service charge while `shard` sits inside a straggler
  /// window at `start`. Per-shard start times are monotone, so a cursor
  /// retires expired windows.
  [[nodiscard]] sim::SimTime straggler_adjust(std::uint32_t shard,
                                              sim::SimTime start,
                                              sim::SimTime service) {
    ensure_fault_epochs(start);
    auto& windows = stragglers_[shard];
    std::size_t& cur = strag_cursor_[shard];
    while (cur < windows.size() && windows[cur].until <= start) ++cur;
    double factor = 1.0;
    for (std::size_t j = cur; j < windows.size() && windows[j].from <= start;
         ++j) {
      if (windows[j].until > start) factor = std::max(factor, windows[j].factor);
    }
    if (factor > 1.0) {
      service = static_cast<sim::SimTime>(static_cast<double>(service) * factor);
    }
    return service;
  }

  // --- fault timing and down state ------------------------------------------

  /// Materialises fault-sampling epochs through virtual time `t`. Sampling
  /// is keyed by (seed, epoch, shard), so on-demand materialisation is
  /// identical no matter when or how often it happens.
  void ensure_fault_epochs(sim::SimTime t) {
    while (static_cast<sim::SimTime>(next_fault_epoch_) * kFaultEpoch <= t) {
      const std::uint32_t e = next_fault_epoch_++;
      const sim::SimTime start = static_cast<sim::SimTime>(e) * kFaultEpoch;
      // Windows come back sorted by start, so crashes_ stays from-sorted.
      for (const fault::FaultWindow& w :
           plane_.injector().windows_for_epoch(e, start, kFaultEpoch)) {
        if (w.mds >= shard_clock_.size()) continue;
        if (w.kind == fault::FaultKind::kCrash) {
          crashes_.push_back(w);
        } else {
          stragglers_[w.mds].push_back({w.from, w.until, w.slow_factor});
          stats_.faults.time_degraded += w.until - w.from;
        }
      }
    }
  }

  /// Runs at every `kSyncOps` boundary: fires recoveries and crashes due on
  /// the virtual clock, then sweeps aged commit windows (and the shard
  /// stores' group commits).
  void sync_point() {
    ensure_fault_epochs(vnow_);
    // Recoveries first, so a shard may crash again in the same sweep.
    for (std::uint32_t s = 0; s < down_.size(); ++s) {
      if (down_[s] && vnow_ >= down_until_[s]) recover(s);
    }
    while (crash_cursor_ < crashes_.size() &&
           crashes_[crash_cursor_].from <= vnow_) {
      const fault::FaultWindow w = crashes_[crash_cursor_++];
      if (!down_[w.mds]) crash(w);
    }
    if (plane_.async_commit()) flush_due();
  }

  void crash(const fault::FaultWindow& w) {
    const sim::SimTime until = std::max(w.until, vnow_ + 1);
    stats_.faults.time_down += until - vnow_;
    down_[w.mds] = true;
    down_until_[w.mds] = until;
    plane_.crash(w.mds, vnow_, stats_.faults, /*ledger=*/nullptr);
    (void)plane_.failover(w.mds, vnow_, shard_ns_, stats_.faults);
  }

  void recover(std::uint32_t s) {
    down_[s] = false;
    (void)plane_.restore(s, vnow_, shard_ns_, stats_.faults);
  }

  /// Client-side delivery: message loss/corruption triggers the bounded
  /// retry loop, charging each attempt's detection timeout and backoff to
  /// the client's clock. Returns false when the retry budget is exhausted.
  bool deliver_with_retries(sim::SimTime& ready) {
    if (opt_.faults.rpc_loss_prob <= 0.0 &&
        opt_.faults.rpc_corrupt_prob <= 0.0) {
      return true;
    }
    std::uint32_t attempt = 0;
    while (delivery_fails()) {
      ++stats_.faults.timeouts;
      ready += opt_.retry.timeout;
      if (attempt++ >= opt_.retry.max_retries) return false;
      ++stats_.faults.retries;
      ready += opt_.retry.backoff_for(attempt, loss_rng_);
    }
    return true;
  }

  bool delivery_fails() {
    if (opt_.faults.rpc_loss_prob > 0.0 &&
        loss_rng_.chance(opt_.faults.rpc_loss_prob)) {
      ++stats_.faults.rpcs_lost;
      return true;
    }
    if (opt_.faults.rpc_corrupt_prob > 0.0 &&
        loss_rng_.chance(opt_.faults.rpc_corrupt_prob)) {
      ++stats_.faults.rpcs_corrupted;
      return true;
    }
    return false;
  }

  /// Ownership-epoch fencing: a client whose cached route predates the
  /// fragment's current epoch is bounced once and re-resolves. Returns
  /// whether the request was bounced (the bounce costs an extra RTT).
  bool fence(Ino home) {
    if (home == kInvalidIno) return false;
    const std::uint32_t current = fsys_.ownership_epoch(home);
    const auto [it, inserted] = cached_.try_emplace(home, current);
    if (!inserted && it->second != current) {
      ++stats_.faults.fenced_rejections;
      it->second = current;
      return true;
    }
    return false;
  }

  /// Async mode, at a sync point: group-commit every shard
  /// whose oldest buffered record aged past the commit window, and let the
  /// real stores group-commit whatever their own triggers left buffered.
  void flush_due() {
    for (std::uint32_t s = 0; s < plane_.journals().size(); ++s) {
      recovery::MetadataJournal& journal = plane_.journal(s);
      if (journal.pending_records() == 0) continue;
      if (vnow_ - journal.oldest_pending_at() >= opt_.recovery.commit_window) {
        (void)journal.flush(vnow_);
      }
    }
    plane_.commit_group_stores();
  }

  common::Status execute(const wl::MetaOp& op) {
    const fsns::NodeId target = op.target;
    const bool target_is_dir = trace_.tree.is_dir(target);
    const auto status_of = [](const auto& r) {
      return r.is_ok() ? common::Status::ok() : r.status();
    };
    const auto create = [&] {
      auto r = mat_.at(target, [&](Ino parent, std::string_view name) {
        return fsys_.create_at(parent, name);
      });
      if (r.is_ok()) mat_.mark(target, true);
      return status_of(r);
    };
    const auto setattr = [&] {
      return mat_.at(target, [&](Ino parent, std::string_view name) {
        return fsys_.setattr_at(parent, name, {});
      });
    };
    common::Status status = common::Status::ok();
    switch (op.type) {
      case fsns::OpType::kCreate: {
        mat_.ensure_dirs(target, false);
        // A replayed re-create overwrites.
        status = mat_.exists(target) ? setattr() : create();
        break;
      }
      case fsns::OpType::kMkdir: {
        mat_.ensure_dirs(target, true);
        break;
      }
      case fsns::OpType::kUnlink: {
        if (mat_.exists(target)) {
          status = mat_.at(target, [&](Ino parent, std::string_view name) {
            return fsys_.unlink_at(parent, name);
          });
          mat_.mark(target, false);
        }
        break;
      }
      case fsns::OpType::kRmdir: {
        // Replayed namespaces keep using removed dirs; skip real removal.
        break;
      }
      case fsns::OpType::kRename: {
        // The engine never renames: the trace tree keys every later op by
        // node, so the load is modelled as a metadata write on the entry.
        mat_.ensure_dirs(target, target_is_dir);
        if (!target_is_dir && !mat_.exists(target)) (void)create();
        status = setattr();
        break;
      }
      case fsns::OpType::kStat:
      case fsns::OpType::kOpen: {
        mat_.ensure_dirs(target, target_is_dir);
        if (!target_is_dir && !mat_.exists(target)) (void)create();
        status = status_of(
            mat_.at(target, [&](Ino parent, std::string_view name) {
              return fsys_.stat_at(parent, name);
            }));
        break;
      }
      case fsns::OpType::kSetattr: {
        mat_.ensure_dirs(target, target_is_dir);
        if (!target_is_dir && !mat_.exists(target)) (void)create();
        status = setattr();
        break;
      }
      case fsns::OpType::kReaddir: {
        mat_.ensure_dirs(target, true);
        status = status_of(
            mat_.at(target, [&](Ino parent, std::string_view name) {
              return fsys_.readdir_at(parent, name);
            }));
        break;
      }
    }
    return status;
  }

  void finalize() {
    stats_.makespan = vnow_;
    stats_.throughput_ops =
        vnow_ > 0 ? static_cast<double>(stats_.executed) * 1e9 /
                        static_cast<double>(vnow_)
                  : 0.0;

    const auto shard_stats = fsys_.shard_stats();
    std::vector<double> loads;
    for (const ShardStats& st : shard_stats) {
      stats_.shard_ops.push_back(st.lookups + st.mutations);
      loads.push_back(static_cast<double>(st.lookups + st.mutations));
    }
    stats_.shard_imbalance = cost::imbalance_factor(loads);
    plane_.roll_up(vnow_, stats_.faults);
  }

  const wl::Trace& trace_;
  OrigamiFs& fsys_;
  const LiveReplayOptions& opt_;
  bool faults_on_;
  /// Crash protocol shared with the epoch engine: fault injector, one
  /// journal per shard, failover log.
  cluster::FaultPlane plane_;
  common::Xoshiro256 loss_rng_;
  /// The request-arrival process (wl/arrival.hpp), shared implementation
  /// with the epoch DES. Closed-loop policies read `client_ready_`;
  /// open-loop policies run on the virtual clock via `prev_arrival_`.
  std::unique_ptr<wl::ArrivalPolicy> arrival_;
  /// The engine's stream for arrival policies that draw (e.g. "open" run
  /// live).
  common::Xoshiro256 arrival_rng_;
  cost::CostModel model_;
  Materialiser mat_;

  // Virtual clock.
  std::vector<sim::SimTime> shard_clock_;   ///< per-shard logical time B_s
  std::vector<sim::SimTime> client_ready_;  ///< per-client next-issue time
  sim::SimTime vnow_ = 0;                   ///< max completion seen so far
  sim::SimTime prev_arrival_ = 0;           ///< open loop: last stamped arrival
  std::vector<std::uint32_t> owners_buf_;  ///< scratch for distinct_owners

  // Fault timing, down state and client model.
  std::uint32_t next_fault_epoch_ = 0;
  std::vector<fault::FaultWindow> crashes_;  ///< crash windows, from-sorted
  std::size_t crash_cursor_ = 0;
  std::vector<std::vector<StragglerWindow>> stragglers_;  ///< per shard
  std::vector<std::size_t> strag_cursor_;
  std::vector<bool> down_;
  std::vector<sim::SimTime> down_until_;
  ShardNamespace shard_ns_{fsys_, down_};
  std::unordered_map<Ino, std::uint32_t> cached_;  // client route cache
  std::uint64_t next_op_id_ = 0;

  LiveReplayStats stats_;
};

}  // namespace

LiveReplayStats replay_on_live(const wl::Trace& trace, OrigamiFs& fsys,
                               const LiveReplayOptions& options) {
  LiveEngine engine(trace, fsys, options);
  return engine.run();
}

}  // namespace origami::fs
