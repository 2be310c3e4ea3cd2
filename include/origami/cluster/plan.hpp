#pragma once

#include <cstdint>
#include <vector>

#include "origami/cost/cost_model.hpp"
#include "origami/fsns/dir_tree.hpp"
#include "origami/mds/client_cache.hpp"
#include "origami/mds/partition.hpp"
#include "origami/sim/time.hpp"
#include "origami/wl/trace.hpp"

namespace origami::cluster {

/// What a visit does at its MDS — retained so a retry after failover can
/// re-resolve the *current* owner of the namespace piece it needs.
enum class VisitRole : std::uint8_t {
  kResolve,  ///< path-component lookup at the dir's owner
  kStub,     ///< forwarding stub at the dir's previous owner
  kExec,     ///< primary op execution at the target's owner
  kFan,      ///< readdir fragment at a child dir's owner
  kCoord,    ///< distributed-txn participant at the other dir's owner
};

/// One service stop of a request at an MDS.
struct Visit {
  cost::MdsId mds;
  sim::SimTime service;
  fsns::NodeId node = fsns::kRootNode;  ///< namespace anchor for re-resolution
  VisitRole role = VisitRole::kResolve;
  /// Fragment ownership epoch captured at planning time; a mismatch at
  /// arrival means the fragment migrated underneath us (fencing).
  std::uint32_t epoch = 0;

  friend bool operator==(const Visit&, const Visit&) = default;
};

/// Fully planned request: visit sequence + Eq. 1/2 accounting inputs.
struct Plan {
  std::vector<Visit> visits;
  std::uint32_t k = 0;            // path components resolved
  std::uint32_t m = 1;            // distinct partitions touched
  std::uint32_t lsdir_spread = 0; // extra MDSs a readdir fans out to
  bool ns_cross = false;          // ns-mutation spanning two MDSs
  fsns::NodeId target = fsns::kRootNode;
  fsns::NodeId home_dir = fsns::kRootNode;
  fsns::OpType type = fsns::OpType::kStat;
  std::uint32_t data_bytes = 0;
  /// Non-zero for mutating ops under fault injection: the id journaled at
  /// the executing MDS and recorded as acknowledged on completion.
  std::uint64_t op_id = 0;

  friend bool operator==(const Plan&, const Plan&) = default;
};

/// The directory whose ownership epoch fences a visit to `node`.
[[nodiscard]] inline fsns::NodeId fence_dir(const fsns::DirTree& tree,
                                            fsns::NodeId node) {
  return tree.is_dir(node) ? node : tree.parent(node);
}

[[nodiscard]] inline std::uint32_t fence_epoch(const fsns::DirTree& tree,
                                               const mds::PartitionMap& map,
                                               fsns::NodeId node) {
  return map.ownership_epoch(fence_dir(tree, node));
}

/// Turns one trace operation into its MDS visit sequence under the current
/// partition: path resolution over the ancestor chain (client cache + stale
/// forwarding stubs, §4.2), execution at the owner, lsdir fan-out and
/// distributed ns-mutation coordination (Eq. 1/2 inputs). Stateless apart
/// from the client cache it drives and a reused ancestor-chain buffer.
class RequestPlanner {
 public:
  RequestPlanner(const fsns::DirTree& tree, const mds::PartitionMap& partition,
                 mds::NearRootCache& cache, const cost::CostModel& model,
                 const cost::CostParams& params)
      : tree_(tree),
        partition_(partition),
        cache_(cache),
        model_(model),
        params_(params) {}

  /// Plans `op` into `plan`, overwriting every field. The caller's plan
  /// keeps its visit buffer, so a reused in-flight slot plans without
  /// allocating once its buffer has grown to the longest plan.
  void build_plan(const wl::MetaOp& op, Plan& plan);

 private:
  const fsns::DirTree& tree_;
  const mds::PartitionMap& partition_;
  mds::NearRootCache& cache_;
  const cost::CostModel& model_;
  const cost::CostParams& params_;
  std::vector<fsns::NodeId> chain_;  ///< the ancestor chain being resolved
};

}  // namespace origami::cluster
