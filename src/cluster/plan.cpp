#include "origami/cluster/plan.hpp"

#include <array>
#include <utility>

namespace origami::cluster {

using cost::MdsId;
using fsns::NodeId;
using fsns::OpClass;
using fsns::OpType;
using sim::SimTime;

void RequestPlanner::build_plan(const wl::MetaOp& op, Plan& plan) {
  const auto& tree = tree_;
  // Every field starts afresh; only the visit buffer's capacity carries
  // over from whatever the slot planned last.
  std::vector<Visit> visits = std::move(plan.visits);
  visits.clear();
  plan = Plan{};
  plan.visits = std::move(visits);
  plan.type = op.type;
  plan.target = op.target;
  plan.data_bytes = op.data_bytes;
  plan.k = tree.depth(op.target);
  plan.home_dir =
      tree.is_dir(op.target) ? op.target : tree.parent(op.target);

  const MdsId exec_owner = partition_.node_owner(op.target);
  const SimTime t_inode = params_.t_inode;
  const SimTime t_rpc = params_.t_rpc_handle;

  auto add_visit = [&](MdsId mds, SimTime service, NodeId node,
                       VisitRole role) {
    if (!plan.visits.empty() && plan.visits.back().mds == mds) {
      // Merged into the previous stop; the earlier anchor wins (a retry
      // that re-resolves it still reaches an MDS serving part of the work).
      plan.visits.back().service += service;
      if (role == VisitRole::kExec) {
        plan.visits.back().node = node;
        plan.visits.back().role = role;
        plan.visits.back().epoch = fence_epoch(tree, partition_, node);
      }
    } else {
      plan.visits.push_back({mds, service + t_rpc, node, role,
                             fence_epoch(tree, partition_, node)});
    }
  };

  // Path resolution over the ancestor chain (root .. parent-of-target).
  // Near-root components may be served from the client cache; a stale cache
  // entry visits the old owner's forwarding stub first (§4.2).
  tree.ancestors(op.target, chain_);
  std::array<MdsId, 64> seen{};
  std::size_t seen_n = 0;
  auto note_owner = [&](MdsId mds) {
    for (std::size_t i = 0; i < seen_n; ++i) {
      if (seen[i] == mds) return;
    }
    if (seen_n < seen.size()) seen[seen_n++] = mds;
  };

  for (std::size_t i = 0; i + 1 < chain_.size(); ++i) {
    const NodeId comp = chain_[i];
    const MdsId owner = partition_.dir_owner(comp);
    const auto outcome =
        cache_.access(comp, tree.depth(comp), partition_.dir_version(comp));
    if (outcome == mds::NearRootCache::Outcome::kHit) continue;
    if (outcome == mds::NearRootCache::Outcome::kStale) {
      add_visit(partition_.prev_owner(comp), t_inode, comp,
                VisitRole::kStub);  // forwarding stub
      note_owner(partition_.prev_owner(comp));
    }
    add_visit(owner, t_inode, comp, VisitRole::kResolve);
    note_owner(owner);
  }

  // Target read + execution at the owning MDS.
  add_visit(exec_owner, t_inode + model_.exec_time(op.type), op.target,
            VisitRole::kExec);
  note_owner(exec_owner);

  // lsdir fan-out: each extra MDS holding children of the listed directory
  // serves its fragment (+RTT elapsed via the extra visit, Eq. 2).
  if (op.type == OpType::kReaddir && tree.is_dir(op.target)) {
    std::array<MdsId, 32> child_owners{};
    std::array<NodeId, 32> child_nodes{};
    std::size_t child_n = 0;
    for (NodeId child : tree.node(op.target).children) {
      if (!tree.is_dir(child)) continue;  // files live with the parent
      const MdsId o = partition_.dir_owner(child);
      if (o == exec_owner) continue;
      bool dup = false;
      for (std::size_t i = 0; i < child_n; ++i) {
        if (child_owners[i] == o) dup = true;
      }
      if (dup) continue;
      if (child_n < child_owners.size()) {
        child_owners[child_n] = o;
        child_nodes[child_n] = child;
        ++child_n;
      }
    }
    plan.lsdir_spread = static_cast<std::uint32_t>(child_n);
    for (std::size_t i = 0; i < child_n; ++i) {
      add_visit(child_owners[i], params_.t_exec_readdir / 2, child_nodes[i],
                VisitRole::kFan);
      note_owner(child_owners[i]);
    }
  }

  // Distributed coordination for namespace mutations spanning two MDSs
  // (mkdir/rmdir whose fragment lands elsewhere; cross-directory rename).
  if (fsns::classify(op.type) == OpClass::kNsMutation) {
    MdsId other = exec_owner;
    NodeId other_node = op.target;
    if ((op.type == OpType::kMkdir || op.type == OpType::kRmdir) &&
        tree.is_dir(op.target) && op.target != fsns::kRootNode) {
      other_node = tree.parent(op.target);
      other = partition_.dir_owner(other_node);
    } else if (op.type == OpType::kRename && op.aux != fsns::kInvalidNode) {
      other_node = op.aux;
      other = partition_.dir_owner(other_node);
    } else if ((op.type == OpType::kCreate || op.type == OpType::kUnlink) &&
               !tree.is_dir(op.target)) {
      // Dirent lives with the parent directory; the file inode may be
      // hashed elsewhere (fine-grained partitioning) — then the mutation
      // is a distributed transaction.
      other_node = tree.parent(op.target);
      other = partition_.dir_owner(other_node);
    }
    if (other != exec_owner) {
      plan.ns_cross = true;
      const SimTime half = params_.t_coor / 2;
      plan.visits.back().service += half;            // coordinator side
      add_visit(other, half, other_node, VisitRole::kCoord);  // participant
      note_owner(other);
    }
  }

  plan.m = static_cast<std::uint32_t>(seen_n);
}

}  // namespace origami::cluster
