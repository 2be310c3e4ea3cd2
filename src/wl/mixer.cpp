#include <string>
#include <vector>

#include "origami/common/rng.hpp"
#include "origami/common/zipf.hpp"
#include "origami/wl/trace.hpp"

namespace origami::wl {

Trace interleave_traces(const std::vector<const Trace*>& traces,
                        std::uint64_t seed, std::string name) {
  Trace out;
  out.name = std::move(name);
  if (traces.empty()) {
    out.tree.finalize();
    return out;
  }

  // --- graft each namespace under /mix<i>/ --------------------------------
  // Node-id translation per input: input id -> output id.
  std::vector<std::vector<fsns::NodeId>> remap(traces.size());
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const Trace& in = *traces[t];
    remap[t].assign(in.tree.size(), fsns::kInvalidNode);
    const fsns::NodeId graft =
        out.tree.add_dir(fsns::kRootNode, "mix" + std::to_string(t));
    remap[t][fsns::kRootNode] = graft;
    // Children always have larger ids than parents, so a single forward
    // sweep can copy the tree.
    for (fsns::NodeId id = 1; id < in.tree.size(); ++id) {
      const std::string& node_name = in.tree.node(id).name;
      const fsns::NodeId new_parent = remap[t][in.tree.parent(id)];
      remap[t][id] = in.tree.is_dir(id)
                         ? out.tree.add_dir(new_parent, node_name)
                         : out.tree.add_file(new_parent, node_name);
    }
  }
  out.tree.finalize();

  // --- interleave op streams proportionally --------------------------------
  std::vector<double> weights(traces.size());
  std::size_t total_ops = 0;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    weights[t] = static_cast<double>(traces[t]->ops.size());
    total_ops += traces[t]->ops.size();
  }
  out.ops.reserve(total_ops);
  common::AliasTable pick(weights);
  common::Xoshiro256 rng(seed);
  std::vector<std::size_t> cursor(traces.size(), 0);
  while (out.ops.size() < total_ops) {
    std::size_t t = pick(rng);
    // Skip exhausted streams (weights stay fixed; residuals drain in turn).
    for (std::size_t probe = 0; cursor[t] >= traces[t]->ops.size(); ++probe) {
      t = (t + 1) % traces.size();
    }
    MetaOp op = traces[t]->ops[cursor[t]++];
    op.target = remap[t][op.target];
    if (op.aux != fsns::kInvalidNode) op.aux = remap[t][op.aux];
    out.ops.push_back(op);
  }
  return out;
}

}  // namespace origami::wl
