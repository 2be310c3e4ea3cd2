#include "origami/wl/trace.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <unordered_map>
#include <unordered_set>

#include "origami/fsns/path_resolver.hpp"

namespace origami::wl {

TraceSummary summarize(const Trace& trace) {
  TraceSummary s;
  s.total_ops = trace.ops.size();
  std::unordered_map<fsns::NodeId, std::uint64_t> hits;
  double depth_sum = 0.0;
  std::uint64_t writes = 0;
  for (const MetaOp& op : trace.ops) {
    ++s.op_counts[static_cast<std::size_t>(op.type)];
    if (fsns::is_write(op.type)) ++writes;
    const auto d = trace.tree.depth(op.target);
    depth_sum += d;
    s.max_depth = std::max(s.max_depth, d);
    ++hits[op.target];
  }
  if (s.total_ops > 0) {
    s.write_fraction = static_cast<double>(writes) / static_cast<double>(s.total_ops);
    s.mean_depth = depth_sum / static_cast<double>(s.total_ops);
  }
  s.unique_targets = hits.size();
  if (!hits.empty()) {
    std::vector<std::uint64_t> counts;
    counts.reserve(hits.size());
    for (const auto& [node, c] : hits) counts.push_back(c);
    std::sort(counts.rbegin(), counts.rend());
    const std::size_t top = std::max<std::size_t>(1, counts.size() / 100);
    std::uint64_t top_hits = 0;
    for (std::size_t i = 0; i < top; ++i) top_hits += counts[i];
    s.top1pct_share =
        static_cast<double>(top_hits) / static_cast<double>(s.total_ops);
  }
  return s;
}

namespace {

constexpr std::uint32_t kTraceMagic = 0x4f524754;  // "ORGT"
// Version 2 appends the optional per-op arrival timestamps after the op
// table. Version-1 files (no timing section) still load, as untimed.
constexpr std::uint32_t kTraceVersion = 2;

template <typename T>
void write_pod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

void write_string(std::ofstream& out, const std::string& s) {
  write_pod(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// Reads a trace file front to back and tracks the bytes left in it, so no
/// count or length the file declares can size an allocation past its end.
class Reader {
 public:
  explicit Reader(std::ifstream& in) : in_(in) {
    in_.seekg(0, std::ios::end);
    const std::streamoff size = in_.tellg();
    in_.seekg(0, std::ios::beg);
    left_ = size > 0 ? static_cast<std::uint64_t>(size) : 0;
  }

  template <typename T>
  bool pod(T& v) {
    if (left_ < sizeof(T)) return false;
    in_.read(reinterpret_cast<char*>(&v), sizeof(T));
    left_ -= sizeof(T);
    return static_cast<bool>(in_);
  }

  bool string(std::string& s) {
    std::uint32_t len = 0;
    if (!pod(len) || len > left_) return false;
    s.resize(len);
    in_.read(s.data(), len);
    left_ -= len;
    return static_cast<bool>(in_);
  }

  /// True when `count` records of at least `record_bytes` each fit in the
  /// rest of the file.
  [[nodiscard]] bool fits(std::uint64_t count,
                          std::uint64_t record_bytes) const {
    return count <= left_ / record_bytes;
  }

 private:
  std::ifstream& in_;
  std::uint64_t left_ = 0;
};

}  // namespace

common::Status save_trace(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return common::Status::unavailable("cannot open " + path);
  write_pod(out, kTraceMagic);
  write_pod(out, kTraceVersion);
  write_string(out, trace.name);

  write_pod(out, static_cast<std::uint64_t>(trace.tree.size()));
  // Node 0 is the implicit root; children arrays are rebuilt on load.
  for (std::size_t i = 1; i < trace.tree.size(); ++i) {
    const auto& n = trace.tree.node(static_cast<fsns::NodeId>(i));
    write_pod(out, n.parent);
    write_pod(out, static_cast<std::uint8_t>(n.is_dir ? 1 : 0));
    write_string(out, n.name);
  }

  write_pod(out, static_cast<std::uint64_t>(trace.ops.size()));
  for (const MetaOp& op : trace.ops) {
    write_pod(out, static_cast<std::uint8_t>(op.type));
    write_pod(out, op.target);
    write_pod(out, op.aux);
    write_pod(out, op.data_bytes);
  }
  write_pod(out, static_cast<std::uint64_t>(trace.arrivals.size()));
  for (sim::SimTime at : trace.arrivals) write_pod(out, at);
  if (!out) return common::Status::unavailable("write failed: " + path);
  return common::Status::ok();
}

common::Result<Trace> load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return common::Status::not_found("cannot open " + path);
  Reader r(in);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  if (!r.pod(magic) || magic != kTraceMagic) {
    return common::Status::corruption("bad trace magic in " + path);
  }
  if (!r.pod(version) || version < 1 || version > kTraceVersion) {
    return common::Status::corruption("unsupported trace version in " + path);
  }
  Trace trace;
  if (!r.string(trace.name)) {
    return common::Status::corruption("truncated trace header");
  }

  // Smallest node record: parent, is_dir byte and an empty name's length.
  constexpr std::uint64_t kNodeBytes =
      sizeof(fsns::NodeId) + sizeof(std::uint8_t) + sizeof(std::uint32_t);
  std::uint64_t node_count = 0;
  if (!r.pod(node_count) || node_count == 0) {
    return common::Status::corruption("truncated node table");
  }
  if (!r.fits(node_count - 1, kNodeBytes)) {
    return common::Status::corruption("node table runs past the end of " +
                                      path);
  }
  // The loaded tree must be one a path can walk: every node's full path
  // resolves back to that node.
  std::unordered_set<std::string> entries;  // parent id bytes + name
  for (std::uint64_t i = 1; i < node_count; ++i) {
    fsns::NodeId parent = 0;
    std::uint8_t is_dir = 0;
    std::string name;
    if (!r.pod(parent) || !r.pod(is_dir) || !r.string(name) ||
        parent >= trace.tree.size()) {
      return common::Status::corruption("truncated or invalid node record");
    }
    const auto bad_node = [i](const char* why) {
      return common::Status::corruption("node " + std::to_string(i) + why);
    };
    if (!trace.tree.is_dir(parent)) {
      return bad_node(" has a file as its parent");
    }
    if (!fsns::is_path_component(name)) {
      return bad_node(" has a name no path spells");
    }
    std::string entry(reinterpret_cast<const char*>(&parent), sizeof parent);
    entry += name;
    if (!entries.insert(std::move(entry)).second) {
      return bad_node(" repeats a sibling's name");
    }
    if (is_dir != 0) {
      trace.tree.add_dir(parent, std::move(name));
    } else {
      trace.tree.add_file(parent, std::move(name));
    }
  }
  trace.tree.finalize();

  constexpr std::uint64_t kOpBytes =
      sizeof(std::uint8_t) + sizeof(MetaOp::target) + sizeof(MetaOp::aux) +
      sizeof(MetaOp::data_bytes);
  std::uint64_t op_count = 0;
  if (!r.pod(op_count)) {
    return common::Status::corruption("truncated op table");
  }
  if (!r.fits(op_count, kOpBytes)) {
    return common::Status::corruption("op table runs past the end of " + path);
  }
  trace.ops.reserve(op_count);
  for (std::uint64_t i = 0; i < op_count; ++i) {
    std::uint8_t type = 0;
    MetaOp op;
    if (!r.pod(type) || !r.pod(op.target) || !r.pod(op.aux) ||
        !r.pod(op.data_bytes) || type >= fsns::kOpTypeCount ||
        op.target >= trace.tree.size()) {
      return common::Status::corruption("truncated or invalid op record");
    }
    op.type = static_cast<fsns::OpType>(type);
    trace.ops.push_back(op);
  }
  if (version >= 2) {
    std::uint64_t arrival_count = 0;
    if (!r.pod(arrival_count)) {
      return common::Status::corruption("truncated arrival table");
    }
    if (!r.fits(arrival_count, sizeof(sim::SimTime))) {
      return common::Status::corruption("arrival table runs past the end of " +
                                        path);
    }
    if (arrival_count != 0 && arrival_count != op_count) {
      return common::Status::corruption("arrival table size mismatch");
    }
    trace.arrivals.reserve(arrival_count);
    sim::SimTime prev = 0;
    for (std::uint64_t i = 0; i < arrival_count; ++i) {
      sim::SimTime at = 0;
      if (!r.pod(at) || at < prev) {
        return common::Status::corruption("invalid arrival record");
      }
      trace.arrivals.push_back(at);
      prev = at;
    }
  }
  return trace;
}

}  // namespace origami::wl
