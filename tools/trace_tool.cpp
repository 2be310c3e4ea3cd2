// trace_tool — generate, inspect and dump workload traces.
//
//   trace_tool gen --trace wi --ops 500000 --seed 7 --out wi.trace
//   trace_tool info wi.trace
//   trace_tool head wi.trace --n 20
//
// Exit codes: 0 on success and for --help; 1 when a trace file cannot be
// read or written; 2 with usage on stderr for a usage error (no command,
// an unknown command, a missing PATH, a bad flag value or family).

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "origami/common/flags.hpp"
#include "origami/fsns/types.hpp"
#include "origami/wl/generators.hpp"
#include "origami/wl/trace.hpp"

using namespace origami;

namespace {

constexpr const char* kUsage = R"(usage:
  trace_tool gen     --trace rw|ro|wi|web|mdtest|falcon|midas --ops N --seed N
                     --out PATH     # N >= 1 ops; mdtest ignores --ops
  trace_tool info    PATH
  trace_tool head    PATH [--n N]
  trace_tool export  PATH --out PATH.txt     # binary -> text format
  trace_tool import  PATH.txt --out PATH     # text -> binary format
)";

constexpr std::int64_t kMaxInt = std::numeric_limits<std::int64_t>::max();

/// Prints a rejected argument with the usage; exit 2, as origami_sim does.
int usage_error(const common::Status& status) {
  std::fprintf(stderr, "error: %s\n%s", status.to_string().c_str(), kUsage);
  return 2;
}

int cmd_gen(const common::Flags& flags) {
  const std::string family = flags.get("trace", "rw");
  common::FlagReader read(flags);
  const auto ops = read.int_flag("ops", 1, kMaxInt).value_or(400'000);
  const auto seed = read.int_flag("seed", 0, kMaxInt).value_or(1);
  if (!read.status().is_ok()) return usage_error(read.status());
  auto made = wl::make_trace(family, static_cast<std::uint64_t>(seed),
                             static_cast<std::uint64_t>(ops));
  if (!made.is_ok()) return usage_error(made.status());
  const wl::Trace& trace = made.value();
  const std::string out = flags.get("out", family + ".trace");

  const auto status = wl::save_trace(trace, out);
  if (!status.is_ok()) {
    std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu ops over %zu nodes\n", out.c_str(),
              trace.ops.size(), trace.tree.size());
  return 0;
}

int cmd_info(const std::string& path) {
  auto loaded = wl::load_trace(path);
  if (!loaded.is_ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().to_string().c_str());
    return 1;
  }
  const wl::Trace& t = loaded.value();
  const auto s = wl::summarize(t);
  std::printf("trace    : %s\n", t.name.c_str());
  std::printf("namespace: %zu dirs, %zu files\n", t.tree.dir_count(),
              t.tree.file_count());
  std::printf("ops      : %lu total, %lu unique targets\n",
              static_cast<unsigned long>(s.total_ops),
              static_cast<unsigned long>(s.unique_targets));
  std::printf("depth    : mean %.1f, max %u\n", s.mean_depth, s.max_depth);
  std::printf("writes   : %.1f%%\n", s.write_fraction * 100);
  std::printf("skew     : top 1%% of targets take %.1f%% of accesses\n",
              s.top1pct_share * 100);
  std::printf("mix      :");
  for (int i = 0; i < fsns::kOpTypeCount; ++i) {
    if (s.op_counts[static_cast<std::size_t>(i)] == 0) continue;
    std::printf(" %s=%.1f%%", fsns::to_string(static_cast<fsns::OpType>(i)).data(),
                100.0 * static_cast<double>(s.op_counts[static_cast<std::size_t>(i)]) /
                    static_cast<double>(s.total_ops));
  }
  std::printf("\n");
  return 0;
}

int cmd_head(const std::string& path, std::int64_t n) {
  auto loaded = wl::load_trace(path);
  if (!loaded.is_ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().to_string().c_str());
    return 1;
  }
  const wl::Trace& t = loaded.value();
  for (std::size_t i = 0; i < t.ops.size() && i < static_cast<std::size_t>(n); ++i) {
    const wl::MetaOp& op = t.ops[i];
    std::printf("%-8s %s", fsns::to_string(op.type).data(),
                t.tree.full_path(op.target).c_str());
    if (op.aux != fsns::kInvalidNode) {
      std::printf(" -> %s", t.tree.full_path(op.aux).c_str());
    }
    if (op.data_bytes > 0) std::printf(" (%u bytes)", op.data_bytes);
    std::printf("\n");
  }
  return 0;
}

int cmd_export(const std::string& path, const common::Flags& flags) {
  auto loaded = wl::load_trace(path);
  if (!loaded.is_ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().to_string().c_str());
    return 1;
  }
  const std::string out_path = flags.get("out", path + ".txt");
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s\n", out_path.c_str());
    return 1;
  }
  if (auto s = wl::write_text_trace(loaded.value(), out); !s.is_ok()) {
    std::fprintf(stderr, "error: %s\n", s.to_string().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu ops, text format)\n", out_path.c_str(),
              loaded.value().ops.size());
  return 0;
}

int cmd_import(const std::string& path, const common::Flags& flags) {
  auto parsed = wl::parse_text_trace_file(path);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().to_string().c_str());
    return 1;
  }
  const std::string out_path = flags.get("out", path + ".trace");
  if (auto s = wl::save_trace(parsed.value(), out_path); !s.is_ok()) {
    std::fprintf(stderr, "error: %s\n", s.to_string().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu ops over %zu nodes)\n", out_path.c_str(),
              parsed.value().ops.size(), parsed.value().tree.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  const auto& pos = flags.positional();
  if (flags.has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const std::string cmd = pos.empty() ? std::string() : pos[0];
  if (cmd == "gen") return cmd_gen(flags);
  if (cmd == "info" && pos.size() > 1) return cmd_info(pos[1]);
  if (cmd == "head" && pos.size() > 1) {
    common::FlagReader read(flags);
    const auto n = read.int_flag("n", 0, kMaxInt).value_or(10);
    if (!read.status().is_ok()) return usage_error(read.status());
    return cmd_head(pos[1], n);
  }
  if (cmd == "export" && pos.size() > 1) return cmd_export(pos[1], flags);
  if (cmd == "import" && pos.size() > 1) return cmd_import(pos[1], flags);
  // No command, an unknown one, or one without its PATH.
  std::fputs(kUsage, stderr);
  return 2;
}
