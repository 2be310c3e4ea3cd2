// replay_custom_trace: bring your own workload. Builds a trace in the
// human-readable text format (the same one `trace_tool import` accepts),
// parses it, and compares balancing strategies on it — the complete path
// from "I have an ops log from my production filesystem" to Origami
// results.

#include <cstdio>
#include <sstream>

#include "origami/cluster/replay.hpp"
#include "origami/core/balancers.hpp"
#include "origami/wl/trace.hpp"

using namespace origami;

int main() {
  // In practice this string comes from a file: convert your trace to
  //   <op> <path> [<dst-path>] [<bytes>]
  // lines and load it with wl::parse_text_trace_file("my.trace.txt").
  std::ostringstream synthetic;
  synthetic << "# tiny ETL pipeline: ingest -> transform -> publish\n";
  for (int batch = 0; batch < 2000; ++batch) {
    const std::string in = "/ingest/batch" + std::to_string(batch % 20);
    const std::string out = "/publish/day" + std::to_string(batch % 5);
    for (int f = 0; f < 8; ++f) {
      const std::string name = "/rec" + std::to_string(batch) + "_" +
                               std::to_string(f);
      synthetic << "create " << in << name << " 32768\n";
      synthetic << "stat " << in << name << "\n";
      synthetic << "create " << out << name << " 8192\n";
    }
    synthetic << "readdir " << in << "\n";
  }
  std::istringstream input(synthetic.str());
  auto parsed = wl::parse_text_trace(input, "etl-pipeline");
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().to_string().c_str());
    return 1;
  }
  const wl::Trace& trace = parsed.value();
  const auto s = wl::summarize(trace);
  std::printf("imported %lu ops over %zu dirs / %zu files (%.0f%% writes)\n\n",
              static_cast<unsigned long>(s.total_ops), trace.tree.dir_count(),
              trace.tree.file_count(), s.write_fraction * 100);

  cluster::ReplayOptions opt;
  opt.mds_count = 3;
  opt.clients = 24;
  opt.epoch_length = sim::millis(150);
  opt.warmup_epochs = 2;

  std::printf("%-10s %12s %9s %9s\n", "strategy", "ops/s", "RPC/req",
              "IF:busy");
  for (auto kind : {cluster::StaticBalancer::Kind::kSingle,
                    cluster::StaticBalancer::Kind::kCoarseHash,
                    cluster::StaticBalancer::Kind::kFineHash}) {
    cluster::ReplayOptions run_opt = opt;
    if (kind == cluster::StaticBalancer::Kind::kSingle) run_opt.mds_count = 1;
    cluster::StaticBalancer balancer(kind);
    const auto r = cluster::replay_trace(trace, run_opt, balancer);
    std::printf("%-10s %12.0f %9.3f %9.2f\n", r.balancer_name.c_str(),
                r.throughput_ops, r.rpc_per_request, r.imf_busy);
  }
  {
    core::MetaOptParams p;
    p.min_subtree_ops = 8;
    core::MetaOptOracleBalancer oracle(cost::CostModel{opt.cost_params}, p,
                                       core::RebalanceTrigger{0.05});
    const auto r = cluster::replay_trace(trace, opt, oracle);
    std::printf("%-10s %12.0f %9.3f %9.2f  (%lu migrations)\n",
                r.balancer_name.c_str(), r.throughput_ops, r.rpc_per_request,
                r.imf_busy, static_cast<unsigned long>(r.migrations));
  }

  std::printf("\nnote: this pipeline rotates its hot directories every few "
              "operations, faster\nthan any balancing epoch - static "
              "hashing is the right call here, and the\nnumbers above show "
              "it. Strategy choice depends on the workload; measure.\n");
  std::printf("\nto do this with a real log:\n"
              "  ./build/tools/trace_tool import my_ops.txt --out my.trace\n"
              "  ./build/tools/origami_sim --trace-file my.trace\n");
  return 0;
}
