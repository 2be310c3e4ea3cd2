// Regenerates one family of byte-identity goldens in tests/support/:
//
//   cmake --build build --target tool_goldens
//   ./build/tools/goldens arrival     > tests/support/arrival_goldens.inc
//   ./build/tools/goldens fault-plane > tests/support/fault_plane_goldens.inc
//   ./build/tools/goldens live-policy > tests/support/live_policy_goldens.inc
//   ./build/tools/goldens epoch-policy > tests/support/epoch_policy_goldens.inc
//
// The families' configs live beside them in
// tests/support/<family>_golden_configs.hpp. Re-base a family only after an
// intentional change to its configs or to the behaviour it pins, and audit
// the diff.

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "origami/cluster/replay.hpp"
#include "origami/policy/registry.hpp"

#include "../tests/support/arrival_golden_configs.hpp"
#include "../tests/support/epoch_policy_golden_configs.hpp"
#include "../tests/support/fault_plane_golden_configs.hpp"
#include "../tests/support/fingerprints.hpp"
#include "../tests/support/live_policy_golden_configs.hpp"

namespace {

using namespace origami;

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void emit(const std::string& key, const std::string& fp) {
  std::printf("    {\"%s\",\n     \"%s\"},\n", key.c_str(), escape(fp).c_str());
}

void begin(const char* family, const char* inc, const char* type,
           const char* array) {
  std::printf("// Generated; regenerate with tools/goldens.cpp:\n");
  std::printf("//   ./build/tools/goldens %s > tests/support/%s\n", family,
              inc);
  std::printf("struct %s { const char* key; const char* fp; };\n", type);
  std::printf("constexpr %s %s[] = {\n", type, array);
}

void arrival() {
  begin("arrival", "arrival_goldens.inc", "Golden", "kGoldens");
  for (std::uint64_t seed : {1, 2, 3}) {
    const wl::Trace trace = testing::golden_trace(seed);
    for (const bool faulted : {false, true}) {
      for (const bool open : {false, true}) {
        const std::string tag = std::to_string(seed) +
                                (faulted ? "/faulted" : "/clean") +
                                (open ? "/open" : "/closed");
        {
          const auto opt = testing::golden_epoch_options(seed, faulted, open);
          policy::PolicyContext ctx;
          ctx.options = &opt;
          auto made = policy::Registry::builtin().make("greedy-spill", ctx);
          if (!made.is_ok()) {
            throw std::runtime_error(made.status().to_string());
          }
          emit("epoch/" + tag,
               testing::run_result_fingerprint(
                   cluster::replay_trace(trace, opt, *made.value())));
        }
        {
          const auto opt = testing::golden_live_options(seed, faulted, open);
          fs::OrigamiFs::Options fopt;
          fopt.shards = 4;
          fs::OrigamiFs fsys(fopt);
          emit("live/" + tag, testing::live_stats_fingerprint(
                                  fs::replay_on_live(trace, fsys, opt)));
        }
      }
    }
  }
}

void fault_plane() {
  begin("fault-plane", "fault_plane_goldens.inc", "FaultPlaneGolden",
        "kFaultPlaneGoldens");
  for (std::uint64_t seed : {1, 2, 3}) {
    const std::string s = std::to_string(seed);
    emit("epoch-kv-sync/" + s, testing::fault_plane_epoch_run(seed, false));
    emit("epoch-kv-async/" + s, testing::fault_plane_epoch_run(seed, true));
    emit("live-kv-async/" + s, testing::fault_plane_live_run(seed));
  }
}

void live_policy() {
  begin("live-policy", "live_policy_goldens.inc", "LivePolicyGolden",
        "kLivePolicyGoldens");
  for (const testing::LivePolicyGoldenSpec& p :
       testing::kLivePolicyGoldenSpecs) {
    for (std::uint64_t seed : {1, 2, 3}) {
      for (const bool faulted : {false, true}) {
        emit(std::string(p.key) + "/" + std::to_string(seed) +
                 (faulted ? "/faulted" : "/clean"),
             testing::live_policy_run(p.spec, seed, faulted));
      }
    }
  }
}

void epoch_policy() {
  begin("epoch-policy", "epoch_policy_goldens.inc", "EpochPolicyGolden",
        "kEpochPolicyGoldens");
  const core::TrainedModels& models = testing::epoch_policy_models();
  emit("model/benefit", testing::model_fingerprint(*models.benefit));
  emit("model/popularity", testing::model_fingerprint(*models.popularity));
  for (const testing::EpochPolicyGoldenSpec& p :
       testing::kEpochPolicyGoldenSpecs) {
    for (std::uint64_t seed : {1, 2, 3}) {
      for (const bool faulted : {false, true}) {
        emit(std::string(p.key) + "/" + std::to_string(seed) +
                 (faulted ? "/faulted" : "/clean"),
             testing::epoch_policy_run(p.spec, seed, faulted));
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string family = argc == 2 ? argv[1] : "";
  try {
    if (family == "arrival") {
      arrival();
    } else if (family == "fault-plane") {
      fault_plane();
    } else if (family == "live-policy") {
      live_policy();
    } else if (family == "epoch-policy") {
      epoch_policy();
    } else {
      std::fprintf(stderr,
                   "usage: %s arrival|fault-plane|live-policy|epoch-policy"
                   " > <family>.inc\n",
                   argv[0]);
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("};\n");
  return 0;
}
