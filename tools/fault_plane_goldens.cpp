// Regenerates tests/support/fault_plane_goldens.inc.
//
// The committed constants pin the crash paths of both engines — storage
// crash, failover, restore and the journal roll-up — byte for byte, so a
// refactor of the fault plane must reproduce them exactly. Run this only
// to re-base the goldens after an intentional change to the configs in
// tests/support/fault_plane_golden_configs.hpp, and audit the diff:
//
//   cmake --build build --target tool_fault_plane_goldens
//   ./build/tools/fault_plane_goldens > tests/support/fault_plane_goldens.inc

#include <cstdio>
#include <string>

#include "../tests/support/fault_plane_golden_configs.hpp"

namespace {

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

}  // namespace

int main() {
  using namespace origami;
  std::printf("struct FaultPlaneGolden { const char* key; const char* fp; };\n");
  std::printf("constexpr FaultPlaneGolden kFaultPlaneGoldens[] = {\n");
  for (std::uint64_t seed : {1, 2, 3}) {
    const std::string s = std::to_string(seed);
    emit("epoch-kv-sync/" + s, testing::fault_plane_epoch_run(seed, false));
    emit("epoch-kv-async/" + s, testing::fault_plane_epoch_run(seed, true));
    emit("live-kv-async/" + s, testing::fault_plane_live_run(seed));
  }
  std::printf("};\n");
  return 0;
}
