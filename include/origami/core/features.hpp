#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "origami/core/subtree.hpp"
#include "origami/ml/dataset.hpp"

namespace origami::core {

/// Table 1's feature schema: namespace structure (depth, #sub-files,
/// #sub-dirs — normalised by the max value), metadata history (#read,
/// #write over the last epoch — normalised by total accesses), and the two
/// derived ratios (raw).
inline constexpr std::size_t kFeatureCount = 7;
inline constexpr std::array<const char*, kFeatureCount> kFeatureNames = {
    "depth",    "sub_files", "sub_dirs",      "reads",
    "writes",   "rw_ratio",  "dir_file_ratio"};

[[nodiscard]] std::vector<std::string> feature_name_vector();

/// One epoch's Table-1 normalisers: the largest depth, #sub-files and
/// #sub-dirs over its directories, and its total accesses (every op of the
/// epoch, counted once). Each is at least 1.
struct FeatureScale {
  double max_depth = 1.0;
  double max_sub_files = 1.0;
  double max_sub_dirs = 1.0;
  double total_access = 1.0;
};

/// Table 1's seven features of one subtree into `out` (size
/// kFeatureCount). Training (`FeatureExtractor`) and the live origami
/// policy both call it, so the model reads online the scale it learned.
void table1_features(double depth, double sub_files, double sub_dirs,
                     double reads, double writes, const FeatureScale& scale,
                     std::span<float> out);

/// Emits normalised Table-1 feature rows for subtree candidates of one
/// epoch. The normalising constants (max depth / max sub-counts / total
/// access) are taken from the same epoch, matching §4.3.
class FeatureExtractor {
 public:
  FeatureExtractor(const fsns::DirTree& tree, const SubtreeView& view);

  /// Fills `out` (size kFeatureCount) with the candidate's features.
  void extract(fsns::NodeId dir, std::span<float> out) const;

  [[nodiscard]] std::array<float, kFeatureCount> extract(fsns::NodeId dir) const {
    std::array<float, kFeatureCount> f{};
    extract(dir, f);
    return f;
  }

  /// Extracts one row per directory on the analysis pool. Row i belongs to
  /// dirs[i] — output order never depends on thread scheduling, so callers
  /// can append rows to a Dataset in candidate order deterministically.
  [[nodiscard]] std::vector<std::array<float, kFeatureCount>> extract_batch(
      std::span<const fsns::NodeId> dirs) const;

 private:
  const fsns::DirTree* tree_;
  const SubtreeView* view_;
  FeatureScale scale_;
};

}  // namespace origami::core
