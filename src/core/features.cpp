#include "origami/core/features.hpp"

#include <algorithm>

#include "origami/common/thread_pool.hpp"

namespace origami::core {

std::vector<std::string> feature_name_vector() {
  return {kFeatureNames.begin(), kFeatureNames.end()};
}

void table1_features(double depth, double sub_files, double sub_dirs,
                     double reads, double writes, const FeatureScale& scale,
                     std::span<float> out) {
  out[0] = static_cast<float>(depth / scale.max_depth);
  out[1] = static_cast<float>(sub_files / scale.max_sub_files);
  out[2] = static_cast<float>(sub_dirs / scale.max_sub_dirs);
  out[3] = static_cast<float>(reads / scale.total_access);
  out[4] = static_cast<float>(writes / scale.total_access);
  out[5] = static_cast<float>(writes / std::max(1.0, reads + writes));
  out[6] = static_cast<float>((sub_dirs + 1.0) / (sub_files + 1.0));
}

FeatureExtractor::FeatureExtractor(const fsns::DirTree& tree,
                                   const SubtreeView& view)
    : tree_(&tree), view_(&view) {
  const std::vector<fsns::NodeId> dirs = tree.directories();

  // Per-chunk partial maxima merged in chunk order. Chunk boundaries depend
  // only on the directory count, and max over doubles is order-independent,
  // so the normalising constants are bit-identical at any thread count.
  struct Maxes {
    double depth = 0.0;
    double files = 0.0;
    double sub_dirs = 0.0;
  };
  constexpr std::size_t kGrain = 2048;
  const std::size_t chunks = common::chunk_count(dirs.size(), kGrain);
  std::vector<Maxes> parts(std::max<std::size_t>(1, chunks));
  common::parallel_for_chunks(
      common::analysis_pool(), dirs.size(), kGrain,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        Maxes m;
        for (std::size_t i = begin; i < end; ++i) {
          const fsns::NodeId d = dirs[i];
          m.depth = std::max(m.depth, static_cast<double>(tree.depth(d)));
          m.files = std::max(m.files, static_cast<double>(view.sub_files(d)));
          m.sub_dirs =
              std::max(m.sub_dirs, static_cast<double>(view.sub_dirs(d)));
        }
        parts[chunk] = m;
      });
  for (const Maxes& m : parts) {
    scale_.max_depth = std::max(scale_.max_depth, m.depth);
    scale_.max_sub_files = std::max(scale_.max_sub_files, m.files);
    scale_.max_sub_dirs = std::max(scale_.max_sub_dirs, m.sub_dirs);
  }
  scale_.total_access = std::max(1.0, static_cast<double>(view.total_ops()));
}

void FeatureExtractor::extract(fsns::NodeId dir, std::span<float> out) const {
  table1_features(static_cast<double>(tree_->depth(dir)),
                  static_cast<double>(view_->sub_files(dir)),
                  static_cast<double>(view_->sub_dirs(dir)),
                  static_cast<double>(view_->reads(dir)),
                  static_cast<double>(view_->writes(dir)), scale_, out);
}

std::vector<std::array<float, kFeatureCount>> FeatureExtractor::extract_batch(
    std::span<const fsns::NodeId> dirs) const {
  std::vector<std::array<float, kFeatureCount>> rows(dirs.size());
  common::parallel_for(
      common::analysis_pool(), dirs.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          extract(dirs[i], rows[i]);
        }
      },
      /*min_chunk=*/256);
  return rows;
}

}  // namespace origami::core
