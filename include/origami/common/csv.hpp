#pragma once

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "origami/common/status.hpp"

namespace origami::common {

/// One formatted value of a CSV row or a report's config: the text the CSV
/// prints, and how JSON renders it. Doubles print at `setprecision(10)`.
struct Cell {
  enum class Kind {
    kString,     ///< JSON quotes and escapes the text
    kLiteral,    ///< a finite number or a bool; JSON prints the text as is
    kNonFinite,  ///< a NaN or infinite double; JSON prints null
  };

  Cell(std::string_view v) : kind(Kind::kString), text(v) {}
  Cell(const char* v) : Cell(std::string_view(v)) {}
  Cell(const std::string& v) : Cell(std::string_view(v)) {}
  Cell(double v);
  Cell(std::int64_t v) : kind(Kind::kLiteral), text(std::to_string(v)) {}
  Cell(std::uint64_t v) : kind(Kind::kLiteral), text(std::to_string(v)) {}
  Cell(int v) : Cell(static_cast<std::int64_t>(v)) {}
  Cell(unsigned v) : Cell(static_cast<std::uint64_t>(v)) {}
  Cell(bool v) : kind(Kind::kLiteral), text(v ? "true" : "false") {}

  Kind kind;
  std::string text;
};

/// Minimal CSV writer used by the benchmark harnesses to persist the series
/// behind every reproduced figure/table. Fields containing commas, quotes or
/// newlines are quoted per RFC 4180. The writer also keeps every cell it
/// formats, so a bench can publish the same rows as a JSON report.
class CsvWriter {
 public:
  /// Keeps the rows in memory only, for a report with no CSV beside it.
  CsvWriter() = default;
  /// Also writes each row to `path` (truncated). Check `is_open()` before
  /// use.
  explicit CsvWriter(const std::string& path);

  [[nodiscard]] bool is_open() const { return out_.is_open(); }
  [[nodiscard]] const std::string& path() const { return path_; }

  void header(std::initializer_list<std::string_view> names);

  CsvWriter& field(Cell v);

  /// Terminates the current row.
  void endrow();

  /// Flushes and closes the file. Fails, naming the path, when any write to
  /// it failed.
  Status close();

  [[nodiscard]] const std::vector<std::string>& columns() const {
    return columns_;
  }
  [[nodiscard]] const std::vector<std::vector<Cell>>& rows() const {
    return rows_;
  }

 private:
  static std::string escape(std::string_view v);

  std::string path_;
  std::ofstream out_;
  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
  std::vector<Cell> row_;
};

/// Writes a bench report to `path` as one JSON object with four keys:
/// "bench"; "config", one member per entry; "host", the core count; and
/// "results", one object per row of `results` keyed by its header. Every
/// value is the text the CSV prints, quoted when it is a string; a
/// non-finite number becomes null. Fails, naming `path`, when the file
/// cannot be written or a row's width differs from the header's.
Status write_report(const std::string& path, std::string_view bench,
                    const std::vector<std::pair<std::string, Cell>>& config,
                    const CsvWriter& results);

}  // namespace origami::common
