#pragma once

// The one output table of the bench binaries: each column is declared once
// and every row goes to stdout and to the CSV together.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"

namespace origami::bench {

/// A table written to "<bench>_<name>.csv" (bench::open_csv) and stdout.
class Table {
 public:
  struct Column {
    std::string_view name;  ///< the CSV header and stdout's column title
    int precision = 0;      ///< decimals stdout prints of a real
    int width = 0;          ///< stdout width, when wider than the title
  };

  /// One cell: the CSV text, and for a real the value stdout rounds.
  struct Value {
    template <typename T>
    Value(const T& v) : cell(v) {
      if constexpr (std::is_floating_point_v<T>) real = v;
    }
    common::Cell cell;
    std::optional<double> real;
  };

  /// Opens the CSV, exiting 1 when it cannot, and writes the header to it
  /// and to stdout.
  template <std::size_t N>
  Table(const std::string& bench, const std::string& name,
        const Column (&columns)[N])
      : csv_(open_csv(bench, name)), columns_(columns, columns + N) {
    header(std::make_index_sequence<N>{});
    for (std::size_t i = 0; i < N; ++i) {
      print(i, std::string(columns_[i].name));
    }
    std::printf("\n");
  }
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  /// Exits 1, naming the path, when a row did not land.
  ~Table() { close_csv(csv_); }

  /// Exits 1 on a row that does not fit the header.
  void row(const std::vector<Value>& values) {
    if (values.size() != columns_.size()) {
      std::fprintf(stderr, "error: %s: a row of %zu cells under %zu columns\n",
                   csv_.path().c_str(), values.size(), columns_.size());
      std::exit(1);
    }
    for (std::size_t i = 0; i < values.size(); ++i) {
      const Value& v = values[i];
      csv_.field(v.cell);
      if (v.real) {
        char text[64];
        std::snprintf(text, sizeof(text), "%.*f", columns_[i].precision,
                      *v.real);
        print(i, text);
      } else {
        print(i, v.cell.text);
      }
    }
    csv_.endrow();
    std::printf("\n");
  }

  /// The rows written so far, for bench::write_report.
  common::CsvWriter& csv() { return csv_; }

 private:
  template <std::size_t... I>
  void header(std::index_sequence<I...>) {
    csv_.header({columns_[I].name...});
  }

  void print(std::size_t column, const std::string& text) const {
    const Column& c = columns_[column];
    const int width = std::max(c.width, static_cast<int>(c.name.size()));
    // The first column names the row; the rest are right-aligned numbers.
    std::printf(column == 0 ? "%-*s" : "  %*s", width, text.c_str());
  }

  common::CsvWriter csv_;
  std::vector<Column> columns_;
};

}  // namespace origami::bench
