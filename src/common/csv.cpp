#include "origami/common/csv.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <thread>

namespace origami::common {

Cell::Cell(double v)
    : kind(std::isfinite(v) ? Kind::kLiteral : Kind::kNonFinite) {
  std::ostringstream os;
  os << std::setprecision(10) << v;
  text = os.str();
}

CsvWriter::CsvWriter(const std::string& path)
    : path_(path), out_(path, std::ios::trunc) {}

void CsvWriter::header(std::initializer_list<std::string_view> names) {
  columns_.assign(names.begin(), names.end());
  if (!out_.is_open()) return;
  const char* sep = "";
  for (auto name : names) {
    out_ << sep << escape(name);
    sep = ",";
  }
  out_ << '\n';
}

std::string CsvWriter::escape(std::string_view v) {
  if (v.find_first_of(",\"\n") == std::string_view::npos) return std::string(v);
  std::string out = "\"";
  for (char c : v) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

CsvWriter& CsvWriter::field(Cell v) {
  if (out_.is_open()) {
    if (!row_.empty()) out_ << ',';
    out_ << (v.kind == Cell::Kind::kString ? escape(v.text) : v.text);
  }
  row_.push_back(std::move(v));
  return *this;
}

void CsvWriter::endrow() {
  if (out_.is_open()) out_ << '\n';
  rows_.push_back(std::move(row_));
  row_.clear();
}

Status CsvWriter::close() {
  if (!out_.is_open()) return Status::ok();
  out_.close();
  if (out_.fail()) return Status::unavailable("cannot write " + path_);
  return Status::ok();
}

namespace {

void json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void json_member(std::ostream& os, std::string_view key, const Cell& value) {
  json_string(os, key);
  os << ": ";
  switch (value.kind) {
    case Cell::Kind::kString: json_string(os, value.text); break;
    case Cell::Kind::kLiteral: os << value.text; break;
    case Cell::Kind::kNonFinite: os << "null"; break;
  }
}

}  // namespace

Status write_report(const std::string& path, std::string_view bench,
                    const std::vector<std::pair<std::string, Cell>>& config,
                    const CsvWriter& results) {
  const std::vector<std::string>& columns = results.columns();
  for (const std::vector<Cell>& row : results.rows()) {
    if (row.size() != columns.size()) {
      return Status::internal("report " + path + ": a row has " +
                              std::to_string(row.size()) + " cells for " +
                              std::to_string(columns.size()) + " columns");
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return Status::unavailable("cannot open " + path);

  out << "{\n  ";
  json_member(out, "bench", Cell(bench));
  out << ",\n  \"config\": {";
  for (std::size_t i = 0; i < config.size(); ++i) {
    out << (i == 0 ? "" : ", ");
    json_member(out, config[i].first, config[i].second);
  }
  out << "},\n  \"host\": {";
  json_member(out, "cores",
              Cell(std::max(1u, std::thread::hardware_concurrency())));
  out << "},\n  \"results\": [";
  const auto& rows = results.rows();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out << (r == 0 ? "\n    {" : ",\n    {");
    for (std::size_t c = 0; c < columns.size(); ++c) {
      out << (c == 0 ? "" : ", ");
      json_member(out, columns[c], rows[r][c]);
    }
    out << '}';
  }
  out << "\n  ]\n}\n";
  out.close();
  if (out.fail()) return Status::unavailable("cannot write " + path);
  return Status::ok();
}

}  // namespace origami::common
