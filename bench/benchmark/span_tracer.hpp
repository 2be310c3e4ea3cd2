#pragma once

// In-memory span recorder for the benchmark's traced run. Spans are opened
// and closed around calls into the simulator's public functions (never
// inside them), kept in memory while the run executes, and written once at
// exit as Chrome trace-event JSON (open in Perfetto or chrome://tracing).
//
// All spans are recorded from one thread: the DES loop, the live issuer and
// the benchmark's own loop are the same thread, so a plain stack gives every
// span its parent.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

namespace origami::bench {

class SpanTracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int id = 0;
    int parent = -1;  ///< -1 for a root span
    int run = 0;      ///< which benchmark phase recorded it (see set_run)
    [[nodiscard]] double seconds() const {
      return static_cast<double>(end_ns - start_ns) * 1e-9;
    }
  };

  explicit SpanTracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_run(int run) noexcept { run_ = run; }

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// disabled, which `end` ignores).
  int begin(std::string name) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now_ns(), 0, id,
                      stack_.empty() ? -1 : stack_.back(), run_});
    stack_.push_back(id);
    return id;
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  /// A zero-length span marking an event (epoch boundary, fault, ...).
  void instant(std::string name) {
    const int id = begin(std::move(name));
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = s.start_ns;
    stack_.pop_back();
  }

  /// Spans named `name` recorded during `run`, in start order.
  [[nodiscard]] std::vector<const Span*> find(const std::string& name,
                                              int run) const {
    std::vector<const Span*> out;
    for (const Span& s : spans_) {
      if (s.run == run && s.name == name) out.push_back(&s);
    }
    return out;
  }
  [[nodiscard]] double total_s(const std::string& name, int run) const {
    double sum = 0.0;
    for (const Span* s : find(name, run)) sum += s->seconds();
    return sum;
  }
  /// Summed self time of the spans named `name` in `run`: each span's
  /// duration minus the part of it its children cover. Children of one
  /// span never overlap (single recording thread), so that part is the
  /// sum of their durations.
  [[nodiscard]] double self_s(const std::string& name, int run) const {
    std::unordered_map<int, double> child_s;
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_s[s.parent] += s.seconds();
    }
    double sum = 0.0;
    for (const Span* s : find(name, run)) sum += s->seconds() - child_s[s->id];
    return sum;
  }

  /// Writes every span as a Chrome "complete" event (zero-length spans as
  /// instant events). Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts_us = static_cast<double>(s.start_ns - origin) * 1e-3;
      const double dur_us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
      std::fprintf(out, "  {\"name\": \"%s\", \"pid\": 1, \"tid\": %d, ",
                   s.name.c_str(), s.run);
      if (s.end_ns == s.start_ns) {
        std::fprintf(out, "\"ph\": \"i\", \"s\": \"t\", \"ts\": %.3f, ", ts_us);
      } else {
        std::fprintf(out, "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, ", ts_us,
                     dur_us);
      }
      std::fprintf(out,
                   "\"args\": {\"id\": %d, \"parent\": %d, \"run\": %d}}%s\n",
                   s.id, s.parent, s.run, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.begin(std::move(name))) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTracer& tracer_;
  int id_;
};

}  // namespace origami::bench
