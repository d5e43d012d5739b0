#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each library layer (never inside the
// library). Each thread appends to its own buffer, so recording takes no lock
// after a thread's first span; buffers are merged once, after the clients
// have joined.

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

/// Which part of a run a span belongs to. Per-layer metrics prefer spans of
/// the workload's own measured phase and fall back to the census, a short
/// fixed probe of the layers the workload does not exercise.
enum class Phase : int { kSetup = 0, kWorkload = 1, kCensus = 2 };

struct SpanRecord {
  const char* name = nullptr;  // String literal; lives for the program.
  int64_t id = 0;
  int64_t parent = -1;   // -1 for a root span.
  int64_t request = -1;  // Shared by every span of one request.
  Phase phase = Phase::kSetup;
  double start_us = 0.0;
  double end_us = 0.0;
  double duration_us() const { return end_us - start_us; }
};

/// Global switch plus the merged record. Not thread-safe to toggle while
/// spans are open; the benchmark flips it only between phases.
class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();
  static void SetPhase(Phase phase);
  static Phase phase();
  /// Fresh request id for a root span.
  static int64_t NewRequest();
  /// Every span recorded so far, from all threads, sorted by id.
  static std::vector<SpanRecord> Collect();
  /// Writes all spans as tab-separated lines to `path`.
  static bool WriteTsv(const std::string& path);
};

/// RAII span: records [construction, destruction) under `name`, as a child of
/// the innermost open span on this thread. A root span takes `request`
/// (>= 0); children inherit their parent's request. No-op when tracing is off.
class Span {
 public:
  explicit Span(const char* name, int64_t request = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
};

/// Per-span-name aggregates over a set of spans.
struct LayerRow {
  std::string name;
  int64_t count = 0;
  double p50_ms = 0.0;       // Median span duration.
  double p50_self_ms = 0.0;  // Median duration minus time covered by children.
  double total_self_ms = 0.0;
  double mean_request_share = 0.0;  // Mean of duration / root duration.
};

/// Aggregates spans of `phase` by name; self time subtracts direct children.
std::vector<LayerRow> SummarizeLayers(const std::vector<SpanRecord>& spans,
                                      Phase phase);

/// Durations (ms) of spans named `name` in `phase`.
std::vector<double> DurationsMs(const std::vector<SpanRecord>& spans,
                                const char* name, Phase phase);

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
