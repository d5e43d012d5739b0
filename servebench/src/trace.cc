#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "fixture.h"

namespace servebench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int> g_phase{0};
std::atomic<int64_t> g_next_span{0};
std::atomic<int64_t> g_next_request{0};

// Buffers are owned here so they outlive the threads that filled them.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<std::vector<SpanRecord>>> g_buffers;

struct ThreadState {
  std::vector<SpanRecord>* buffer = nullptr;
  std::vector<const SpanRecord*> open;  // Innermost last.
};

ThreadState& Local() {
  thread_local ThreadState state;
  if (state.buffer == nullptr) {
    auto buffer = std::make_unique<std::vector<SpanRecord>>();
    buffer->reserve(4096);
    state.buffer = buffer.get();
    const std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::move(buffer));
  }
  return state;
}

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Tracer::Enable(bool on) { g_enabled.store(on); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }
void Tracer::SetPhase(Phase phase) { g_phase.store(static_cast<int>(phase)); }
Phase Tracer::phase() { return static_cast<Phase>(g_phase.load()); }
int64_t Tracer::NewRequest() { return g_next_request.fetch_add(1); }

std::vector<SpanRecord> Tracer::Collect() {
  std::vector<SpanRecord> all;
  const std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return all;
}

bool Tracer::WriteTsv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\trequest\tphase\tname\tstart_us\tend_us\n");
  for (const SpanRecord& s : Collect()) {
    std::fprintf(f, "%lld\t%lld\t%lld\t%d\t%s\t%.3f\t%.3f\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), static_cast<int>(s.phase),
                 s.name, s.start_us, s.end_us);
  }
  return std::fclose(f) == 0;
}

Span::Span(const char* name, int64_t request) {
  if (!Tracer::enabled()) return;
  active_ = true;
  ThreadState& local = Local();
  record_.name = name;
  record_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  record_.phase = Tracer::phase();
  if (!local.open.empty()) {
    record_.parent = local.open.back()->id;
    record_.request = local.open.back()->request;
  } else {
    record_.request = request >= 0 ? request : Tracer::NewRequest();
  }
  local.open.push_back(&record_);
  record_.start_us = NowUs();
}

Span::~Span() {
  if (!active_) return;
  record_.end_us = NowUs();
  ThreadState& local = Local();
  local.open.pop_back();
  local.buffer->push_back(record_);
}

std::vector<LayerRow> SummarizeLayers(const std::vector<SpanRecord>& spans,
                                      Phase phase) {
  std::unordered_map<int64_t, const SpanRecord*> by_id;
  std::unordered_map<int64_t, double> child_us;
  for (const SpanRecord& s : spans) by_id[s.id] = &s;
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) child_us[s.parent] += s.duration_us();
  }
  struct Acc {
    std::vector<double> dur, self;
    double share_sum = 0.0;
  };
  std::map<std::string, Acc> acc;
  for (const SpanRecord& s : spans) {
    if (s.phase != phase) continue;
    const SpanRecord* root = &s;
    while (root->parent >= 0 && by_id.count(root->parent) > 0) {
      root = by_id[root->parent];
    }
    Acc& a = acc[s.name];
    const double self_us = s.duration_us() - child_us[s.id];
    a.dur.push_back(s.duration_us() / 1000.0);
    a.self.push_back(self_us / 1000.0);
    if (root->duration_us() > 0.0) {
      a.share_sum += s.duration_us() / root->duration_us();
    }
  }
  std::vector<LayerRow> rows;
  for (auto& [name, a] : acc) {
    LayerRow row;
    row.name = name;
    row.count = static_cast<int64_t>(a.dur.size());
    for (double v : a.self) row.total_self_ms += v;
    row.p50_ms = Quantile(a.dur, 0.5);
    row.p50_self_ms = Quantile(a.self, 0.5);
    row.mean_request_share = a.share_sum / static_cast<double>(row.count);
    rows.push_back(row);
  }
  return rows;
}

std::vector<double> DurationsMs(const std::vector<SpanRecord>& spans,
                                const char* name, Phase phase) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (s.phase == phase && std::strcmp(s.name, name) == 0) {
      out.push_back(s.duration_us() / 1000.0);
    }
  }
  return out;
}

}  // namespace servebench
