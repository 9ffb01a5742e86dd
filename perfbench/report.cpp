#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

namespace perfbench {

const char* clock_name(Clock clock) {
  switch (clock) {
    case Clock::kHost: return "host";
    case Clock::kSim: return "sim";
    case Clock::kNone: return "-";
  }
  return "?";
}

void Metrics::set(std::string_view name, double value, std::string_view unit,
                  Clock clock) {
  for (Metric& metric : list_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      metric.clock = clock;
      return;
    }
  }
  list_.push_back(Metric{std::string(name), value, std::string(unit), clock});
}

double Metrics::get(std::string_view name) const {
  for (const Metric& metric : list_) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

void Metrics::merge(const Metrics& other) {
  for (const Metric& metric : other.all()) {
    set(metric.name, metric.value, metric.unit, metric.clock);
  }
}

SpanLog::Scope::Scope(SpanLog* log, std::string name, std::string layer)
    : log_(log) {
  if (log_ == nullptr) return;
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.parent = log_->current();
  span.begin_s = now_s();
  id_ = static_cast<int>(log_->spans_.size());
  log_->spans_.push_back(std::move(span));
  log_->open_.push_back(id_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[static_cast<std::size_t>(id_)].end_s = now_s();
  log_->open_.pop_back();
}

int SpanLog::add_sim(std::string name, std::string layer, int parent,
                     std::uint64_t job, double begin_s, double end_s) {
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.clock = Clock::kSim;
  span.parent = parent;
  span.job = job;
  span.begin_s = begin_s;
  span.end_s = end_s;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::total(std::string_view prefix) const {
  double sum = 0.0;
  for (const Span& span : spans_) {
    if (span.name.compare(0, prefix.size(), prefix) == 0) {
      sum += span.end_s - span.begin_s;
    }
  }
  return sum;
}

void SpanLog::print_self_time(std::FILE* out) const {
  // Children of one parent never overlap (host spans nest on one thread;
  // a job's five phase spans partition it), so the covered part of a span
  // is the sum of its same-clock children.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    const Span& parent = spans_[static_cast<std::size_t>(span.parent)];
    if (parent.clock != span.clock) continue;
    child_time[static_cast<std::size_t>(span.parent)] +=
        span.end_s - span.begin_s;
  }
  struct Row {
    std::uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::pair<std::string, std::string>, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Row& row = rows[{clock_name(span.clock), span.layer}];
    const double duration = span.end_s - span.begin_s;
    ++row.count;
    row.total += duration;
    row.self += std::max(0.0, duration - child_time[i]);
  }
  std::fprintf(out, "self time by layer (self = span minus same-clock "
                    "children)\n");
  std::fprintf(out, "  %-5s %-22s %8s %14s %14s\n", "clock", "layer", "spans",
               "total_ms", "self_ms");
  for (const auto& [key, row] : rows) {
    std::fprintf(out, "  %-5s %-22s %8llu %14.3f %14.3f\n", key.first.c_str(),
                 key.second.c_str(), static_cast<unsigned long long>(row.count),
                 row.total * 1e3, row.self * 1e3);
  }
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Host spans go to pid 1, simulated-clock job spans to pid 2 (one
    // thread row per job), both in microseconds.
    const bool sim = span.clock == Clock::kSim;
    out << "{\"name\":\"" << span.name << "\",\"cat\":\"" << span.layer
        << "\",\"ph\":\"X\",\"pid\":" << (sim ? 2 : 1)
        << ",\"tid\":" << (sim ? span.job : 0)
        << ",\"ts\":" << span.begin_s * 1e6
        << ",\"dur\":" << (span.end_s - span.begin_s) * 1e6
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
        << ",\"clock\":\"" << clock_name(span.clock) << "\"}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    throw std::runtime_error("getrusage failed");
  }
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
