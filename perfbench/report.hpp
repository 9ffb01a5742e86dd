// Metric tables, the benchmark's own span log, and small host-side helpers
// shared by the workload implementations.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Which clock a number is measured on. Host = wall time of this process;
/// sim = the modelled BigKernel system's time (deterministic per seed).
enum class Clock { kHost, kSim, kNone };

const char* clock_name(Clock clock);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Clock clock = Clock::kNone;
};

/// Insertion-ordered metric table; setting a name twice overwrites it.
class Metrics {
 public:
  void set(std::string_view name, double value, std::string_view unit,
           Clock clock);
  /// 0 when `name` was never set.
  double get(std::string_view name) const;
  const std::vector<Metric>& all() const noexcept { return list_; }
  void merge(const Metrics& other);

 private:
  std::vector<Metric> list_;
};

/// Spans the benchmark records around its own calls into the program (host
/// clock) and from serve job records (simulated clock). Kept in memory and
/// written once when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    /// src/ module the span's call enters ("apps", "schemes", "serve", ...).
    std::string layer;
    Clock clock = Clock::kHost;
    int parent = -1;
    /// Serve job id for simulated-clock job spans, else 0.
    std::uint64_t job = 0;
    double begin_s = 0.0;
    double end_s = 0.0;
  };

  /// RAII host-clock span; a null log makes it a no-op, so untimed call
  /// sites need no branches.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name, std::string layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const noexcept { return id_; }

   private:
    SpanLog* log_;
    int id_ = -1;
  };

  /// Adds a finished simulated-clock span and returns its id.
  int add_sim(std::string name, std::string layer, int parent,
              std::uint64_t job, double begin_s, double end_s);

  /// Sum of durations of spans whose name starts with `prefix`.
  double total(std::string_view prefix) const;
  std::size_t size() const noexcept { return spans_.size(); }

  /// Per (clock, layer): span count, total time and self time (duration
  /// minus the time its same-clock children cover).
  void print_self_time(std::FILE* out) const;
  /// Chrome-tracing style JSON array of every span.
  bool write_json(const std::string& path) const;

 private:
  /// The innermost open host span (-1 when none).
  int current() const noexcept { return open_.empty() ? -1 : open_.back(); }

  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Seconds on the host's monotonic clock.
double now_s();
/// Peak resident set size of this process, in MB (1 MB = 10^6 bytes).
double peak_rss_mb();
double median(std::vector<double> values);
/// Independent stream `stream` of the workload seed (splitmix64), so every
/// generated input derives from the one --seed argument.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
