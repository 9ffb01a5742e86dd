// The benchmark's workload interface. A workload drives the simulator only
// through its public calls (apps, schemes::run_scheme, apps::static_verdict,
// load::make_load, serve::run_server) and times them from these files.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/tracer.hpp"
#include "report.hpp"

namespace perfbench {

/// Program-side telemetry attached to a traced iteration only; untraced
/// iterations attach nothing.
struct Telemetry {
  bigk::obs::Tracer tracer;
  bigk::obs::MetricsRegistry registry;
  /// Spans the tracer recorded; it is cleared after every call so a long
  /// run does not hold every span in memory.
  std::uint64_t tracer_spans = 0;

  void drain() {
    tracer_spans += tracer.spans().size();
    tracer.clear();
  }
};

/// What one timed iteration produced.
struct Outcome {
  /// Operations attempted (scheme cells or submitted jobs) and those that
  /// failed the correctness gate or were refused.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The first few correctness failures, for the log.
  std::vector<std::string> errors;
  /// Simulated PCIe traffic (h2d + d2h) of the iteration, in MB.
  double sim_pcie_mb = 0.0;
  /// Simulated-clock and deterministic-count metrics; must repeat exactly
  /// for a given seed, traced or not.
  Metrics sim;
  /// Host-clock and telemetry-derived metrics (traced iterations only).
  Metrics layers;

  void fail(std::string message, std::uint64_t count = 1) {
    failed += count;
    if (errors.size() < 8) errors.push_back(std::move(message));
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything before the timed phase: suite build, dataset generation,
  /// static verification and load-plan generation.
  virtual void setup(SpanLog* spans) = 0;

  /// One timed iteration. `telemetry` and `spans` are null when untraced.
  virtual Outcome run(Telemetry* telemetry, SpanLog* spans) = 0;

  /// Prints the workload's outcome lines (reference values, sample counts).
  virtual void print_outcome(const Outcome& outcome) const = 0;
};

std::unique_ptr<Workload> make_paper_suite(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_open(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_reuse(std::uint64_t seed);

}  // namespace perfbench
