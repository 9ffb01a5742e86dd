// Repository benchmark binary: runs one named workload in this process and
// prints every metric with its unit and clock, then one JSON result line.
//
//   bigk_perfbench --workload <paper-suite|serve-open|serve-reuse>
//                  --seed <n> --seconds <s> --trace <0|1> [--trace-out <f>]
//
// --trace 0 measures the end-to-end metrics with no tracer and no metrics
// registry attached: set-up is timed in several samples of a fixed number
// of set-ups each (median sample reported), then whole iterations repeat
// for --seconds (median host time reported).
// --trace 1 runs one untraced and one traced iteration and reports the
// per-layer metrics, a self-time table and the tracing overhead.
//
// Exit status: 0 when every output passed the correctness gate, 1 when one
// failed (the result line then says "correct": false), 2 on bad arguments
// or an error before any result.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

// setup_s is the median of kSetupSamples samples; each sample times a
// fixed, per-workload number of back-to-back set-ups as one sum.
constexpr std::size_t kSetupSamples = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: bigk_perfbench --workload "
               "<paper-suite|serve-open|serve-reuse> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n",
               message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') {
        usage("--seed needs a non-negative integer");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) {
        usage("--seconds needs a positive number");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace needs 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

struct WorkloadEntry {
  std::unique_ptr<Workload> (*make)(std::uint64_t seed);
  /// Set-ups per setup_s sample: enough that one sample takes about 0.2 s
  /// (a paper-suite set-up takes ~0.1 s, a serve set-up a few ms).
  std::size_t setups_per_sample;
};

const WorkloadEntry& find_workload(const std::string& name) {
  static const std::map<std::string, WorkloadEntry> entries = {
      {"paper-suite", {&make_paper_suite, 2}},
      {"serve-open", {&make_serve_open, 50}},
      {"serve-reuse", {&make_serve_reuse, 100}},
  };
  const auto it = entries.find(name);
  if (it == entries.end()) usage(("unknown workload " + name).c_str());
  return it->second;
}

/// Failures summed over every iteration of the run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(const Outcome& outcome) {
    attempted += outcome.attempted;
    failed += outcome.failed;
    for (const std::string& e : outcome.errors) {
      if (errors.size() < 16) errors.push_back(e);
    }
  }
  void fail(std::string message) {
    ++failed;
    errors.push_back(std::move(message));
  }
};

/// The simulation is deterministic: a second iteration, or a traced one,
/// must reproduce every simulated-clock number bit for bit.
void expect_same_sim(const Outcome& a, const Outcome& b, const char* what,
                     Tally& tally) {
  const auto& x = a.sim.all();
  const auto& y = b.sim.all();
  bool same = x.size() == y.size() && a.sim_pcie_mb == b.sim_pcie_mb;
  for (std::size_t i = 0; same && i < x.size(); ++i) {
    same = x[i].name == y[i].name && x[i].value == y[i].value;
  }
  if (!same) tally.fail(std::string("simulated metrics differ ") + what);
}

void print_metric(const Metric& m) {
  std::printf("  [%-4s] %-36s %.17g %s\n", clock_name(m.clock),
              m.name.c_str(), m.value, m.unit.c_str());
}

/// The result line carries every metric the run set; run.py checks the
/// names and units against BENCHMARK.json.
void print_result(const Tally& tally, const Metrics& values) {
  for (const std::string& e : tally.errors) {
    std::printf("correctness failure: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  const char* separator = "";
  for (const Metric& m : values.all()) {
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("non-finite value for " + m.name);
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                separator, m.name.c_str(), m.value, m.unit.c_str());
    separator = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Args& args) {
  const WorkloadEntry& entry = find_workload(args.workload);
  SpanLog spans;
  SpanLog* span_log = args.trace ? &spans : nullptr;

  std::unique_ptr<Workload> workload;
  std::vector<double> setup_samples;
  const double setup_start = now_s();
  for (std::size_t sample = 0; sample < kSetupSamples; ++sample) {
    const double begin = now_s();
    for (std::size_t i = 0; i < entry.setups_per_sample; ++i) {
      workload.reset();  // never hold two set-ups at once (peak RSS)
      workload = entry.make(args.seed);
      workload->setup(nullptr);
    }
    setup_samples.push_back((now_s() - begin) /
                            static_cast<double>(entry.setups_per_sample));
  }
  const double setup_total = now_s() - setup_start;
  // The traced run records the set-up spans on one more, untimed set-up.
  if (span_log != nullptr) {
    workload.reset();
    workload = entry.make(args.seed);
    workload->setup(span_log);
  }

  Tally tally;
  if (!args.trace) {
    std::vector<double> iteration_s;
    Outcome first;
    const double start = now_s();
    do {
      const double begin = now_s();
      Outcome outcome = workload->run(nullptr, nullptr);
      iteration_s.push_back(now_s() - begin);
      tally.add(outcome);
      if (iteration_s.size() == 1) {
        first = std::move(outcome);
      } else {
        expect_same_sim(first, outcome, "between iterations", tally);
      }
      // Start another iteration only if it should end inside the window.
    } while (now_s() - start + median(iteration_s) <= args.seconds);

    const double host_s = median(iteration_s);
    Metrics e2e;
    e2e.set("setup_s", median(setup_samples), "s", Clock::kHost);
    e2e.set("host_s", host_s, "s", Clock::kHost);
    e2e.set("sim_mb_per_host_s", first.sim_pcie_mb / host_s, "MB/s",
            Clock::kHost);
    e2e.set("peak_rss_mb", peak_rss_mb(), "MB", Clock::kHost);
    e2e.set("sim_bigkernel_ms", first.sim.get("sim_bigkernel_ms"), "ms",
            Clock::kSim);

    workload->print_outcome(first);
    std::printf("%zu iteration(s) in %.3f s; %zu x %zu set-ups in %.3f s\n",
                iteration_s.size(), now_s() - start, kSetupSamples,
                entry.setups_per_sample, setup_total);
    for (std::size_t i = 0; i < iteration_s.size(); ++i) {
      std::printf("  iteration %zu: %.4f s\n", i + 1, iteration_s[i]);
    }
    std::printf("end-to-end metrics:\n");
    for (const Metric& m : e2e.all()) print_metric(m);
    std::printf("simulated-clock and count metrics (identical for a seed):\n");
    for (const Metric& m : first.sim.all()) print_metric(m);
    std::printf("  [-   ] %-36s %.17g ratio\n", "failed_share",
                static_cast<double>(tally.failed) /
                    static_cast<double>(std::max<std::uint64_t>(
                        tally.attempted, 1)));
    print_result(tally, e2e);
    return tally.failed == 0 ? 0 : 1;
  }

  // Traced run: an untraced iteration as the overhead baseline, then the
  // same iteration with the tracer, metrics registry and span log attached.
  double begin = now_s();
  const Outcome plain = workload->run(nullptr, nullptr);
  const double plain_s = now_s() - begin;
  Telemetry telemetry;
  Outcome traced;
  {
    SpanLog::Scope span(span_log, "iteration", "bench");
    begin = now_s();
    traced = workload->run(&telemetry, span_log);
  }
  const double traced_s = now_s() - begin;
  tally.add(plain);
  tally.add(traced);
  expect_same_sim(plain, traced, "with tracing attached", tally);

  Metrics layers;
  layers.merge(traced.sim);
  layers.merge(traced.layers);
  const auto counter = [&](const char* name) {
    const auto* c = telemetry.registry.find_counter(name);
    return c == nullptr ? 0.0 : static_cast<double>(c->value());
  };
  const double hits = counter("hostsim.cache_hits");
  const double accesses = hits + counter("hostsim.cache_misses");
  layers.set("hostsim.accesses", accesses, "count", Clock::kSim);
  layers.set("hostsim.hit_ratio", accesses > 0 ? hits / accesses : 0.0,
             "ratio", Clock::kSim);
  layers.set("gpusim.h2d_mb", counter("gpusim.h2d_bytes") / 1e6, "MB",
             Clock::kSim);
  layers.set("gpusim.d2h_mb", counter("gpusim.d2h_bytes") / 1e6, "MB",
             Clock::kSim);
  layers.set("gpusim.kernel_launches", counter("gpusim.kernel_launches"),
             "count", Clock::kSim);
  layers.set("apps.dataset_gen_s", spans.total("apps.dataset_gen/"), "s",
             Clock::kHost);
  layers.set("verify.static_s", spans.total("verify."), "s", Clock::kHost);
  layers.set("load.make_load_s", spans.total("load.make_load/"), "s",
             Clock::kHost);
  layers.set("obs.trace_overhead_pct", (traced_s / plain_s - 1.0) * 100.0,
             "%", Clock::kHost);
  layers.set("obs.spans", static_cast<double>(telemetry.tracer_spans),
             "count", Clock::kNone);
  layers.set("failed_share",
             static_cast<double>(tally.failed) /
                 static_cast<double>(std::max<std::uint64_t>(tally.attempted,
                                                             1)),
             "ratio", Clock::kNone);

  workload->print_outcome(traced);
  std::printf("untraced iteration %.3f s, traced %.3f s; %zu benchmark "
              "spans, %llu tracer spans\n",
              plain_s, traced_s, spans.size(),
              static_cast<unsigned long long>(telemetry.tracer_spans));
  spans.print_self_time(stdout);
  if (!args.trace_out.empty()) {
    if (!spans.write_json(args.trace_out)) {
      throw std::runtime_error("cannot write " + args.trace_out);
    }
    std::printf("spans written to %s\n", args.trace_out.c_str());
  }
  std::printf("per-layer metrics:\n");
  for (const Metric& m : layers.all()) print_metric(m);
  print_result(tally, layers);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
