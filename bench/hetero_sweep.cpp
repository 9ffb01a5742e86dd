// bigkhetero ratio sweep: each application runs under the co-execution
// scheme at the single-side endpoints (CPU_ONLY = ratio 1.0, GPU_ONLY =
// ratio 0.0), a static ratio grid, and the dynamic balancer, all producing
// byte-identical results. The table reports the dynamic split's speedup over
// the *best single side* — the number that justifies co-execution: when the
// host cores contribute non-trivial throughput next to the pipelined GPU,
// splitting the chunk stream beats handing everything to either side.
//
// --cpu-ratio <r> narrows the static grid to that single ratio.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "hetero/options.hpp"

namespace {

using bigk::bench::Context;
using bigk::bench::ResultStore;
using bigk::schemes::RunMetrics;
using bigk::schemes::Scheme;

std::string ratio_tag(double ratio) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "static-%.2f", ratio);
  return buffer;
}

void print_table(const Context& ctx, const ResultStore& results,
                 const std::vector<double>& grid) {
  bigk::bench::print_header(
      "bigkhetero - CPU+GPU co-execution ratio sweep (time in sim ms)", ctx);
  std::printf("%-30s %10s %10s %12s %10s %8s %10s\n", "Application",
              "CPU-only", "GPU-only", "best-static", "dynamic", "dyn-r",
              "vs-best");
  double geo_gain = 0.0;
  double max_gain = 0.0;
  int apps = 0;
  int wins = 0;
  for (const auto& app : ctx.suite) {
    const RunMetrics& cpu_only = results.at(app.name + "/cpu-only");
    const RunMetrics& gpu_only = results.at(app.name + "/gpu-only");
    const RunMetrics& dynamic = results.at(app.name + "/dynamic");
    const RunMetrics* best_static = nullptr;
    double best_static_ratio = 0.0;
    for (double ratio : grid) {
      const RunMetrics& entry = results.at(app.name + "/" + ratio_tag(ratio));
      if (best_static == nullptr ||
          entry.total_time < best_static->total_time) {
        best_static = &entry;
        best_static_ratio = ratio;
      }
    }
    const double best_single = bigk::sim::to_milliseconds(
        std::min(cpu_only.total_time, gpu_only.total_time));
    const double dyn_ms = bigk::sim::to_milliseconds(dynamic.total_time);
    const double gain = best_single / dyn_ms;
    std::printf("%-30s %10.3f %10.3f %7.3f@%.2f %10.3f %8.2f %9.2fx\n",
                app.name.c_str(),
                bigk::sim::to_milliseconds(cpu_only.total_time),
                bigk::sim::to_milliseconds(gpu_only.total_time),
                bigk::sim::to_milliseconds(best_static->total_time),
                best_static_ratio, dyn_ms, dynamic.hetero.final_cpu_ratio,
                gain);
    geo_gain += std::log(gain);
    max_gain = std::max(max_gain, gain);
    if (gain > 1.0) ++wins;
    ++apps;
  }
  std::printf(
      "\ndynamic vs best single side: geomean %.2fx, max %.2fx, faster on "
      "%d/%d apps\n",
      std::exp(geo_gain / apps), max_gain, wins, apps);
}

}  // namespace

int main(int argc, char** argv) {
  bigk::bench::Harness harness("hetero_sweep", argc, argv);
  Context& ctx = harness.ctx;
  std::vector<double> grid = {0.25, 0.5, 0.75};
  if (harness.cpu_ratio_set()) grid = {harness.cpu_ratio()};
  for (const auto& app : ctx.suite) {
    const auto run_at = [&ctx, &app](double ratio, bool dynamic) {
      bigk::schemes::SchemeConfig sc = ctx.scheme_config;
      // Co-execution sizes the engine to half the host cores: every block
      // pins an assembly thread, so a full-width engine leaves the CPU side
      // no cores to contribute with (every endpoint below runs the same
      // engine, so the comparison stays apples-to-apples).
      sc.bigkernel.num_blocks =
          std::max<std::uint32_t>(1, ctx.config.cpu.cores / 2);
      sc.hetero.cpu_ratio = ratio;
      sc.hetero.dynamic = dynamic;
      return app.run(Scheme::kHetero, ctx.config, sc);
    };
    harness.add(
        app.name + "/cpu-only",
        [run_at] { return run_at(1.0, false); });
    harness.add(
        app.name + "/gpu-only",
        [run_at] { return run_at(0.0, false); });
    for (double ratio : grid) {
      harness.add(
          app.name + "/" + ratio_tag(ratio),
          [run_at, ratio] { return run_at(ratio, false); });
    }
    harness.add(
        app.name + "/dynamic",
        [run_at, &ctx] {
          return run_at(ctx.scheme_config.hetero.cpu_ratio, true);
        });
  }
  if (!harness.run() || !harness.write_outputs()) return 1;
  print_table(ctx, harness.results, grid);
  return 0;
}
