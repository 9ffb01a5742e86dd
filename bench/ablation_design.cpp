// Design-choice ablations beyond the paper's figures, for the decisions
// DESIGN.md calls out:
//   * multi-buffering depth (the ring of buffer instances per block; the
//     paper requires >= 2 and its n-3 synchronization implies 3),
//   * number of thread blocks under the §IV.D rule that buffers are
//     allocated for *active* blocks only (fewer blocks => larger buffers =>
//     fewer synchronization points, but less CPU-side parallelism),
//   * locality-aware assembly order (§IV.B).
#include <cstdio>

#include "common.hpp"

namespace {

using bigk::bench::Context;
using bigk::bench::ResultStore;

void print_tables(const Context& ctx, const ResultStore& results) {
  bigk::bench::print_header(
      "Design ablations: buffer depth / active blocks / assembly locality",
      ctx);

  std::printf("%-30s", "Buffer ring depth:");
  for (std::uint32_t depth : {2u, 3u, 4u, 6u}) {
    std::printf("   depth=%u", depth);
  }
  std::printf("\n");
  for (const auto& app : ctx.suite) {
    std::printf("%-30s", app.name.c_str());
    for (std::uint32_t depth : {2u, 3u, 4u, 6u}) {
      const auto& metrics =
          results.at(app.name + "/depth" + std::to_string(depth));
      std::printf(" %7.2fms", bigk::sim::to_milliseconds(metrics.total_time));
    }
    std::printf("\n");
  }

  std::printf("\n%-30s", "Active thread blocks (IV.D):");
  for (std::uint32_t blocks : {4u, 8u, 16u, 32u}) {
    std::printf("  blocks=%-2u", blocks);
  }
  std::printf("\n");
  for (const auto& app : ctx.suite) {
    std::printf("%-30s", app.name.c_str());
    for (std::uint32_t blocks : {4u, 8u, 16u, 32u}) {
      const auto& metrics =
          results.at(app.name + "/blocks" + std::to_string(blocks));
      std::printf(" %7.2fms", bigk::sim::to_milliseconds(metrics.total_time));
    }
    std::printf("\n");
  }

  std::printf("\n%-30s %14s %14s %8s\n", "Assembly locality (IV.B):",
              "locality on", "locality off", "gain");
  for (const auto& app : ctx.suite) {
    const auto& on = results.at(app.name + "/loc-on");
    const auto& off = results.at(app.name + "/loc-off");
    std::printf("%-30s %11.2f ms %11.2f ms %7.2fx\n", app.name.c_str(),
                bigk::sim::to_milliseconds(on.total_time),
                bigk::sim::to_milliseconds(off.total_time),
                bigk::schemes::speedup(off, on));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bigk::bench::Harness harness("ablation_design", argc, argv);
  Context& ctx = harness.ctx;
  for (const auto& app : ctx.suite) {
    for (std::uint32_t depth : {2u, 3u, 4u, 6u}) {
      harness.add(
          app.name + "/depth" + std::to_string(depth),
          [&ctx, &app, depth] {
            bigk::schemes::SchemeConfig sc = ctx.scheme_config;
            sc.bigkernel.buffer_depth = depth;
            return app.run(bigk::schemes::Scheme::kBigKernel, ctx.config, sc);
          });
    }
    for (std::uint32_t blocks : {4u, 8u, 16u, 32u}) {
      harness.add(
          app.name + "/blocks" + std::to_string(blocks),
          [&ctx, &app, blocks] {
            bigk::schemes::SchemeConfig sc = ctx.scheme_config;
            sc.bigkernel.num_blocks = blocks;
            return app.run(bigk::schemes::Scheme::kBigKernel, ctx.config, sc);
          });
    }
    for (bool locality : {true, false}) {
      harness.add(
          app.name + (locality ? "/loc-on" : "/loc-off"),
          [&ctx, &app, locality] {
            bigk::schemes::SchemeConfig sc = ctx.scheme_config;
            sc.bigkernel.locality_assembly = locality;
            return app.run(bigk::schemes::Scheme::kBigKernel, ctx.config, sc);
          });
    }
  }
  if (!harness.run() || !harness.write_outputs()) return 1;
  print_tables(ctx, harness.results);
  return 0;
}
