// Fig. 5: incremental benefit over the single-buffer implementation of
//   (i)   overlapping computation and communication (pipelining only),
//   (ii)  + reducing the transferred data volume via prefetch addresses,
//   (iii) + laying data out for coalesced GPU accesses (full BigKernel).
//
// Paper shape: MasterCard and Word Count cannot reduce their transfer volume
// (100% of the data is read), so variant (ii) adds nothing for them; Opinion
// Finder's dominant computation also hides transfer reductions; the indexed
// MasterCard variant and Netflix benefit most from (ii).
#include <cstdio>

#include "common.hpp"

namespace {

using bigk::bench::Context;
using bigk::bench::ResultStore;
using bigk::schemes::RunMetrics;

void print_table(const Context& ctx, const ResultStore& results) {
  bigk::bench::print_header(
      "Fig. 5 - Incremental speedup over single-buffer implementation", ctx);
  std::printf("%-30s %10s %12s %12s %12s\n", "Application", "overlap",
              "+xfer-vol", "+coalescing", "(=BigKernel)");
  for (const auto& app : ctx.suite) {
    const RunMetrics& single = results.at(app.name + "/gpu-single");
    const RunMetrics& overlap = results.at(app.name + "/overlap");
    const RunMetrics& reduced = results.at(app.name + "/reduced");
    const RunMetrics& full = results.at(app.name + "/full");
    const double s1 = bigk::schemes::speedup(single, overlap);
    const double s2 = bigk::schemes::speedup(single, reduced);
    const double s3 = bigk::schemes::speedup(single, full);
    std::printf("%-30s %9.2fx %11.2fx %11.2fx %11.2fx\n", app.name.c_str(),
                s1, s2, s3, s3);
  }
  std::printf(
      "\nColumns are cumulative speedups vs single-buffer; the increments\n"
      "(overlap, xfer-volume reduction, memory coalescing) correspond to the\n"
      "stacked bars of the paper's Fig. 5.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bigk::bench::Harness harness("fig5_ablation", argc, argv);
  Context& ctx = harness.ctx;
  for (const auto& app : ctx.suite) {
    harness.add(
        app.name + "/gpu-single", [&ctx, &app] {
          return app.run(bigk::schemes::Scheme::kGpuSingleBuffer, ctx.config,
                         ctx.scheme_config);
        });
    struct Variant {
      const char* tag;
      bigk::core::Options options;
    };
    const Variant variants[] = {
        {"overlap", bigk::core::Options::overlap_only()},
        {"reduced", bigk::core::Options::with_transfer_reduction()},
        {"full", bigk::core::Options::full()},
    };
    for (const Variant& variant : variants) {
      harness.add(
          app.name + "/" + variant.tag,
          [&ctx, &app, options = variant.options] {
            bigk::schemes::SchemeConfig sc = ctx.scheme_config;
            bigk::core::Options merged = options;
            merged.num_blocks = sc.bigkernel.num_blocks;
            merged.compute_threads_per_block =
                sc.bigkernel.compute_threads_per_block;
            sc.bigkernel = merged;
            return app.run(bigk::schemes::Scheme::kBigKernel, ctx.config, sc);
          });
    }
  }
  if (!harness.run() || !harness.write_outputs()) return 1;
  print_table(ctx, harness.results);
  return 0;
}
