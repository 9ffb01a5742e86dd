// Extension benchmark (beyond the paper): BigKernel vs UVM-style demand
// paging — the programming-model-equivalent alternative that later CUDA
// releases shipped. Both launch one kernel over the whole mapped stream;
// only the data-movement machinery differs.
//
// Expected shape: demand paging moves whole 4 KiB pages (no transfer
// reduction when accessed fields are scattered), stalls warps on faults
// (no overlap), and keeps the original layout (no coalescing) — so
// BigKernel wins on every workload, most dramatically on the
// low-read-ratio ones.
#include <cstdio>

#include "apps/dna.hpp"
#include "apps/kmeans.hpp"
#include "apps/mastercard.hpp"
#include "apps/netflix.hpp"
#include "apps/opinion.hpp"
#include "apps/wordcount.hpp"
#include "common.hpp"
#include "schemes/uvm.hpp"

namespace {

using bigk::bench::Context;
using bigk::bench::ResultStore;

void print_table(const Context& ctx, const ResultStore& results) {
  bigk::bench::print_header(
      "Extension - BigKernel vs UVM-style demand paging", ctx);
  std::printf("%-30s %12s %12s %9s %14s %14s\n", "Application", "UVM",
              "BigKernel", "speedup", "UVM h2d", "BigKernel h2d");
  for (const auto& app : ctx.suite) {
    const auto& uvm = results.at(app.name + "/uvm");
    const auto& big = results.at(app.name + "/bigkernel");
    std::printf("%-30s %9.2f ms %9.2f ms %8.2fx %11.1f MB %11.1f MB\n",
                app.name.c_str(), bigk::sim::to_milliseconds(uvm.total_time),
                bigk::sim::to_milliseconds(big.total_time),
                bigk::schemes::speedup(uvm, big),
                static_cast<double>(uvm.h2d_bytes) / 1e6,
                static_cast<double>(big.h2d_bytes) / 1e6);
  }
  std::printf(
      "\nBoth schemes offer the paper's programming model (one kernel over\n"
      "an arbitrarily large array); the pipeline is what BigKernel adds.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bigk::bench::Harness harness("uvm_comparison", argc, argv);
  Context& ctx = harness.ctx;
  for (const auto& app : ctx.suite) {
    harness.add(
        app.name + "/bigkernel", [&ctx, &app] {
          return app.run(bigk::schemes::Scheme::kBigKernel, ctx.config,
                         ctx.scheme_config);
        });
  }
  // UVM runs need the concrete app types, so each cell builds its app
  // directly instead of going through the suite's runner.
  auto add_uvm = [&harness, &ctx](const std::string& name, auto make_app) {
    harness.add(name + "/uvm", [&ctx, make_app] {
      auto app = make_app();
      return bigk::schemes::run_gpu_uvm(ctx.config, app, ctx.scheme_config);
    });
  };
  const auto& scaled = ctx.scaled;
  add_uvm("K-means", [scaled] {
    return bigk::apps::KmeansApp({scaled.data_bytes(6.0), 11});
  });
  add_uvm("Word Count", [scaled] {
    return bigk::apps::WordCountApp({scaled.data_bytes(4.5), 22});
  });
  add_uvm("Netflix", [scaled] {
    return bigk::apps::NetflixApp({scaled.data_bytes(6.0), 33});
  });
  add_uvm("Opinion Finder", [scaled] {
    return bigk::apps::OpinionApp({scaled.data_bytes(6.2), 44});
  });
  add_uvm("DNA Assembly", [scaled] {
    return bigk::apps::DnaApp({scaled.data_bytes(4.5), 55});
  });
  add_uvm("MasterCard Affinity", [scaled] {
    return bigk::apps::MastercardApp({scaled.data_bytes(6.4), 66});
  });
  add_uvm("MasterCard Affinity (indexed)", [scaled] {
    return bigk::apps::MastercardIndexedApp({scaled.data_bytes(6.4), 77});
  });

  if (!harness.run() || !harness.write_outputs()) return 1;
  print_table(ctx, harness.results);
  return 0;
}
