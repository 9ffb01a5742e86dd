// Shared by the serving-layer benches: a ServeReport as one cell result.
#pragma once

#include "schemes/metrics.hpp"
#include "serve/server.hpp"

namespace bigk::bench {

/// The pool-wide totals of a serve run: makespan as the cell's simulated
/// time, plus PCIe bytes and kernel launches summed over every device.
inline schemes::RunMetrics to_run_metrics(const serve::ServeReport& report) {
  schemes::RunMetrics metrics;
  metrics.scheme = schemes::Scheme::kBigKernel;
  metrics.total_time = report.makespan;
  for (const serve::DeviceReport& dev : report.devices) {
    metrics.h2d_bytes += dev.h2d_bytes;
    metrics.d2h_bytes += dev.d2h_bytes;
    metrics.kernel_launches += dev.kernel_launches;
  }
  return metrics;
}

}  // namespace bigk::bench
