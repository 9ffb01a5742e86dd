// paper-suite: the paper's Fig. 4a set as an offline batch. Each of the 7
// registry apps is generated once from the workload seed and run under all
// six schemes: 42 independent simulations, each checked against the
// CPU-serial digest of the same instance.
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/dna.hpp"
#include "apps/kmeans.hpp"
#include "apps/mastercard.hpp"
#include "apps/netflix.hpp"
#include "apps/opinion.hpp"
#include "apps/registry.hpp"
#include "apps/wordcount.hpp"
#include "obs/stage.hpp"
#include "schemes/runners.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace apps = bigk::apps;
namespace schemes = bigk::schemes;
namespace obs = bigk::obs;
using schemes::RunMetrics;
using schemes::Scheme;

// Paper sizes x 0.001: 2-6 MB inputs against a 2 MB GPU, so every app is
// out of core as in the paper; ~10 host s per iteration on a 4-core box.
constexpr double kScale = 0.001;

// Fig. 4a averages (BigKernel over single / double buffering).
constexpr double kPaperVsSingle = 2.6;
constexpr double kPaperVsDouble = 1.7;

constexpr std::size_t kSchemes = schemes::all_schemes().size();
constexpr const char* kStageKeys[obs::kStageCount] = {
    "addr_gen", "assembly", "transfer", "compute", "writeback"};

double ps_to_ms(bigk::sim::DurationPs ps) {
  return static_cast<double>(ps) / 1e9;
}

/// One generated app instance, type-erased so all six schemes run on the
/// same dataset through schemes::run_scheme.
struct Instance {
  std::string name;
  std::function<RunMetrics(Scheme, const schemes::SchemeConfig&)> run;
  std::function<std::uint64_t()> digest;
};

class PaperSuite final : public Workload {
 public:
  explicit PaperSuite(std::uint64_t seed) : seed_(seed) {
    scaled_.scale = kScale;
    config_ = scaled_.config();
    // The bench harness's geometry; checking is off whatever BIGK_CHECK says.
    sc_.gpu_blocks = 32;
    sc_.gpu_threads_per_block = 256;
    sc_.bigkernel.num_blocks = 8;
    sc_.bigkernel.compute_threads_per_block = 128;
    sc_.check = bigk::check::CheckOptions{};
  }
  PaperSuite(const PaperSuite&) = delete;
  PaperSuite& operator=(const PaperSuite&) = delete;

  void setup(SpanLog* spans) override {
    {
      SpanLog::Scope span(spans, "apps.benchmark_apps", "apps");
      suite_ = apps::benchmark_apps(scaled_);
    }
    add<apps::KmeansApp>(spans);
    add<apps::WordCountApp>(spans);
    add<apps::NetflixApp>(spans);
    add<apps::OpinionApp>(spans);
    add<apps::DnaApp>(spans);
    add<apps::MastercardApp>(spans);
    add<apps::MastercardIndexedApp>(spans);
    for (std::size_t i = 0; i < suite_.size(); ++i) {
      if (i >= instances_.size() || suite_[i].name != instances_[i].name) {
        throw std::logic_error("paper-suite app list diverged from the "
                               "registry at " + suite_[i].name);
      }
      SpanLog::Scope span(spans, "verify.static_verdict/" + suite_[i].name,
                          "verify");
      const bigk::verify::KernelReport& report =
          apps::static_verdict(suite_[i]);
      if (!report.passed) {
        throw std::runtime_error("static verifier rejected " + suite_[i].name);
      }
    }
  }

  Outcome run(Telemetry* telemetry, SpanLog* spans) override {
    schemes::SchemeConfig sc = sc_;
    if (telemetry != nullptr) {
      sc.tracer = &telemetry->tracer;
      sc.metrics = &telemetry->registry;
    }
    Outcome out;
    std::vector<std::array<RunMetrics, kSchemes>> results(instances_.size());
    std::uint64_t serial_accesses = 0;
    double baseline_mb = 0.0;
    for (std::size_t a = 0; a < instances_.size(); ++a) {
      const Instance& inst = instances_[a];
      std::uint64_t reference = 0;
      for (std::size_t s = 0; s < kSchemes; ++s) {
        const Scheme scheme = schemes::all_schemes()[s];
        const std::uint64_t accesses_before = hostsim_accesses(telemetry);
        {
          SpanLog::Scope span(spans,
                              std::string("schemes.") +
                                  schemes::scheme_tag(scheme) + "/" + inst.name,
                              "schemes");
          results[a][s] = inst.run(scheme, sc);
        }
        if (scheme == Scheme::kCpuSerial) {
          serial_accesses += hostsim_accesses(telemetry) - accesses_before;
        }
        if (telemetry != nullptr) telemetry->drain();
        ++out.attempted;
        const std::uint64_t digest = inst.digest();
        if (scheme == Scheme::kCpuSerial) {
          reference = digest;
          if (reference == 0) out.fail(inst.name + ": empty CPU-serial digest");
        } else if (digest != reference) {
          out.fail(inst.name + ": " + schemes::scheme_tag(scheme) +
                   " digest differs from CPU serial");
        }
        const double mb = static_cast<double>(results[a][s].h2d_bytes +
                                              results[a][s].d2h_bytes) /
                          1e6;
        out.sim_pcie_mb += mb;
        if (scheme == Scheme::kGpuSingleBuffer ||
            scheme == Scheme::kGpuDoubleBuffer) {
          baseline_mb += mb;
        }
      }
    }
    summarize(results, out);
    if (telemetry != nullptr) {
      layer_metrics(*spans, serial_accesses, baseline_mb, out);
    }
    return out;
  }

  void print_outcome(const Outcome& outcome) const override {
    std::printf("paper-suite: %zu apps x %zu schemes at scale %g\n",
                instances_.size(), kSchemes, kScale);
    const auto line = [&](const char* name, double paper) {
      const double value = outcome.sim.get(name);
      std::printf("  %-22s %8.3f x  (paper Fig. 4a: %.1fx, %+.1f%%)\n", name,
                  value, paper, (value / paper - 1.0) * 100.0);
    };
    line("bk_speedup_vs_single", kPaperVsSingle);
    line("bk_speedup_vs_double", kPaperVsDouble);
    std::printf("  the model is not validated against real hardware; the "
                "paper values are a reference, not a gate\n");
  }

 private:
  template <class App>
  void add(SpanLog* spans) {
    const apps::AppInfo info = App::paper_info();
    SpanLog::Scope span(spans, "apps.dataset_gen/" + info.name, "apps");
    typename App::Params params;
    params.data_bytes = scaled_.data_bytes(info.paper_data_gb);
    params.seed = derive_seed(seed_, instances_.size());
    auto app = std::make_shared<App>(params);
    Instance inst;
    inst.name = info.name;
    inst.run = [config = config_, app](Scheme scheme,
                                       const schemes::SchemeConfig& sc) {
      return schemes::run_scheme(scheme, config, *app, sc);
    };
    inst.digest = [app] { return app->result_digest(); };
    instances_.push_back(std::move(inst));
  }

  static std::uint64_t hostsim_accesses(const Telemetry* telemetry) {
    if (telemetry == nullptr) return 0;
    std::uint64_t total = 0;
    for (const char* name : {"hostsim.cache_hits", "hostsim.cache_misses"}) {
      if (const auto* counter = telemetry->registry.find_counter(name)) {
        total += counter->value();
      }
    }
    return total;
  }

  static void summarize(
      const std::vector<std::array<RunMetrics, kSchemes>>& results,
      Outcome& out) {
    const auto index = [](Scheme scheme) {
      for (std::size_t s = 0; s < kSchemes; ++s) {
        if (schemes::all_schemes()[s] == scheme) return s;
      }
      return kSchemes;
    };
    const std::size_t single = index(Scheme::kGpuSingleBuffer);
    const std::size_t dbl = index(Scheme::kGpuDoubleBuffer);
    const std::size_t big = index(Scheme::kBigKernel);
    const std::size_t het = index(Scheme::kHetero);

    double log_vs_single = 0.0, log_vs_double = 0.0, bk_ms = 0.0;
    double comm_ms = 0.0, comp_ms = 0.0, overlap = 0.0;
    std::array<double, obs::kStageCount> stage_ms{};
    std::array<double, obs::kStageCount> bottlenecks{};
    std::array<double, kSchemes> scheme_ms{};
    double chunks = 0.0, cpu_records = 0.0, gpu_records = 0.0, rounds = 0.0;
    for (const auto& row : results) {
      log_vs_single += std::log(schemes::speedup(row[single], row[big]));
      log_vs_double += std::log(schemes::speedup(row[dbl], row[big]));
      bk_ms += ps_to_ms(row[big].total_time);
      for (std::size_t s = 0; s < kSchemes; ++s) {
        scheme_ms[s] += ps_to_ms(row[s].total_time);
        comm_ms += ps_to_ms(row[s].comm_busy);
        comp_ms += ps_to_ms(row[s].comp_busy);
      }
      const RunMetrics& bk = row[big];
      for (obs::Stage stage : obs::all_stages()) {
        stage_ms[obs::stage_index(stage)] += ps_to_ms(bk.engine.stage_busy(stage));
      }
      if (bk.prof.bottleneck >= 0 &&
          bk.prof.bottleneck < static_cast<std::int32_t>(obs::kStageCount)) {
        bottlenecks[static_cast<std::size_t>(bk.prof.bottleneck)] += 1.0;
      }
      overlap += bk.prof.overlap_efficiency;
      chunks += static_cast<double>(bk.engine.chunks);
      cpu_records += static_cast<double>(row[het].hetero.cpu_records);
      gpu_records += static_cast<double>(row[het].hetero.gpu_records);
      rounds += static_cast<double>(row[het].hetero.rounds);
    }
    const double n = static_cast<double>(results.size());
    Metrics& m = out.sim;
    m.set("sim_bigkernel_ms", bk_ms / n, "ms", Clock::kSim);
    m.set("bk_speedup_vs_single", std::exp(log_vs_single / n), "x",
          Clock::kSim);
    m.set("bk_speedup_vs_double", std::exp(log_vs_double / n), "x",
          Clock::kSim);
    for (std::size_t s = 0; s < kSchemes; ++s) {
      m.set(std::string("schemes.") +
                schemes::scheme_tag(schemes::all_schemes()[s]) + ".sim_ms",
            scheme_ms[s], "ms", Clock::kSim);
    }
    m.set("gpusim.comm_busy_ms", comm_ms, "ms", Clock::kSim);
    m.set("gpusim.comp_busy_ms", comp_ms, "ms", Clock::kSim);
    for (std::size_t i = 0; i < obs::kStageCount; ++i) {
      m.set(std::string("core.stage.") + kStageKeys[i] + ".busy_ms",
            stage_ms[i], "ms", Clock::kSim);
      m.set(std::string("core.bottleneck.") + kStageKeys[i], bottlenecks[i],
            "count", Clock::kSim);
    }
    m.set("core.overlap_efficiency", overlap / n, "ratio", Clock::kSim);
    m.set("core.chunks", chunks, "count", Clock::kSim);
    const double records = cpu_records + gpu_records;
    m.set("hetero.cpu_record_share", records > 0 ? cpu_records / records : 0.0,
          "ratio", Clock::kSim);
    m.set("hetero.rounds", rounds, "count", Clock::kSim);
  }

  static void layer_metrics(const SpanLog& spans,
                            std::uint64_t serial_accesses,
                            double baseline_mb, Outcome& out) {
    Metrics& m = out.layers;
    double gpu_baseline_host_s = 0.0;
    for (Scheme scheme : schemes::all_schemes()) {
      const std::string key = std::string("schemes.") +
                              schemes::scheme_tag(scheme);
      const double host_s = spans.total(key + "/");
      m.set(key + ".host_s", host_s, "s", Clock::kHost);
      if (scheme == Scheme::kGpuSingleBuffer ||
          scheme == Scheme::kGpuDoubleBuffer) {
        gpu_baseline_host_s += host_s;
      }
    }
    m.set("hostsim.host_ns_per_access",
          serial_accesses > 0 ? m.get("schemes.cpu-serial.host_s") * 1e9 /
                                    static_cast<double>(serial_accesses)
                              : 0.0,
          "ns", Clock::kHost);
    // The chunked GPU baselines' host cost per simulated MB they move.
    m.set("gpusim.host_ns_per_mb",
          baseline_mb > 0 ? gpu_baseline_host_s * 1e9 / baseline_mb : 0.0,
          "ns/MB", Clock::kHost);
    const double chunks = out.sim.get("core.chunks");
    m.set("core.host_us_per_chunk",
          chunks > 0 ? m.get("schemes.bigkernel.host_s") * 1e6 / chunks : 0.0,
          "us", Clock::kHost);
  }

  std::uint64_t seed_;
  apps::ScaledSystem scaled_;
  bigk::gpusim::SystemConfig config_;
  schemes::SchemeConfig sc_;
  std::vector<apps::BenchApp> suite_;
  std::vector<Instance> instances_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_suite(std::uint64_t seed) {
  return std::make_unique<PaperSuite>(seed);
}

}  // namespace perfbench
