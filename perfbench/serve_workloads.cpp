// serve-open and serve-reuse: the serving layer under Poisson arrivals from
// load::make_load, driven through serve::run_server.
//
//   serve-open   two tenants (latency-critical weight 8 with a deadline and
//                25% of arrivals; batch weight 1 with 75%) over the four
//                staging-heavy apps, WFQ on a 2-device pool, at three fixed
//                offered rates below, near and above capacity. Cache,
//                integrity and faults are off.
//   serve-reuse  K-means (writes back) and Netflix (read-only) repeating at
//                one rate below capacity, app-affinity placement, a chunk
//                cache per device, the integrity plane with its scrub
//                daemon, and seeded bit flips in cached and written-back
//                chunks.
//
// Arrivals are stamped in simulated time and submitted at their due instant
// by the server, so the generator is never late; latency counts from the
// stamped arrival and includes admission retries.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "load/generator.hpp"
#include "serve/server.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace apps = bigk::apps;
namespace load = bigk::load;
namespace serve = bigk::serve;
namespace sim = bigk::sim;

// Paper sizes x 0.00025 (1-1.6 MB inputs against a 512 KB GPU). run_server
// generates every job's dataset before its simulation starts, so a rate
// point holds 110 datasets at once; at 0.0005 that working set (~390 MB)
// made host time swing by up to 25% between runs on a shared 4-core box.
constexpr double kScale = 0.00025;
constexpr std::uint32_t kDevices = 2;
// Jobs per rate point: a fixed count (the plan is cut at this many
// arrivals) so host work does not swing with the Poisson draw, and enough
// that >= 10 completed jobs lie beyond the p90.
constexpr std::uint64_t kJobsPerPoint = 110;

struct RatePoint {
  const char* name;
  double jobs_per_s;
};

// Offered rates in jobs per simulated second. Constants, never
// recalibrated, so a capacity change moves the metrics, not the yardstick.
constexpr RatePoint kOpenLadder[] = {
    {"below", 4000.0}, {"near", 6500.0}, {"above", 12000.0}};
constexpr RatePoint kReusePoint = {"below", 3000.0};

// Fixed latency limit on the p90 for max_rate_within_slo, and the
// latency-critical tenant's deadline.
constexpr double kP90LimitMs = 2.0;
constexpr sim::DurationPs kLcDeadline = sim::kMillisecond;

const std::vector<std::string>& open_mix() {
  static const std::vector<std::string> mix = {
      "K-means", "Netflix", "DNA Assembly", "MasterCard Affinity (indexed)"};
  return mix;
}
const std::vector<std::string>& reuse_mix() {
  static const std::vector<std::string> mix = {"K-means", "Netflix"};
  return mix;
}

double ps_to_ms(sim::DurationPs ps) { return static_cast<double>(ps) / 1e9; }
double ps_to_s(sim::DurationPs ps) { return static_cast<double>(ps) / 1e12; }

/// Nearest-rank percentile of sorted values.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

class ServeWorkload final : public Workload {
 public:
  enum class Kind { kOpen, kReuse };

  ServeWorkload(Kind kind, std::uint64_t seed) : kind_(kind), seed_(seed) {
    scaled_.scale = kScale;
    if (kind_ == Kind::kOpen) {
      points_.assign(std::begin(kOpenLadder), std::end(kOpenLadder));
    } else {
      points_ = {kReusePoint};
    }
  }

  void setup(SpanLog* spans) override {
    {
      SpanLog::Scope span(spans, "apps.benchmark_apps", "apps");
      suite_ = apps::benchmark_apps(scaled_);
    }
    for (const std::string& name : mix()) {
      SpanLog::Scope span(spans, "verify.static_verdict/" + name, "verify");
      if (!apps::static_verdict(apps::find_app(suite_, name)).passed) {
        throw std::runtime_error("static verifier rejected " + name);
      }
    }
    plans_.clear();
    for (std::size_t i = 0; i < points_.size(); ++i) {
      SpanLog::Scope span(spans,
                          std::string("load.make_load/") + points_[i].name,
                          "load");
      plans_.push_back(load::make_load(load_config(i), apps::app_names(suite_)));
    }
  }

  Outcome run(Telemetry* telemetry, SpanLog* spans) override {
    Outcome out;
    point_lines_.clear();
    double bigkernel_ms = 0.0;
    std::uint64_t completed = 0;
    std::vector<double> below_latencies;
    double max_rate = 0.0;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const RatePoint& point = points_[i];
      const load::LoadPlan& plan = plans_[i];
      serve::ServerConfig config = server_config(i, telemetry);
      serve::ServeReport report;
      int parent = -1;
      {
        SpanLog::Scope span(spans,
                            std::string("serve.run_server/") + point.name,
                            "serve");
        parent = span.id();
        report = serve::run_server(config, plan.specs, suite_);
      }
      if (telemetry != nullptr) telemetry->drain();
      check(point, plan, report, out);

      std::vector<double> latencies;
      for (const serve::JobRecord& job : report.jobs) {
        if (!job.completed) continue;
        latencies.push_back(ps_to_ms(job.latency()));
        const serve::JobRecord::Breakdown b = job.breakdown();
        bigkernel_ms += ps_to_ms(b.execution + b.writeback);
        ++completed;
        if (spans != nullptr) add_job_spans(*spans, parent, job);
      }
      std::sort(latencies.begin(), latencies.end());
      const double p90 = percentile(latencies, 0.9);
      point_lines_.push_back({point.jobs_per_s, p90,
                              report.throughput_jobs_per_s, report.dropped,
                              report.cache_hits, report.bitflips_injected,
                              report.integrity_detected});
      if (p90 <= kP90LimitMs && report.dropped == 0) {
        max_rate = std::max(max_rate, point.jobs_per_s);
      }
      if (i == 0) below_latencies = latencies;
      // The last point is the above-capacity one on serve-open and the only
      // one on serve-reuse.
      if (i + 1 == points_.size()) {
        out.sim.set("goodput_jobs_per_s", report.goodput_jobs_per_s, "jobs/s",
                    Clock::kSim);
        for (const serve::TenantReport& tenant : report.tenants) {
          if (tenant.slo == serve::SloClass::kLatencyCritical) {
            out.sim.set("lc_slo_attainment", tenant.slo_attainment, "ratio",
                        Clock::kSim);
          }
        }
      }
      point_metrics(point, plan, report, i == 0, out);
    }

    Metrics& m = out.sim;
    m.set("sim_bigkernel_ms",
          completed == 0 ? 0.0
                         : bigkernel_ms / static_cast<double>(completed),
          "ms", Clock::kSim);
    m.set("latency_p50_ms", percentile(below_latencies, 0.5), "ms",
          Clock::kSim);
    m.set("latency_p90_ms", percentile(below_latencies, 0.9), "ms",
          Clock::kSim);
    m.set("latency_p90_samples", static_cast<double>(below_latencies.size()),
          "count", Clock::kSim);
    if (kind_ == Kind::kOpen) {
      m.set("max_rate_within_slo", max_rate, "jobs/s", Clock::kSim);
    }
    if (spans != nullptr) {
      const double host_s = spans->total("serve.run_server/");
      out.layers.set("serve.run_server_s", host_s, "s", Clock::kHost);
      out.layers.set("serve.host_ms_per_job",
                     host_s * 1e3 / static_cast<double>(out.attempted), "ms",
                     Clock::kHost);
      out.layers.set("apps.make_runner_s_per_job", make_runner_s(*spans), "s",
                     Clock::kHost);
    }
    return out;
  }

  void print_outcome(const Outcome& outcome) const override {
    const Metrics& m = outcome.sim;
    const double samples = m.get("latency_p90_samples");
    const double beyond = samples - std::ceil(0.9 * samples);
    std::printf("%s: %zu rate point(s) x %llu jobs, %u devices, scale %g\n",
                kind_ == Kind::kOpen ? "serve-open" : "serve-reuse",
                points_.size(), static_cast<unsigned long long>(kJobsPerPoint),
                kDevices, scaled_.scale);
    std::printf("  latency over %.0f completed jobs at %.0f jobs/s: p50 %.3f "
                "ms, p90 %.3f ms (%.0f samples beyond the p90)\n",
                samples, points_.front().jobs_per_s, m.get("latency_p50_ms"),
                m.get("latency_p90_ms"), beyond);
    std::printf("  generator lateness: 0 (arrivals are stamped in simulated "
                "time and submitted at their due instant)\n");
    for (const PointLine& line : point_lines_) {
      std::printf("  offered %6.0f jobs/s: p90 %.3f ms, throughput %.0f "
                  "jobs/s, shed %llu, cache hits %llu, bit flips injected "
                  "%llu, detected %llu\n",
                  line.offered, line.p90_ms, line.throughput,
                  static_cast<unsigned long long>(line.shed),
                  static_cast<unsigned long long>(line.cache_hits),
                  static_cast<unsigned long long>(line.flips),
                  static_cast<unsigned long long>(line.detected));
    }
    if (kind_ == Kind::kOpen) {
      std::printf("  max_rate_within_slo %.0f jobs/s (ladder",
                  m.get("max_rate_within_slo"));
      for (const RatePoint& point : points_) {
        std::printf(" %.0f", point.jobs_per_s);
      }
      std::printf("; p90 limit %.1f ms, no shedding)\n", kP90LimitMs);
    }
  }

 private:
  const std::vector<std::string>& mix() const {
    return kind_ == Kind::kOpen ? open_mix() : reuse_mix();
  }

  load::LoadConfig load_config(std::size_t point) const {
    load::LoadConfig config;
    config.arrival.rate_per_s = points_[point].jobs_per_s;
    config.arrival.seed = derive_seed(seed_, 10 + point);
    // Long enough that the cut at kJobsPerPoint always binds.
    config.duration = static_cast<sim::DurationPs>(
        3.0 * static_cast<double>(kJobsPerPoint) / points_[point].jobs_per_s *
        1e12);
    config.max_jobs = kJobsPerPoint;
    std::vector<load::MixEntry> mix_entries;
    for (const std::string& name : mix()) mix_entries.push_back({name, 1.0});
    if (kind_ == Kind::kOpen) {
      load::TenantSpec lc;
      lc.qos.name = "lc";
      lc.qos.slo = serve::SloClass::kLatencyCritical;
      lc.qos.weight = 8;
      lc.qos.deadline = kLcDeadline;
      lc.share = 0.25;
      lc.mix = mix_entries;
      load::TenantSpec batch;
      batch.qos.name = "batch";
      batch.qos.weight = 1;
      batch.share = 0.75;
      batch.mix = mix_entries;
      config.tenants = {lc, batch};
    } else {
      load::TenantSpec tenant;
      tenant.qos.name = "reuse";
      tenant.mix = mix_entries;
      config.tenants = {tenant};
    }
    return config;
  }

  serve::ServerConfig server_config(std::size_t point,
                                    Telemetry* telemetry) const {
    serve::ServerConfig config;
    config.system = scaled_.config();
    config.devices = kDevices;
    // Deep admission and a long retry budget: past capacity the backlog
    // grows in the queue instead of being shed.
    config.queue_depth = 32;
    config.retry_after = 100 * sim::kMicrosecond;
    config.max_retries = 64;
    config.engine.num_blocks = 4;
    config.engine.compute_threads_per_block = 128;
    config.check = bigk::check::CheckOptions{};
    if (kind_ == Kind::kOpen) {
      config.policy = serve::Policy::kLeastOutstandingBytes;
      config.qos.tenants = plans_[point].tenants;
      config.qos.discipline = serve::Discipline::kWfq;
      config.qos.offered_window = plans_[point].specs.back().submit_time;
    } else {
      config.policy = serve::Policy::kAppAffinity;
      config.cache_enabled = true;
      config.dur.integrity = true;
      config.dur.scrub_period = 200 * sim::kMicrosecond;
      config.dur.scrub_entries = 16;
      config.fault_spec = "bitflip_cache,p=0.02;bitflip_writeback,p=0.02";
      config.fault_seed = derive_seed(seed_, 100);
    }
    if (telemetry != nullptr) {
      config.tracer = &telemetry->tracer;
      config.metrics = &telemetry->registry;
      config.metrics_prefix = std::string("serve.") + points_[point].name;
    }
    return config;
  }

  /// run_server regenerates a job's dataset through make_runner() on every
  /// job; time one per mix app from outside, as the mean over the mix.
  double make_runner_s(SpanLog& spans) const {
    for (const std::string& name : mix()) {
      SpanLog::Scope span(&spans, "apps.make_runner/" + name, "apps");
      const auto runner = apps::find_app(suite_, name).make_runner();
      if (runner->num_records() == 0) {
        throw std::runtime_error("empty dataset for " + name);
      }
    }
    return spans.total("apps.make_runner/") /
           static_cast<double>(mix().size());
  }

  void check(const RatePoint& point, const load::LoadPlan& plan,
                    const serve::ServeReport& report, Outcome& out) {
    const std::uint64_t submitted = plan.specs.size();
    out.attempted += submitted;
    const std::string where = std::string(point.name) + ": ";
    if (report.jobs.size() != submitted ||
        report.completed + report.dropped + report.failed_jobs != submitted) {
      out.fail(where + "completed + dropped + failed != submitted");
    }
    if (report.dropped > 0) {
      out.fail(where + std::to_string(report.dropped) + " jobs shed",
               report.dropped);
    }
    if (report.failed_jobs > 0) {
      out.fail(where + std::to_string(report.failed_jobs) + " jobs failed",
               report.failed_jobs);
    }
    if (report.integrity_detected != report.bitflips_injected) {
      const std::uint64_t a = report.integrity_detected;
      const std::uint64_t b = report.bitflips_injected;
      out.fail(where + std::to_string(b) + " bit flips injected, " +
                   std::to_string(a) + " detected",
               a > b ? a - b : b - a);
    }
    // serve-reuse exists to exercise the cache-hit path and the integrity
    // plane; a run where either stayed idle has not tested them.
    if (kind_ == Kind::kReuse) {
      if (report.bitflips_injected == 0) {
        out.fail(where + "no bit flip was injected");
      }
      if (report.cache_hits == 0) out.fail(where + "no cache hit");
    }
  }

  static void add_job_spans(SpanLog& spans, int parent,
                            const serve::JobRecord& job) {
    const std::uint64_t id = job.spec.id;
    const int span = spans.add_sim("serve.job", "serve.job", parent, id,
                                   ps_to_s(job.spec.submit_time),
                                   ps_to_s(job.finish_time));
    const serve::JobRecord::Breakdown b = job.breakdown();
    const std::pair<const char*, sim::DurationPs> phases[] = {
        {"serve.job.admission", b.admission},
        {"serve.job.queue", b.queue},
        {"serve.job.staging", b.staging},
        {"serve.job.execution", b.execution},
        {"serve.job.writeback", b.writeback},
    };
    sim::TimePs at = job.spec.submit_time;
    for (const auto& [name, duration] : phases) {
      spans.add_sim(name, name, span, id, ps_to_s(at),
                    ps_to_s(at + duration));
      at += duration;
    }
  }

  void point_metrics(const RatePoint& point, const load::LoadPlan& plan,
                     const serve::ServeReport& report, bool first,
                     Outcome& out) const {
    Metrics& m = out.sim;
    const std::string base = std::string("serve.") + point.name;
    m.set(base + ".breakdown.admission_ms", report.breakdown_admission_ms,
          "ms", Clock::kSim);
    m.set(base + ".breakdown.queue_ms", report.breakdown_queue_ms, "ms",
          Clock::kSim);
    m.set(base + ".breakdown.staging_ms", report.breakdown_staging_ms, "ms",
          Clock::kSim);
    m.set(base + ".breakdown.execution_ms", report.breakdown_execution_ms,
          "ms", Clock::kSim);
    m.set(base + ".breakdown.writeback_ms", report.breakdown_writeback_ms,
          "ms", Clock::kSim);
    double utilization = 0.0;
    double evictions = 0.0;
    for (const serve::DeviceReport& dev : report.devices) {
      utilization += dev.utilization;
      evictions += static_cast<double>(dev.cache_evictions);
      out.sim_pcie_mb += static_cast<double>(dev.h2d_bytes + dev.d2h_bytes) /
                         1e6;
    }
    m.set(base + ".utilization",
          report.devices.empty()
              ? 0.0
              : utilization / static_cast<double>(report.devices.size()),
          "ratio", Clock::kSim);
    m.set(base + ".rejections", static_cast<double>(report.rejections),
          "count", Clock::kSim);
    m.set(base + ".peak_queue_depth",
          static_cast<double>(report.peak_queue_depth), "count", Clock::kSim);

    const auto add = [&](const char* name, double value, const char* unit) {
      m.set(name, m.get(name) + value, unit, Clock::kSim);
    };
    add("load.jobs", static_cast<double>(plan.specs.size()), "count");
    if (first) {
      m.set("load.offered_jobs_per_s",
            static_cast<double>(plan.specs.size()) /
                ps_to_s(plan.specs.back().submit_time),
            "jobs/s", Clock::kSim);
    }
    add("cache.hits", static_cast<double>(report.cache_hits), "count");
    add("cache.misses", static_cast<double>(report.cache_misses), "count");
    add("cache.bytes_saved_mb",
        static_cast<double>(report.cache_bytes_saved) / 1e6, "MB");
    add("cache.evictions", evictions, "count");
    const double lookups = m.get("cache.hits") + m.get("cache.misses");
    m.set("cache.hit_rate", lookups > 0 ? m.get("cache.hits") / lookups : 0.0,
          "ratio", Clock::kSim);
    add("dur.verified", static_cast<double>(report.integrity_verified),
        "count");
    add("dur.detected", static_cast<double>(report.integrity_detected),
        "count");
    add("dur.repaired", static_cast<double>(report.integrity_repaired),
        "count");
    add("dur.scrub.checked", static_cast<double>(report.scrub_checked),
        "count");
    add("fault.injected", static_cast<double>(report.fault_injected), "count");
    add("fault.recovered", static_cast<double>(report.fault_recovered),
        "count");
  }

  Kind kind_;
  std::uint64_t seed_;
  apps::ScaledSystem scaled_;
  std::vector<RatePoint> points_;
  std::vector<apps::BenchApp> suite_;
  std::vector<load::LoadPlan> plans_;
  /// Per rate point of the last iteration, for the log.
  struct PointLine {
    double offered;
    double p90_ms;
    double throughput;
    std::uint64_t shed;
    std::uint64_t cache_hits;
    std::uint64_t flips;
    std::uint64_t detected;
  };
  std::vector<PointLine> point_lines_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_open(std::uint64_t seed) {
  return std::make_unique<ServeWorkload>(ServeWorkload::Kind::kOpen, seed);
}

std::unique_ptr<Workload> make_serve_reuse(std::uint64_t seed) {
  return std::make_unique<ServeWorkload>(ServeWorkload::Kind::kReuse, seed);
}

}  // namespace perfbench
