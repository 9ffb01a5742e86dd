// Serve golden outputs: pins an FNV-1a digest of ServeReport::write_json
// plus the metrics-registry JSON for toy configs that together cover both
// binding modes — untenanted configs bind a job to any placeable device as
// soon as it is admitted (eager), tenanted configs hand it only to an idle
// device (late) — and every serve plane: placement policies, chunk cache,
// integrity, spill-over, device loss and reinstatement, WFQ tenants, closed
// loops, the autoscaler and a simulated crash. The digests change only when
// a simulated result changes, so a refactor of the serving layer must leave
// every one of them untouched. Never update a digest to make a refactor
// pass; a deliberate model change updates them and says why.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cache/key.hpp"
#include "dur/journal.hpp"
#include "load/generator.hpp"
#include "obs/metrics_registry.hpp"
#include "serve/job.hpp"
#include "toy_suite.hpp"

namespace bigk::serve {
namespace {

using test::make_toy_suite;
using test::toy_engine_options;
using test::toy_system;

const std::vector<std::string> kApps{"toy0", "toy1", "toy2"};

ServerConfig base_config(std::uint32_t devices, Policy policy) {
  ServerConfig config;
  config.system = toy_system();
  config.devices = devices;
  config.policy = policy;
  config.queue_depth = 8;
  config.max_retries = 200;
  config.retry_after = sim::DurationPs{20'000'000};  // 20 us
  config.engine = toy_engine_options();
  return config;
}

std::vector<JobSpec> toy_jobs(std::uint32_t num_jobs, sim::DurationPs gap,
                              std::uint64_t seed,
                              std::uint32_t distinct_apps = 0) {
  WorkloadConfig workload;
  workload.num_jobs = num_jobs;
  workload.seed = seed;
  workload.mean_gap = gap;
  workload.distinct_apps = distinct_apps;
  return make_workload(kApps, workload);
}

/// A latency-critical tenant (weight 8, deadline) and a quota-bound batch
/// tenant over a bursty MMPP arrival process.
load::LoadPlan two_tenant_plan(bool closed_loop) {
  load::LoadConfig lc;
  lc.arrival.kind = load::ArrivalKind::kMmpp;
  lc.arrival.rate_per_s = 120'000.0;
  lc.arrival.burst_rate_per_s = 500'000.0;
  lc.arrival.seed = 17;
  lc.duration = 300 * sim::kMicrosecond;
  lc.closed_loop = closed_loop;
  load::TenantSpec critical;
  critical.qos.name = "lc";
  critical.qos.slo = SloClass::kLatencyCritical;
  critical.qos.weight = 8;
  critical.qos.deadline = 300 * sim::kMicrosecond;
  critical.qos.think_time = 20 * sim::kMicrosecond;
  critical.share = 0.3;
  critical.clients = 4;
  load::TenantSpec batch;
  batch.qos.name = "batch";
  batch.qos.weight = 1;
  batch.qos.quota = 6;
  batch.qos.think_time = 10 * sim::kMicrosecond;
  batch.share = 0.7;
  batch.clients = 8;
  lc.tenants = {critical, batch};
  return load::make_load(lc, kApps);
}

/// FNV-1a over the report JSON, a newline, and the registry JSON array, as
/// a hex string.
std::string digest_of(ServerConfig config, const std::vector<JobSpec>& specs,
                      std::uint64_t records = 2'000) {
  const auto suite = make_toy_suite(3, records);
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  const ServeReport report = run_server(config, specs, suite);
  std::ostringstream out;
  report.write_json(out);
  out << '\n';
  registry.write_json_array(out);
  const std::string text = out.str();
  cache::Fnv1a hash;
  hash.mix_bytes(text.data(), text.size());
  std::ostringstream hex;
  hex << "0x" << std::hex << hash.state;
  return hex.str();
}

TEST(ServeGoldenTest, RoundRobinEager) {
  ServerConfig config = base_config(3, Policy::kRoundRobin);
  config.queue_depth = 4;  // small enough to reject under the burst
  EXPECT_EQ(digest_of(config, toy_jobs(10, 2'000'000, 21)),
            "0x7a5cacb42f0db509");
}

TEST(ServeGoldenTest, AffinityCacheIntegrityEager) {
  ServerConfig config = base_config(2, Policy::kAppAffinity);
  config.cache_enabled = true;
  config.cache_bytes = 256 << 10;
  config.dur.integrity = true;
  config.dur.scrub_period = 30 * sim::kMicrosecond;
  config.dur.scrub_entries = 4;
  EXPECT_EQ(digest_of(config, toy_jobs(12, 20'000'000, 5, 2)),
            "0x46085a904cf164ad");
}

TEST(ServeGoldenTest, SpillEager) {
  ServerConfig config = base_config(1, Policy::kRoundRobin);
  config.queue_depth = 16;
  config.hetero.spill_enabled = true;
  config.hetero.spill_depth = 2;
  EXPECT_EQ(digest_of(config, toy_jobs(12, 0, 7)), "0xa7dc77bd7e9f39c1");
}

TEST(ServeGoldenTest, DeviceLossRecoveryEager) {
  ServerConfig config = base_config(4, Policy::kLeastOutstandingBytes);
  config.queue_depth = 12;
  config.fault_spec = "device_lost,nth=1,device=0,down_us=1";
  config.probe_interval = 50 * sim::kMicrosecond;
  EXPECT_EQ(digest_of(config, toy_jobs(12, 0, 7), 6'000), "0x3ac03acc22e98ff6");
}

TEST(ServeGoldenTest, AutoscalerEager) {
  ServerConfig config = base_config(3, Policy::kRoundRobin);
  config.queue_depth = 16;
  config.qos.autoscaler.enabled = true;
  config.qos.autoscaler.min_active = 1;
  config.qos.autoscaler.period = 50 * sim::kMicrosecond;
  config.qos.autoscaler.up_queue_depth = 2.0;
  config.qos.autoscaler.cooldown = 1;
  EXPECT_EQ(digest_of(config, toy_jobs(24, 10'000'000, 3)),
            "0xd72b356e3852cfc2");
}

TEST(ServeGoldenTest, CrashWithSpillEager) {
  dur::JobJournal journal;
  ServerConfig config = base_config(1, Policy::kRoundRobin);
  config.hetero.spill_enabled = true;
  config.hetero.spill_depth = 2;
  config.dur.journal = &journal;
  config.dur.checkpoint_records = 1'000;
  config.dur.crash_at = 150 * sim::kMicrosecond;
  EXPECT_EQ(digest_of(config, toy_jobs(8, 0, 9), 4'000), "0x2bfac472c137999e");
}

TEST(ServeGoldenTest, WfqTwoTenantsLate) {
  const load::LoadPlan plan = two_tenant_plan(/*closed_loop=*/false);
  ServerConfig config = base_config(2, Policy::kAppAffinity);
  config.queue_depth = 12;
  config.qos.tenants = plan.tenants;
  config.qos.offered_window = 300 * sim::kMicrosecond;
  EXPECT_EQ(digest_of(config, plan.specs), "0xc5b831265f9efc71");
}

TEST(ServeGoldenTest, ClosedLoopFifoLate) {
  const load::LoadPlan plan = two_tenant_plan(/*closed_loop=*/true);
  ServerConfig config = base_config(2, Policy::kRoundRobin);
  config.qos.tenants = plan.tenants;
  config.qos.discipline = Discipline::kFifo;
  config.qos.closed_loop = true;
  EXPECT_EQ(digest_of(config, plan.specs), "0x3ce961bedc01f8a8");
}

TEST(ServeGoldenTest, AutoscalerLate) {
  const load::LoadPlan plan = two_tenant_plan(/*closed_loop=*/false);
  ServerConfig config = base_config(3, Policy::kLeastOutstandingBytes);
  config.queue_depth = 16;
  config.qos.tenants = plan.tenants;
  config.qos.autoscaler.enabled = true;
  config.qos.autoscaler.min_active = 1;
  config.qos.autoscaler.period = 50 * sim::kMicrosecond;
  config.qos.autoscaler.up_queue_depth = 2.0;
  config.qos.autoscaler.cooldown = 1;
  EXPECT_EQ(digest_of(config, plan.specs), "0x89f88a971eec2a80");
}

TEST(ServeGoldenTest, SoleDeviceOutageLate) {
  // The job in flight when the only device dies has nowhere to go and fails.
  const load::LoadPlan plan = two_tenant_plan(/*closed_loop=*/false);
  ServerConfig config = base_config(1, Policy::kRoundRobin);
  config.queue_depth = 1;
  config.qos.tenants = plan.tenants;
  config.fault_spec = "device_lost,nth=1,down_ms=1";
  EXPECT_EQ(digest_of(config, plan.specs), "0xbdf87ddc3894d128");
}

TEST(ServeGoldenTest, CrashWithSpillLate) {
  const load::LoadPlan plan = two_tenant_plan(/*closed_loop=*/false);
  dur::JobJournal journal;
  ServerConfig config = base_config(2, Policy::kRoundRobin);
  config.queue_depth = 12;
  config.qos.tenants = plan.tenants;
  config.dur.journal = &journal;
  config.hetero.spill_enabled = true;
  config.hetero.spill_depth = 6;
  config.dur.checkpoint_records = 500;
  config.dur.crash_at = 450 * sim::kMicrosecond;
  EXPECT_EQ(digest_of(config, plan.specs), "0x554e12e590a004f8");
}

}  // namespace
}  // namespace bigk::serve
