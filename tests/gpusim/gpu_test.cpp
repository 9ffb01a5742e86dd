// Tests for the GPU execution engine: occupancy, block scheduling, kernel
// timing, PCIe transfers, and host-flag interaction.
#include "gpusim/gpu.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/simulation.hpp"

namespace bigk::gpusim {
namespace {

SystemConfig small_config() {
  SystemConfig config;
  config.gpu.global_memory_bytes = 1 << 20;
  return config;
}

TEST(OccupancyTest, LimitedByThreadsPerSm) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  KernelLaunch launch;
  launch.threads_per_block = 1024;
  launch.regs_per_thread = 1;
  launch.shared_bytes_per_block = 0;
  // 2048 max threads per SM / 1024 = 2 blocks per SM.
  EXPECT_EQ(gpu.max_active_blocks_per_sm(launch), 2u);
}

TEST(OccupancyTest, LimitedByRegisters) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  KernelLaunch launch;
  launch.threads_per_block = 256;
  launch.regs_per_thread = 64;  // 16384 regs per block, 65536 per SM -> 4
  EXPECT_EQ(gpu.max_active_blocks_per_sm(launch), 4u);
}

TEST(OccupancyTest, LimitedBySharedMemory) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  KernelLaunch launch;
  launch.threads_per_block = 64;
  launch.regs_per_thread = 1;
  launch.shared_bytes_per_block = 16 << 10;  // 48KB per SM -> 3 blocks
  EXPECT_EQ(gpu.max_active_blocks_per_sm(launch), 3u);
}

TEST(OccupancyTest, WholeGpuActiveBlocksFollowPaperFormula) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  KernelLaunch launch;
  launch.threads_per_block = 1024;
  launch.regs_per_thread = 1;
  launch.num_blocks = 5;  // fewer than 2 * 8 SMs
  EXPECT_EQ(gpu.max_active_blocks(launch), 5u);
  launch.num_blocks = 100;
  EXPECT_EQ(gpu.max_active_blocks(launch), 16u);
}

TEST(GpuTest, SimpleKernelRunsEveryThreadOnce) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  auto counters = gpu.memory().allocate<std::uint32_t>(8 * 64);
  for (std::uint64_t i = 0; i < 8 * 64; ++i) {
    gpu.memory().write(counters, i, 0u);
  }
  KernelLaunch launch;
  launch.num_blocks = 8;
  launch.threads_per_block = 64;
  sim.run_until_complete(gpu.run_simple_kernel(
      launch, [&](LaneCtx& lane, std::uint32_t) {
        const std::uint32_t old =
            lane.load(counters, lane.global_thread());
        lane.store(counters, lane.global_thread(), old + 1);
      }));
  for (std::uint64_t i = 0; i < 8 * 64; ++i) {
    EXPECT_EQ(gpu.memory().read(counters, i), 1u) << "thread " << i;
  }
}

TEST(GpuTest, KernelLaunchHasFixedOverhead) {
  sim::Simulation sim;
  SystemConfig config = small_config();
  config.gpu.kernel_launch_overhead = sim::microseconds(8);
  Gpu gpu(sim, config);
  KernelLaunch launch;
  launch.num_blocks = 1;
  launch.threads_per_block = 32;
  sim.run_until_complete(
      gpu.run_simple_kernel(launch, [](LaneCtx&, std::uint32_t) {}));
  EXPECT_GE(sim.now(), sim::microseconds(8));
  EXPECT_EQ(gpu.stats().kernel_launches, 1u);
}

TEST(GpuTest, MemoryBoundKernelTimeScalesWithCoalescing) {
  // Two kernels doing identical work, one coalesced and one strided; the
  // strided one must take measurably longer.
  auto run = [](bool coalesced) {
    sim::Simulation sim;
    Gpu gpu(sim, small_config());
    auto data = gpu.memory().allocate<std::uint64_t>(64 << 10);
    KernelLaunch launch;
    launch.num_blocks = 8;
    launch.threads_per_block = 256;
    sim.run_until_complete(gpu.run_simple_kernel(
        launch, [&](LaneCtx& lane, std::uint32_t tid) {
          for (std::uint32_t k = 0; k < 16; ++k) {
            const std::uint64_t idx =
                coalesced ? (std::uint64_t{k} * 256 + tid)
                          : (std::uint64_t{tid} * 16 + k) * 8 % (64 << 10);
            (void)lane.load(data, idx % (64 << 10));
          }
        }));
    return sim.now();
  };
  EXPECT_LT(run(true), run(false));
}

TEST(GpuTest, BlocksBeyondOccupancyRunInWaves) {
  // One block per SM slot; with 16x the active window the kernel must take
  // ~16x as long as a single wave.
  auto run = [](std::uint32_t num_blocks) {
    sim::Simulation sim;
    Gpu gpu(sim, small_config());
    KernelLaunch launch;
    launch.num_blocks = num_blocks;
    launch.threads_per_block = 1024;  // 2 blocks per SM -> window 16
    launch.regs_per_thread = 1;
    auto sink = gpu.memory().allocate<std::uint64_t>(1024);
    sim.run_until_complete(gpu.run_simple_kernel(
        launch, [&](LaneCtx& lane, std::uint32_t tid) {
          for (int k = 0; k < 50; ++k) (void)lane.load(sink, tid % 1024);
          lane.alu(5000);
        }));
    return sim.now();
  };
  const auto one_wave = run(16);
  const auto many_waves = run(16 * 8);
  EXPECT_GT(many_waves, 6 * one_wave);
  EXPECT_LT(many_waves, 10 * one_wave);
}

TEST(GpuTest, TransfersOccupyLinkAndCountBytes) {
  sim::Simulation sim;
  SystemConfig config = small_config();
  config.pcie.h2d_gbps = 10.0;
  config.pcie.transfer_latency = 0;
  Gpu gpu(sim, config);
  sim.run_until_complete([](Gpu& g) -> sim::Task<> {
    co_await g.h2d_transfer(10'000'000'000ull);  // 10 GB at 10 GB/s = 1 s
  }(gpu));
  EXPECT_EQ(sim.now(), sim::seconds(1));
  EXPECT_EQ(gpu.stats().h2d_bytes, 10'000'000'000ull);
  EXPECT_EQ(gpu.h2d_busy(), sim::seconds(1));
}

TEST(GpuTest, PostedTrafficCompletesInOrder) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  const sim::TimePs first = gpu.post_d2h(1 << 20);
  const sim::TimePs second = gpu.post_d2h(1 << 10);
  EXPECT_GT(second, first);  // small transfer queued behind the big one
}

TEST(GpuTest, SetFlagAtFiresAtRequestedTime) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  sim::Flag flag(sim);
  sim::TimePs seen_at = 0;
  gpu.set_flag_at(flag, 1, sim::microseconds(5));
  sim.spawn([](sim::Flag& f, sim::Simulation& s,
               sim::TimePs& out) -> sim::Task<> {
    co_await f.wait_ge(1);
    out = s.now();
  }(flag, sim, seen_at));
  sim.run();
  EXPECT_EQ(seen_at, sim::microseconds(5));
}

TEST(GpuTest, KernelWaitsOnHostFlag) {
  // A kernel block blocks on a host flag; the host raises it at t=100us;
  // kernel completion must follow it.
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  sim::Flag ready(sim);
  KernelLaunch launch;
  launch.num_blocks = 2;
  launch.threads_per_block = 32;
  sim.spawn([](sim::Simulation& s, sim::Flag& f) -> sim::Task<> {
    co_await s.delay(sim::microseconds(100));
    f.advance_to(1);
  }(sim, ready));
  sim.run_until_complete(
      gpu.run_kernel(launch, [&](BlockCtx& block) -> sim::Task<> {
        co_await block.wait_flag(ready, 1);
        co_await block.run_threads(0, block.threads_per_block(),
                                   [](LaneCtx& lane, std::uint32_t) {
                                     lane.alu(10);
                                   });
      }));
  EXPECT_GT(sim.now(), sim::microseconds(100));
}

TEST(GpuTest, AtomicAddIsFunctionallyCorrectAcrossThreads) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  auto counter = gpu.memory().allocate<std::uint64_t>(1);
  gpu.memory().write(counter, 0, std::uint64_t{0});
  KernelLaunch launch;
  launch.num_blocks = 4;
  launch.threads_per_block = 128;
  sim.run_until_complete(gpu.run_simple_kernel(
      launch, [&](LaneCtx& lane, std::uint32_t) {
        lane.atomic_add(counter, 0, std::uint64_t{1});
      }));
  EXPECT_EQ(gpu.memory().read(counter, 0), 4u * 128u);
}

// The GPU traces every warp with one reused WarpTracer; a second launch of
// the same kernel must neither inherit state from the first (costs) nor see
// a stale or reordered access stream (observer).
class RecordingObserver : public WarpAccessObserver {
 public:
  struct Record {
    std::uint32_t block, warp, lane;
    std::uint64_t addr;
    std::uint32_t size;
    std::uint8_t flags;
    friend bool operator==(const Record&, const Record&) = default;
  };
  void on_warp_access(std::uint32_t block, std::uint32_t warp,
                      std::uint32_t lane, std::uint64_t addr,
                      std::uint32_t size, std::uint8_t flags) override {
    records.push_back(Record{block, warp, lane, addr, size, flags});
  }
  std::vector<Record> records;
};

TEST(GpuTest, RelaunchOnOneGpuChargesAndObservesIdentically) {
  constexpr std::uint64_t kWords = 4096;
  constexpr std::uint32_t kThreads = 64;  // two warps per block
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  auto data = gpu.memory().allocate<std::uint32_t>(kWords);
  for (std::uint64_t i = 0; i < kWords; ++i) gpu.memory().write(data, i, 0u);
  RecordingObserver observer;
  gpu.set_access_observer(&observer);
  KernelLaunch launch;
  launch.num_blocks = 4;
  launch.threads_per_block = kThreads;
  // Diverged, scattered loads, then one coalesced store per lane.
  auto word = [](std::uint32_t gtid, std::uint32_t k) {
    return (std::uint64_t{gtid} * 37 + std::uint64_t{k} * 1013) % kWords;
  };
  const BlockCtx::LaneFn kernel = [&](LaneCtx& lane, std::uint32_t tid) {
    std::uint32_t sum = 0;
    for (std::uint32_t k = 0; k < tid % 5; ++k) {
      sum += lane.load(data, word(lane.global_thread(), k));
    }
    lane.store(data, lane.global_thread(), sum);
  };

  auto launch_once = [&] {
    observer.records.clear();
    const sim::DurationPs before = gpu.sm_busy_total();
    sim.run_until_complete(gpu.run_simple_kernel(launch, kernel));
    return gpu.sm_busy_total() - before;
  };
  const sim::DurationPs first_busy = launch_once();
  const std::vector<RecordingObserver::Record> first = observer.records;
  const sim::DurationPs second_busy = launch_once();
  EXPECT_GT(first_busy, 0);
  EXPECT_EQ(first_busy, second_busy);
  EXPECT_EQ(first, observer.records);

  // Within each (block, warp) the stream is lane-major and in program order.
  const std::uint64_t base = data.byte_offset;
  for (std::uint32_t block = 0; block < launch.num_blocks; ++block) {
    for (std::uint32_t warp = 0; warp < kThreads / 32; ++warp) {
      std::vector<RecordingObserver::Record> expected;
      for (std::uint32_t lane = 0; lane < 32; ++lane) {
        const std::uint32_t tid = warp * 32 + lane;
        const std::uint32_t gtid = block * kThreads + tid;
        for (std::uint32_t k = 0; k < tid % 5; ++k) {
          expected.push_back({block, warp, lane, base + word(gtid, k) * 4, 4,
                              0});
        }
        expected.push_back({block, warp, lane, base + std::uint64_t{gtid} * 4,
                            4, WarpTracer::kFlagWrite});
      }
      std::vector<RecordingObserver::Record> seen;
      for (const auto& record : observer.records) {
        if (record.block == block && record.warp == warp) {
          seen.push_back(record);
        }
      }
      EXPECT_EQ(seen, expected) << "block " << block << " warp " << warp;
    }
  }
  gpu.set_access_observer(nullptr);
}

TEST(GpuTest, ZeroBlockLaunchIsANoop) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  KernelLaunch launch;
  launch.num_blocks = 0;
  sim.run_until_complete(
      gpu.run_simple_kernel(launch, [](LaneCtx&, std::uint32_t) {}));
  EXPECT_EQ(gpu.stats().kernel_launches, 0u);
}

TEST(GpuTest, ImpossibleLaunchThrows) {
  sim::Simulation sim;
  Gpu gpu(sim, small_config());
  KernelLaunch launch;
  launch.num_blocks = 1;
  launch.threads_per_block = 64;
  launch.shared_bytes_per_block = 1 << 20;  // more than any SM has
  EXPECT_THROW(sim.run_until_complete(gpu.run_kernel(
                   launch, [](BlockCtx&) -> sim::Task<> { co_return; })),
               std::invalid_argument);
}

}  // namespace
}  // namespace bigk::gpusim
