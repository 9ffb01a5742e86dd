// Tests for the coalescing model: the heart of BigKernel's third claimed
// benefit (assembled data enables coalesced GPU accesses).
#include "gpusim/warp_trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "gpusim/config.hpp"

namespace bigk::gpusim {
namespace {

GpuConfig test_config() {
  GpuConfig config;
  config.mem_transaction_bytes = 128;
  return config;
}

TEST(WarpTraceTest, PerfectlyCoalescedAccessIsOneTransaction) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    tracer.begin_lane(lane);
    tracer.record_access(lane * 4, 4);  // 32 lanes x 4B = one 128B segment
  }
  const WarpCost cost = tracer.finish(config);
  EXPECT_EQ(cost.mem_transactions, 1u);
  EXPECT_EQ(cost.mem_bytes, 128u);
}

TEST(WarpTraceTest, StridedAccessSerializesIntoManyTransactions) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    tracer.begin_lane(lane);
    tracer.record_access(std::uint64_t{lane} * 512, 4);  // 512B stride
  }
  const WarpCost cost = tracer.finish(config);
  EXPECT_EQ(cost.mem_transactions, 32u);  // fully scattered
}

TEST(WarpTraceTest, EightByteElementsCoalesceIntoTwoTransactions) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    tracer.begin_lane(lane);
    tracer.record_access(lane * 8, 8);  // 256B footprint
  }
  EXPECT_EQ(tracer.finish(config).mem_transactions, 2u);
}

TEST(WarpTraceTest, MultipleStepsAccumulate) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    tracer.begin_lane(lane);
    tracer.record_access(lane * 4, 4);        // step 0: coalesced
    tracer.record_access(lane * 4 + 4096, 4);  // step 1: coalesced
  }
  EXPECT_EQ(tracer.finish(config).mem_transactions, 2u);
}

TEST(WarpTraceTest, AccessSpanningSegmentsCountsEach) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  tracer.begin_lane(0);
  tracer.record_access(120, 16);  // crosses a 128B boundary
  EXPECT_EQ(tracer.finish(config).mem_transactions, 2u);
}

TEST(WarpTraceTest, AluCyclesAreLockStepMaxOverLanes) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    tracer.begin_lane(lane);
    tracer.record_alu(lane == 7 ? 100.0 : 10.0);
  }
  EXPECT_DOUBLE_EQ(tracer.finish(config).alu_cycles, 100.0);
}

TEST(WarpTraceTest, EachAccessCostsOneIssueCycle) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  tracer.begin_lane(0);
  tracer.record_access(0, 4);
  tracer.record_access(128, 4);
  EXPECT_DOUBLE_EQ(tracer.finish(config).alu_cycles, 2.0);
}

TEST(WarpTraceTest, DivergedLaneCountsAreHandled) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  // Lane 0 makes 3 accesses, others only 1: steps 1-2 have a single active
  // lane each.
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    tracer.begin_lane(lane);
    tracer.record_access(lane * 4, 4);
  }
  tracer.begin_lane(0);
  tracer.record_access(4096, 4);
  tracer.record_access(8192, 4);
  EXPECT_EQ(tracer.finish(config).mem_transactions, 3u);
}

TEST(WarpTraceTest, ResetClearsState) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  tracer.begin_lane(0);
  tracer.record_access(0, 4);
  tracer.reset();
  const WarpCost cost = tracer.finish(config);
  EXPECT_EQ(cost.mem_transactions, 0u);
  EXPECT_DOUBLE_EQ(cost.alu_cycles, 0.0);
}

TEST(WarpTraceTest, SmRequestCostIsMaxOfAluAndMemory) {
  GpuConfig config = test_config();
  config.core_clock_ghz = 1.0;
  config.num_sms = 8;
  config.global_mem_gbps = 192.0;  // 24 GB/s per SM
  config.lanes_per_sm = 192;       // warp parallelism 6

  // Memory-bound: 1000 transactions x 128B = 128000 B at 24 GB/s = 5333 ns;
  // ALU is negligible by comparison.
  WarpCost mem_bound{600.0, 1000, 128'000};
  EXPECT_EQ(sm_request_cost(mem_bound, config),
            sim::transfer_time(128'000, 24.0));

  // Compute-bound: trivial memory, heavy ALU. Issue rate is the SM's warp
  // parallelism derated by issue_efficiency.
  WarpCost alu_bound{60'000.0, 1, 128};
  EXPECT_EQ(sm_request_cost(alu_bound, config),
            sim::cycles_time(60'000.0 / config.warp_parallelism(), 1.0));
}

// Property: the coalesced layout BigKernel produces (thread i's k-th element
// at [k * num_threads + i]) touches only ~bytes-accessed worth of segments,
// while a record-strided layout touches one full transaction segment per
// lane once records exceed the transaction size.
TEST(WarpTraceProperty, InterleavedLayoutBeatsRecordStridedLayout) {
  const GpuConfig config = test_config();
  for (std::uint32_t record_size = 128; record_size <= 1024;
       record_size *= 2) {
    WarpTracer interleaved(32);
    WarpTracer strided(32);
    for (std::uint32_t lane = 0; lane < 32; ++lane) {
      interleaved.begin_lane(lane);
      strided.begin_lane(lane);
      for (std::uint32_t k = 0; k < 4; ++k) {
        interleaved.record_access((k * 32 + lane) * 8, 8);
        strided.record_access(std::uint64_t{lane} * record_size + k * 8, 8);
      }
    }
    const auto a = interleaved.finish(config).mem_transactions;
    const auto b = strided.finish(config).mem_transactions;
    // Interleaved: 4 steps x 32 lanes x 8B = 1 KB packed into 8 segments.
    EXPECT_EQ(a, 8u);
    // Strided: each lane's 4 x 8B sit inside its own record's segment.
    EXPECT_EQ(b, 32u) << "record_size=" << record_size;
    EXPECT_LT(a, b);
  }
}


TEST(WarpTraceTest, IssueTransactionsCountPerStepBeforeReuse) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  // Two steps touching the same coalesced segment: 1 DRAM transaction but
  // 2 issued transactions.
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    tracer.begin_lane(lane);
    tracer.record_access(lane * 4, 4);
    tracer.record_access(lane * 4, 4);
  }
  const WarpCost cost = tracer.finish(config);
  EXPECT_EQ(cost.mem_transactions, 1u);
  EXPECT_EQ(cost.issue_transactions, 2u);
}

TEST(WarpTraceTest, ScatteredStepIssuesOneTransactionPerLane) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    tracer.begin_lane(lane);
    tracer.record_access(std::uint64_t{lane} * 4096, 1);
  }
  EXPECT_EQ(tracer.finish(config).issue_transactions, 32u);
}

TEST(WarpTraceTest, SequentialPerLaneScanReusesSegmentsButIssuesPerStep) {
  // Each lane scans its own 128B region byte by byte: DRAM bytes stay at one
  // segment per lane, but every step issues 32 transactions -- the
  // non-coalesced byte-scan penalty BigKernel's interleaved layout removes.
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    tracer.begin_lane(lane);
    for (std::uint32_t i = 0; i < 128; ++i) {
      tracer.record_access(std::uint64_t{lane} * 128 + i, 1);
    }
  }
  const WarpCost cost = tracer.finish(config);
  EXPECT_EQ(cost.mem_transactions, 32u);          // one segment per lane
  EXPECT_EQ(cost.issue_transactions, 32u * 128);  // but issued every step
}

TEST(WarpTraceTest, AtomicOpsAreCounted) {
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  tracer.begin_lane(0);
  tracer.record_atomic();
  tracer.record_atomic();
  EXPECT_EQ(tracer.finish(config).atomic_ops, 2u);
  tracer.reset();
  EXPECT_EQ(tracer.finish(config).atomic_ops, 0u);
}

TEST(WarpTraceTest, IssueCostRaisesSmRequestTime) {
  GpuConfig config = test_config();
  config.txn_issue_cycles = 8.0;
  WarpCost coalesced{100.0, 10, 1280, 10, 0};
  WarpCost scattered{100.0, 10, 1280, 320, 0};
  EXPECT_LT(sm_request_cost(coalesced, config),
            sm_request_cost(scattered, config));
}

// --- Differential test against the sort-based coalescing model -----------
//
// ReferenceTracer keeps the original WarpTracer::finish, which sorts each
// step's segments and then the whole warp's, as an oracle. The hashed
// tracer must reproduce every WarpCost field of it bit for bit.
class ReferenceTracer {
 public:
  explicit ReferenceTracer(std::uint32_t warp_size) : lanes_(warp_size) {}
  void begin_lane(std::uint32_t lane) { current_ = &lanes_.at(lane); }
  void record_access(std::uint64_t addr, std::uint32_t size) {
    current_->accesses.push_back(Access{addr, size});
    current_->alu_cycles += 1.0;
  }
  void record_alu(double cycles) { current_->alu_cycles += cycles; }
  void record_atomic() { ++atomic_ops_; }
  void reset() {
    for (Lane& lane : lanes_) {
      lane.accesses.clear();
      lane.alu_cycles = 0.0;
    }
    current_ = nullptr;
    atomic_ops_ = 0;
  }

  WarpCost finish(const GpuConfig& config) const {
    WarpCost cost;
    for (const Lane& lane : lanes_) {
      cost.alu_cycles = std::max(cost.alu_cycles, lane.alu_cycles);
    }
    const std::uint64_t txn = config.mem_transaction_bytes;
    std::size_t max_steps = 0;
    for (const Lane& lane : lanes_) {
      max_steps = std::max(max_steps, lane.accesses.size());
    }
    std::vector<std::uint64_t> segments;
    std::vector<std::uint64_t> step_segments;
    for (std::size_t step = 0; step < max_steps; ++step) {
      step_segments.clear();
      for (const Lane& lane : lanes_) {
        if (step >= lane.accesses.size()) continue;
        const Access& access = lane.accesses[step];
        const std::uint64_t first = access.addr / txn;
        const std::uint64_t last =
            (access.addr + std::max<std::uint32_t>(access.size, 1) - 1) / txn;
        for (std::uint64_t seg = first; seg <= last; ++seg) {
          step_segments.push_back(seg);
        }
      }
      std::sort(step_segments.begin(), step_segments.end());
      step_segments.erase(
          std::unique(step_segments.begin(), step_segments.end()),
          step_segments.end());
      cost.issue_transactions += step_segments.size();
      segments.insert(segments.end(), step_segments.begin(),
                      step_segments.end());
    }
    std::sort(segments.begin(), segments.end());
    segments.erase(std::unique(segments.begin(), segments.end()),
                   segments.end());
    cost.mem_transactions = segments.size();
    cost.mem_bytes = cost.mem_transactions * txn;
    cost.atomic_ops = atomic_ops_;
    return cost;
  }

 private:
  struct Access {
    std::uint64_t addr;
    std::uint32_t size;
  };
  struct Lane {
    std::vector<Access> accesses;
    double alu_cycles = 0.0;
  };
  std::vector<Lane> lanes_;
  Lane* current_ = nullptr;
  std::uint64_t atomic_ops_ = 0;
};

/// Drives one WarpTracer and one ReferenceTracer with the same random warp.
class RandomWarp {
 public:
  RandomWarp(WarpTracer& tracer, ReferenceTracer& reference,
             std::mt19937_64& rng)
      : tracer_(tracer), reference_(reference), rng_(rng) {}

  void begin_lane(std::uint32_t lane) {
    tracer_.begin_lane(lane);
    reference_.begin_lane(lane);
  }
  void access(std::uint64_t addr, std::uint32_t size) {
    tracer_.record_access(addr, size);
    reference_.record_access(addr, size);
  }
  void alu(double cycles) {
    tracer_.record_alu(cycles);
    reference_.record_alu(cycles);
  }
  void atomic() {
    tracer_.record_atomic();
    reference_.record_atomic();
  }
  std::uint64_t below(std::uint64_t bound) {
    return std::uniform_int_distribution<std::uint64_t>(0, bound - 1)(rng_);
  }

  /// One lane's trace: `steps` accesses drawn from a mix of coalesced,
  /// strided, scattered, segment-spanning and zero-size patterns over a
  /// `footprint`-byte region at `base`.
  void lane_trace(std::uint32_t lane, std::uint64_t steps,
                  std::uint64_t base, std::uint64_t footprint) {
    for (std::uint64_t step = 0; step < steps; ++step) {
      std::uint64_t addr = 0;
      std::uint32_t size = 4;
      switch (below(6)) {
        case 0:  // coalesced: lane-contiguous words of one step
          addr = base + (step * 32 + lane) * 4;
          break;
        case 1:  // record-strided: each lane scans its own record
          addr = base + std::uint64_t{lane} * 512 + step;
          size = 1;
          break;
        case 2:  // scattered anywhere in the footprint
          addr = base + below(footprint);
          size = 8;
          break;
        case 3:  // spans one or more segment boundaries
          addr = base + below(footprint / 128 + 1) * 128 + 120;
          size = static_cast<std::uint32_t>(9 + below(400));
          break;
        case 4:  // zero-size access: still touches its segment
          addr = base + below(footprint);
          size = 0;
          break;
        default:  // lanes in reverse order: not lane-monotone
          addr = base + (step * 32 + (31 - lane % 32)) * 8;
          size = 8;
          break;
      }
      access(addr, size);
      if (below(4) == 0) alu(static_cast<double>(below(1000)) / 8.0);
    }
  }

 private:
  WarpTracer& tracer_;
  ReferenceTracer& reference_;
  std::mt19937_64& rng_;
};

void expect_same_cost(const WarpCost& got, const WarpCost& want,
                      std::uint64_t round) {
  EXPECT_EQ(got.alu_cycles, want.alu_cycles) << "round " << round;
  EXPECT_EQ(got.mem_transactions, want.mem_transactions) << "round " << round;
  EXPECT_EQ(got.mem_bytes, want.mem_bytes) << "round " << round;
  EXPECT_EQ(got.issue_transactions, want.issue_transactions)
      << "round " << round;
  EXPECT_EQ(got.atomic_ops, want.atomic_ops) << "round " << round;
}

TEST(WarpTraceDifferential, MatchesSortingOracleOnRandomWarps) {
  constexpr std::uint32_t kWarp = 32;
  std::mt19937_64 rng(20140519);
  WarpTracer tracer(kWarp);
  ReferenceTracer reference(kWarp);
  RandomWarp warp(tracer, reference, rng);
  GpuConfig config = test_config();
  const std::uint32_t txn_sizes[] = {128, 32, 64, 128};
  // Hundreds of finish/reset cycles on one tracer: stale slots left by
  // earlier warps must read as free.
  for (std::uint64_t round = 0; round < 600; ++round) {
    tracer.reset();
    reference.reset();
    config.mem_transaction_bytes = txn_sizes[round % 4];
    // Every tenth warp has a footprint large enough to grow the table.
    const bool big = round % 10 == 9;
    const std::uint64_t footprint =
        big ? (64u << 20) : 4096 + warp.below(1 << 16);
    const std::uint64_t base = warp.below(1 << 20) * 8;
    const std::uint64_t max_steps = big ? 400 : 1 + warp.below(48);
    const auto lanes = static_cast<std::uint32_t>(1 + warp.below(kWarp));
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      warp.begin_lane(lane);
      // Diverged lane lengths, some lanes empty.
      warp.lane_trace(lane, warp.below(max_steps + 1), base, footprint);
      if (warp.below(8) == 0) warp.atomic();
    }
    // Re-entered lanes append to their earlier trace.
    for (std::uint64_t again = warp.below(3); again > 0; --again) {
      const auto lane = static_cast<std::uint32_t>(warp.below(lanes));
      warp.begin_lane(lane);
      warp.lane_trace(lane, 1 + warp.below(max_steps), base, footprint);
    }
    expect_same_cost(tracer.finish(config), reference.finish(config), round);
    if (HasFailure()) break;
  }
}

TEST(WarpTraceDifferential, RepeatedSegmentsWithinAStepAreNotReissued) {
  // Lanes alternate between two segments within each step, so per-step
  // repeats are never adjacent: only the exact dedup gets 2 per step.
  const GpuConfig config = test_config();
  WarpTracer tracer(32);
  ReferenceTracer reference(32);
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    tracer.begin_lane(lane);
    reference.begin_lane(lane);
    for (std::uint64_t step = 0; step < 3; ++step) {
      const std::uint64_t addr = step * 4096 + (lane % 2) * 128;
      tracer.record_access(addr, 4);
      reference.record_access(addr, 4);
    }
  }
  const WarpCost cost = tracer.finish(config);
  EXPECT_EQ(cost.issue_transactions, 6u);
  EXPECT_EQ(cost.mem_transactions, 6u);
  expect_same_cost(cost, reference.finish(config), 0);
}

}  // namespace
}  // namespace bigk::gpusim
