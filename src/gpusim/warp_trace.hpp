// Warp execution tracing and the coalescing cost model.
//
// Warp lanes execute their (functional) C++ code sequentially in the
// simulator, but each lane records its global-memory accesses in program
// order. Lock-step SIMD timing is recovered afterwards: the i-th access of
// every lane is assumed to issue in the same warp instruction (exactly true
// for uniform control flow, and a faithful divergence penalty otherwise,
// because drifting lanes stop sharing 128-byte transaction segments).
//
// For each access step, the number of global-memory transactions equals the
// number of distinct aligned transaction segments the 32 lanes touch — 1 for
// a perfectly coalesced access, up to 32 for a fully scattered one.
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/config.hpp"
#include "sim/time.hpp"

namespace bigk::gpusim {

/// Aggregate cost of one warp's instruction segment.
struct WarpCost {
  double alu_cycles = 0.0;            // lock-step cycles (max over lanes)
  std::uint64_t mem_transactions = 0;  // distinct segments touched (DRAM)
  std::uint64_t mem_bytes = 0;         // transactions * transaction size
  /// Transactions *issued* step by step (before cross-step reuse): the
  /// coalescing quality of each lock-step access.
  std::uint64_t issue_transactions = 0;
  std::uint64_t atomic_ops = 0;        // updates routed to the atomic units

  WarpCost& operator+=(const WarpCost& other) {
    alu_cycles += other.alu_cycles;
    mem_transactions += other.mem_transactions;
    mem_bytes += other.mem_bytes;
    issue_transactions += other.issue_transactions;
    atomic_ops += other.atomic_ops;
    return *this;
  }
};

/// Collects per-lane traces for one warp and merges them into a WarpCost.
///
/// One tracer is meant to be reused for every warp a GPU executes (Gpu owns
/// one): trace a warp, finish() it, reset(), trace the next. reset() keeps
/// the capacity of the lane buffers and of the segment table, so a warp of a
/// shape seen before allocates nothing.
///
/// finish() dedups transaction segments exactly without sorting: a
/// linear-probing hash table maps each segment to the stamp of the last lock
/// step that touched it, so every lane segment costs one expected-O(1)
/// lookup. Stamps grow monotonically across finish() calls (a generation
/// scheme), so entries from earlier warps read as empty and the table is
/// never cleared between warps.
class WarpTracer {
 public:
  /// Access-kind bits carried by each traced access (the cost model ignores
  /// them; the data-race checker consumes them).
  static constexpr std::uint8_t kFlagWrite = 1;
  static constexpr std::uint8_t kFlagAtomic = 2;
  /// Synthetic addresses (LaneCtx::trace_access): modelled but never
  /// materialized in the arena, so they may alias real offsets by accident.
  static constexpr std::uint8_t kFlagSynthetic = 4;

  explicit WarpTracer(std::uint32_t warp_size) : lanes_(warp_size) {}

  /// Directs subsequent record_* calls at lane `lane` (0-based in the warp).
  void begin_lane(std::uint32_t lane) { current_ = &lanes_.at(lane); }

  /// Records one global-memory access of `size` bytes at device address
  /// `addr`. Each access also costs one issue cycle.
  void record_access(std::uint64_t addr, std::uint32_t size,
                     std::uint8_t flags = 0) {
    current_->accesses.push_back(Access{addr, size, flags});
    current_->alu_cycles += 1.0;
  }

  /// Records `cycles` of arithmetic on the current lane.
  void record_alu(double cycles) { current_->alu_cycles += cycles; }

  /// Records one atomic read-modify-write (serialized GPU-wide).
  void record_atomic() { ++atomic_ops_; }

  /// Merges the lane traces into the warp's cost under `config`'s
  /// transaction size. Not const: it stamps the reused segment table. Call
  /// reset() before tracing the next warp.
  ///
  /// Per lane segment of step s: a segment never seen in this warp adds one
  /// mem_transactions and one issue_transactions; one last seen in an
  /// earlier step adds one issue_transactions; one already seen in step s
  /// adds nothing.
  WarpCost finish(const GpuConfig& config);

  /// Clears the lane traces and atomic count, keeping all buffer capacity.
  void reset();

  /// Visits every recorded access of every lane in program order:
  /// fn(lane, addr, size, flags). Used to forward the per-lane access
  /// streams to a WarpAccessObserver.
  template <class Fn>
  void for_each_access(Fn&& fn) const {
    for (std::uint32_t lane = 0; lane < lanes_.size(); ++lane) {
      for (const Access& access : lanes_[lane].accesses) {
        fn(lane, access.addr, access.size, access.flags);
      }
    }
  }

 private:
  struct Access {
    std::uint64_t addr;
    std::uint32_t size;
    std::uint8_t flags = 0;
  };
  struct Lane {
    std::vector<Access> accesses;
    double alu_cycles = 0.0;
  };

  /// Open-addressing map from transaction segment to the stamp of the last
  /// step that touched it. A slot whose stamp predates the current warp's
  /// first stamp is free, which is what clears the table between warps.
  class SegmentTable {
   public:
    enum class Seen { kNever, kEarlierStep, kThisStep };

    /// Starts a warp of `steps` lock steps; stamp(step) is then valid for
    /// step < steps.
    void begin_warp(std::uint64_t steps);
    std::uint64_t stamp(std::uint64_t step) const { return warp_base_ + step; }
    /// Records that `segment` was touched in the step stamped `stamp` and
    /// says when it was last touched before.
    Seen touch(std::uint64_t segment, std::uint64_t stamp);

   private:
    struct Slot {
      std::uint64_t segment = 0;
      std::uint64_t stamp = 0;  // 0: never used
    };
    std::size_t home(std::uint64_t segment) const {
      return static_cast<std::size_t>(
          (segment * 0x9E3779B97F4A7C15ull) >> shift_);
    }
    void grow();

    std::vector<Slot> slots_;
    unsigned shift_ = 64;
    std::uint64_t warp_base_ = 1;  // first stamp of the current warp
    std::uint64_t next_base_ = 1;  // first stamp of the next warp
    std::size_t live_ = 0;         // segments stamped by the current warp
  };

  std::vector<Lane> lanes_;
  Lane* current_ = nullptr;
  std::uint64_t atomic_ops_ = 0;
  std::vector<const Lane*> active_;  // finish(): lanes with steps left
  SegmentTable segments_;
};

/// Converts a warp cost into occupancy time on an SM's timing server: the SM
/// retires warp_parallelism() warp-instructions per cycle and owns a per-SM
/// share of global-memory bandwidth; a memory-bound segment is limited by the
/// latter, a compute-bound one by the former.
sim::DurationPs sm_request_cost(const WarpCost& cost, const GpuConfig& config);

}  // namespace bigk::gpusim
