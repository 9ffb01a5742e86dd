#include "gpusim/warp_trace.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace bigk::gpusim {

namespace {
constexpr unsigned kInitialTableBits = 10;  // 1024 slots, 16 KiB
}  // namespace

void WarpTracer::SegmentTable::begin_warp(std::uint64_t steps) {
  if (slots_.empty()) {
    slots_.resize(std::size_t{1} << kInitialTableBits);
    shift_ = 64 - kInitialTableBits;
  }
  // Stamps only grow, so a wrap-around would make stale slots look current:
  // before the counter can overflow, free every slot and start over.
  if (steps >= std::numeric_limits<std::uint64_t>::max() - next_base_) {
    for (Slot& slot : slots_) slot.stamp = 0;
    next_base_ = 1;
  }
  warp_base_ = next_base_;
  next_base_ += steps;
  live_ = 0;
}

WarpTracer::SegmentTable::Seen WarpTracer::SegmentTable::touch(
    std::uint64_t segment, std::uint64_t stamp) {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(segment);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.stamp < warp_base_) {
      slot = Slot{segment, stamp};
      if (++live_ * 2 > slots_.size()) grow();
      return Seen::kNever;
    }
    if (slot.segment == segment) {
      if (slot.stamp == stamp) return Seen::kThisStep;
      slot.stamp = stamp;
      return Seen::kEarlierStep;
    }
  }
}

void WarpTracer::SegmentTable::grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  --shift_;
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.stamp < warp_base_) continue;  // free, or left by an older warp
    std::size_t i = home(slot.segment);
    while (slots_[i].stamp != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

WarpCost WarpTracer::finish(const GpuConfig& config) {
  WarpCost cost;
  std::size_t max_steps = 0;
  active_.clear();
  for (const Lane& lane : lanes_) {
    cost.alu_cycles = std::max(cost.alu_cycles, lane.alu_cycles);
    max_steps = std::max(max_steps, lane.accesses.size());
    if (!lane.accesses.empty()) active_.push_back(&lane);
  }

  // DRAM traffic: each *distinct* 128-byte segment the warp touches during
  // this execution segment costs one transaction — segments shared by lanes
  // in the same step coalesce, and segments re-touched in later steps hit
  // the warp-local cache (L1/L2 capturing the immediate spatial/temporal
  // reuse of streaming kernels).
  //
  // Issue cost: per lock-step access, lanes spread over k segments issue k
  // transactions (counted per step, before reuse) — the classic coalescing
  // penalty that serializes scattered warp accesses.
  const std::uint64_t txn = config.mem_transaction_bytes;
  // A 64-bit division per address would cost more than the table lookup;
  // transaction sizes are powers of two in practice, so shift instead.
  const int shift = std::has_single_bit(txn) ? std::countr_zero(txn) : -1;
  auto segment_of = [txn, shift](std::uint64_t addr) {
    return shift >= 0 ? addr >> shift : addr / txn;
  };
  segments_.begin_warp(max_steps);
  for (std::size_t step = 0; !active_.empty(); ++step) {
    const std::uint64_t stamp = segments_.stamp(step);
    // Lanes of a coalesced step mostly repeat the segment just touched;
    // skipping those repeats saves the table lookup and changes no count.
    bool have_previous = false;
    std::uint64_t previous = 0;
    std::size_t kept = 0;
    for (const Lane* lane : active_) {
      const Access& access = lane->accesses[step];
      const std::uint64_t first = segment_of(access.addr);
      const std::uint64_t last = segment_of(
          access.addr + std::max<std::uint32_t>(access.size, 1) - 1);
      for (std::uint64_t seg = first; seg <= last; ++seg) {
        if (have_previous && seg == previous) continue;
        have_previous = true;
        previous = seg;
        switch (segments_.touch(seg, stamp)) {
          case SegmentTable::Seen::kNever:
            ++cost.mem_transactions;
            [[fallthrough]];
          case SegmentTable::Seen::kEarlierStep:
            ++cost.issue_transactions;
            break;
          case SegmentTable::Seen::kThisStep:
            break;
        }
      }
      if (lane->accesses.size() > step + 1) active_[kept++] = lane;
    }
    active_.resize(kept);
  }
  cost.mem_bytes = cost.mem_transactions * txn;
  cost.atomic_ops = atomic_ops_;
  return cost;
}

void WarpTracer::reset() {
  for (Lane& lane : lanes_) {
    lane.accesses.clear();
    lane.alu_cycles = 0.0;
  }
  current_ = nullptr;
  atomic_ops_ = 0;
}

sim::DurationPs sm_request_cost(const WarpCost& cost,
                                const GpuConfig& config) {
  const double issue_cycles =
      cost.alu_cycles + static_cast<double>(cost.issue_transactions) *
                            config.txn_issue_cycles;
  const sim::DurationPs alu = sim::cycles_time(
      issue_cycles / config.warp_parallelism(), config.core_clock_ghz);
  const sim::DurationPs mem =
      sim::transfer_time(cost.mem_bytes, config.mem_gbps_per_sm());
  return std::max(alu, mem);
}

}  // namespace bigk::gpusim
