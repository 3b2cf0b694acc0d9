// Build governor: deadline, cooperative cancellation, and node accounting
// for long-running symbolic constructions.
//
// A Governor is owned by the caller that wants a bound on a construction
// (CLI, experiment harness, tests) and handed to the workers via
// dd::DdConfig / power::AddModelOptions. Workers call the cheap tick
// entry points at natural progress points (node allocations, level swaps,
// gate iterations); the governor turns those ticks into bounded-interval
// checks of the deadline and the cancellation flag, throwing
// DeadlineExceeded / CancelledError from the *worker's* stack so the
// construction unwinds through exception-safe code instead of being killed.
//
// Contract:
//  * on_allocation() is called once per decision-diagram node allocation
//    outside in-place reordering; it runs a full check() at least every
//    kCheckInterval ticks, so a runaway apply stops within ~10^3
//    allocations (well under a millisecond) of the deadline or of a
//    cancellation request.
//  * checkpoint() is a full check; workers call it at coarse safe points
//    (per gate summed, per adjacent-level swap) where an immediate stop is
//    cheap and the diagram is structurally consistent.
//  * Thread-safety: any thread may call request_cancellation() while a
//    build polls the governor on another thread, and one Governor may be
//    shared by several managers polling it from different threads — the
//    tick counters are relaxed atomics and the peak tracker is a CAS max.
//    Arm the deadline and any injected fault *before* workers start; those
//    fields are plain loads on the hot path.
//  * Fault injection (tests): inject_fault() arms a one-shot ResourceError
//    or CancelledError fired at the Nth subsequent allocation tick, which is
//    how the exception-safety of DdManager is exercised deterministically.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace cfpm {

/// Kind of one-shot fault armed by inject_fault (kNone disarms).
enum class FaultKind : std::uint8_t { kNone, kResource, kCancel };

class Governor {
 public:
  /// Full checks happen at least once per this many allocation ticks.
  static constexpr std::uint64_t kCheckInterval = 1024;

  Governor() = default;

  // ----- deadline ----------------------------------------------------------

  /// Arms a wall-clock deadline `budget` from now. A zero budget expires
  /// immediately (useful for deterministic tests of the expired path).
  void set_deadline(std::chrono::milliseconds budget) {
    deadline_ = Clock::now() + budget;
    has_deadline_ = true;
  }
  void clear_deadline() noexcept { has_deadline_ = false; }
  bool has_deadline() const noexcept { return has_deadline_; }
  bool deadline_expired() const {
    return has_deadline_ && Clock::now() >= deadline_;
  }
  /// Seconds until the deadline (negative when past it, +inf when unarmed).
  double remaining_seconds() const;

  // ----- cooperative cancellation ------------------------------------------

  void request_cancellation() noexcept {
    cancelled_.store(true, std::memory_order_relaxed);
  }
  bool cancellation_requested() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

  // ----- accounting ---------------------------------------------------------

  /// Records the manager's live-node count; keeps the high-water mark
  /// (CAS max, so concurrent workers never lose a larger observation).
  void note_live_nodes(std::size_t live) noexcept {
    std::size_t cur = peak_live_nodes_.load(std::memory_order_relaxed);
    while (live > cur && !peak_live_nodes_.compare_exchange_weak(
                             cur, live, std::memory_order_relaxed)) {
    }
  }
  std::size_t peak_live_nodes() const noexcept {
    return peak_live_nodes_.load(std::memory_order_relaxed);
  }
  std::uint64_t allocation_ticks() const noexcept {
    return allocations_.load(std::memory_order_relaxed);
  }
  std::uint64_t checks() const noexcept {
    return checks_.load(std::memory_order_relaxed);
  }

  // ----- polling ------------------------------------------------------------

  /// Per-allocation tick: counts, fires any armed fault, and runs a full
  /// check() every kCheckInterval ticks. Cheap enough for the allocation
  /// hot path (one relaxed increment and two compares on the fast path).
  /// With N workers sharing the governor the check cadence is global: some
  /// worker runs a full check at least once per kCheckInterval total
  /// allocations, which is exactly the bound the serial contract gives.
  void on_allocation() {
    const std::uint64_t n =
        allocations_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (fault_kind_ != FaultKind::kNone && n >= fault_at_) {
      // One-shot across threads: only the worker that disarms it throws.
      const FaultKind kind = fault_kind_.exchange(FaultKind::kNone);
      if (kind != FaultKind::kNone) fire_fault(kind, n);
    }
    if (since_check_.fetch_add(1, std::memory_order_relaxed) + 1 >=
        kCheckInterval) {
      since_check_.store(0, std::memory_order_relaxed);
      check();
    }
  }

  /// Full check at a coarse safe point; throws CancelledError or
  /// DeadlineExceeded when the corresponding condition holds.
  void checkpoint();

  // ----- fault injection (tests) -------------------------------------------

  /// Arms a one-shot fault fired at allocation tick `at_allocation`
  /// (absolute count; arm before the run and use 1-based Nth-allocation
  /// semantics). kNone disarms.
  void inject_fault(FaultKind kind, std::uint64_t at_allocation) noexcept {
    fault_kind_ = kind;
    fault_at_ = at_allocation;
  }

 private:
  using Clock = std::chrono::steady_clock;

  void check();
  [[noreturn]] void fire_fault(FaultKind kind, std::uint64_t at_tick);

  // deadline_ itself is a plain field: armed before polling starts (see the
  // thread-safety note above); has_deadline_ is atomic so a late-armed
  // deadline is at worst seen a few ticks later, never torn.
  Clock::time_point deadline_{};
  std::atomic<bool> has_deadline_{false};
  std::atomic<bool> cancelled_{false};

  std::atomic<std::uint64_t> allocations_{0};
  std::atomic<std::uint64_t> since_check_{0};
  std::atomic<std::uint64_t> checks_{0};
  /// Allocation ticks already metered (see check()).
  std::atomic<std::uint64_t> polls_flushed_{0};
  std::atomic<std::size_t> peak_live_nodes_{0};

  std::atomic<FaultKind> fault_kind_{FaultKind::kNone};
  std::uint64_t fault_at_ = 0;  // armed before the run, like deadline_
};

}  // namespace cfpm
