// Discrete-event simulation engine.
//
// The paper's evaluation ran on a 48-VM Azure cluster with a 1 Gbps-throttled
// network; this repository reproduces those experiments on a deterministic
// discrete-event simulator. Events with equal timestamps execute in
// scheduling order (a monotonically increasing sequence number breaks ties),
// so runs are exactly reproducible.
//
// The event core is allocation-free in steady state:
//   * Callbacks are InlineFunction (small-buffer-optimized) rather than
//     std::function, so captures up to kMaxEventCaptureBytes live inline in
//     the event pool — a capture that does not fit fails to compile instead
//     of silently heap-allocating per event.
//   * Pending events live in a chunked slot pool reused through a free
//     list. Chunks never move, so the running callback executes in place —
//     no per-event relocation — and callbacks it schedules can grow the
//     pool without invalidating it. The scheduling order is maintained by
//     an explicit 4-ary min-heap of packed 128-bit (time, seq, slot) keys,
//     so sift operations move single integers, never the callbacks.
// Ordering is the exact (time, seq) total order of the original
// std::priority_queue implementation; since the order is total, heap arity
// cannot change the execution sequence and runs stay bit-identical.
#ifndef PALETTE_SRC_SIM_SIMULATOR_H_
#define PALETTE_SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/types.h"

namespace palette {

class Simulator {
 public:
  // Sized for the platform's invocation continuations: a this-pointer, an
  // interned instance id, two shared_ptrs, and a std::function completion
  // callback. InlineFunction static_asserts every scheduled callable fits.
  static constexpr std::size_t kMaxEventCaptureBytes = 96;
  using Callback = InlineFunction<kMaxEventCaptureBytes>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Schedules `cb` at absolute simulated time `t`. Scheduling in the past is
  // clamped to Now() (the event fires after currently pending events at
  // Now()). Templated so the callable is emplaced directly into its pool
  // slot — the capture is constructed exactly once, with no type-erased
  // relocation on the way in. (A capture whose copy/move constructor itself
  // schedules events would invalidate the slot reference; captures must not
  // run user code when copied.)
  template <typename F>
  void At(SimTime t, F&& cb) {
    NewSlot(t).Emplace(std::forward<F>(cb));
  }

  // Schedules `cb` at Now() + delay, saturating instead of wrapping: a
  // huge delay (a deadline built from SimTime::Max(), a "never" retry
  // backoff) lands at the end of time, not in the past.
  template <typename F>
  void After(SimTime delay, F&& cb) {
    At(SaturatingAdd(now_, delay), std::forward<F>(cb));
  }

  SimTime Now() const { return now_; }

  // Executes a single event; returns false when the queue is empty.
  bool Step();

  // Runs until no events remain (or until `max_events` as a runaway guard).
  // Returns the number of events executed.
  std::uint64_t Run(std::uint64_t max_events = UINT64_MAX);

  std::uint64_t executed_events() const { return executed_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending_events() const { return heap_.size(); }

  // Periodic *event-free* clock hook, the telemetry sampler's driver
  // (src/obs/timeseries.h). The observer fires at every mark on the
  // arithmetic grid (interval, 2*interval, ...): Step() invokes it for all
  // marks <= t immediately before executing the next event at time t, so
  // at the moment it fires every event strictly before the mark has
  // executed and none at-or-after it has. Because the hook schedules no
  // events and never touches the heap, executed_events() and
  // event_digest() are bit-identical with an observer installed or not —
  // telemetry cannot perturb a run by construction. The observer MUST NOT
  // schedule events or otherwise mutate the simulator. Marks in an idle
  // tail (after the last event) never fire from Step(); the run harness
  // calls FlushObserverUpTo() to emit them. `interval` is clamped to
  // >= 1ns; the first mark is the first grid multiple strictly after
  // Now(). Passing a null observer uninstalls the hook.
  using ClockObserver = std::function<void(SimTime mark)>;
  void SetClockObserver(SimTime interval, ClockObserver observer);
  // Fires every remaining mark <= horizon. Idempotent past the horizon.
  void FlushObserverUpTo(SimTime horizon);
  SimTime next_observer_mark() const { return next_observer_mark_; }

  // Order-sensitive FNV-1a digest over the (time, seq) pair of every event
  // executed so far. Two runs of the same model must produce equal digests
  // — the bit-reproducibility witness a sharded run folds across its
  // worker groups and CI asserts across --shards counts.
  std::uint64_t event_digest() const { return digest_; }

 private:
  // The whole heap ordering key — (time, seq) plus the callback's pool
  // slot — packs into one 128-bit integer: sign-biased time in the high 64
  // bits, then the 40-bit sequence number, then the 24-bit slot. Because
  // seq is unique per event, unsigned comparison of the packed key is
  // exactly the (time, seq) tie-break of the original std::priority_queue,
  // and every heap comparison compiles to one branchless 128-bit compare.
  // Bounds: 2^40 events per run and 2^24 simultaneously pending events —
  // both orders of magnitude past anything the experiments reach (16.7M
  // pending callbacks alone would hold ~1.6 GiB of pool).
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;

  using HeapKey = unsigned __int128;  // gcc/clang builtin; this repo targets
                                      // the Linux cpp toolchain only

  static HeapKey MakeKey(SimTime t, std::uint64_t seq, std::uint32_t slot) {
    const std::uint64_t biased_time =
        static_cast<std::uint64_t>(t.nanos()) ^ (std::uint64_t{1} << 63);
    return (static_cast<HeapKey>(biased_time) << 64) | (seq << kSlotBits) |
           slot;
  }
  static SimTime TimeOf(HeapKey key) {
    return SimTime::FromNanos(static_cast<std::int64_t>(
        static_cast<std::uint64_t>(key >> 64) ^ (std::uint64_t{1} << 63)));
  }
  static std::uint32_t SlotOf(HeapKey key) {
    return static_cast<std::uint32_t>(key) & kSlotMask;
  }

  // Slots live in fixed-size chunks so growing the pool never moves
  // existing callbacks (a callback may schedule events while executing
  // from its own slot).
  static constexpr std::size_t kChunkShift = 10;  // 1024 slots per chunk
  static constexpr std::size_t kChunkMask = (std::size_t{1} << kChunkShift) - 1;

  // Catch-up loop for the clock observer (out of line: Step()'s hot path
  // only pays the one next_observer_mark_ compare when no mark is due).
  void FireObserverMarksUpTo(SimTime t);

  void SiftUp(std::size_t index);
  // Removes heap_[0] and restores the heap property (Floyd's
  // sift-to-leaf-then-up, which skips per-level compares against the
  // relocated tail key).
  void PopRoot();
  // Books a pool slot and heap entry for time `t` (clamped to Now()) and
  // returns the slot for the caller to fill.
  Callback& NewSlot(SimTime t);

  Callback& SlotRef(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  static constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
  static constexpr std::uint64_t kFnvPrime = 1099511628211ull;

  SimTime now_;
  // Max() doubles as "no observer installed": the Step() fast path is a
  // single always-false integer compare in that case.
  SimTime next_observer_mark_ = SimTime::Max();
  SimTime observer_interval_;
  ClockObserver clock_observer_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t digest_ = kFnvOffset;
  std::vector<HeapKey> heap_;  // explicit 4-ary min-heap
  std::vector<std::unique_ptr<Callback[]>> chunks_;  // slot storage
  std::uint32_t pool_size_ = 0;  // slots handed out so far
  std::vector<std::uint32_t> free_slots_;
};

// A single-server FIFO resource: one CPU core or one NIC direction.
// Acquire() books the next free slot and returns the completion time; the
// caller schedules its continuation at that time.
class FifoResource {
 public:
  explicit FifoResource(Simulator* sim) : sim_(sim) {}

  // Books `duration` of exclusive use starting no earlier than now and no
  // earlier than `not_before`; returns when the booking completes.
  SimTime Acquire(SimTime duration, SimTime not_before = SimTime());

  // Returns un-executed booked time to the resource (invocation
  // cancellation): shrinks the busy horizon by up to `amount`, never below
  // Now(), so the next Acquire starts correspondingly earlier. Busy-time
  // accounting is reduced by the same span — cancelled work was never
  // actually computed.
  void Refund(SimTime amount);

  SimTime available_at() const { return available_at_; }
  // Total booked (busy) time; utilization = busy / horizon.
  SimTime busy_time() const { return busy_; }

 private:
  Simulator* sim_;
  SimTime available_at_;
  SimTime busy_;
};

}  // namespace palette

#endif  // PALETTE_SRC_SIM_SIMULATOR_H_
