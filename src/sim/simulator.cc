#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace palette {

namespace {
constexpr std::size_t kHeapArity = 4;
}  // namespace

void Simulator::SiftUp(std::size_t index) {
  const HeapKey key = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / kHeapArity;
    if (!(key < heap_[parent])) {
      break;
    }
    heap_[index] = heap_[parent];
    index = parent;
  }
  heap_[index] = key;
}

void Simulator::PopRoot() {
  const HeapKey moved = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (size == 0) {
    return;
  }
  // Walk the hole down along min-children to a leaf without comparing
  // against `moved`, then sift `moved` up from the leaf. The tail key is
  // almost always late (recently scheduled), so the upward pass is short
  // and the downward pass saves one compare-and-branch per level.
  std::size_t index = 0;
  for (;;) {
    const std::size_t first_child = index * kHeapArity + 1;
    if (first_child >= size) {
      break;
    }
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + kHeapArity, size);
    for (std::size_t child = first_child + 1; child < last_child; ++child) {
      if (heap_[child] < heap_[best]) {
        best = child;
      }
    }
    heap_[index] = heap_[best];
    index = best;
  }
  while (index > 0) {
    const std::size_t parent = (index - 1) / kHeapArity;
    if (!(moved < heap_[parent])) {
      break;
    }
    heap_[index] = heap_[parent];
    index = parent;
  }
  heap_[index] = moved;
}

Simulator::Callback& Simulator::NewSlot(SimTime t) {
  if (t < now_) {
    t = now_;
  }
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = pool_size_++;
    assert(slot <= kSlotMask && "more than 2^24 simultaneously pending events");
    if ((slot >> kChunkShift) == chunks_.size()) {
      chunks_.emplace_back(new Callback[kChunkMask + 1]);
    }
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  heap_.push_back(MakeKey(t, next_seq_++, slot));
  SiftUp(heap_.size() - 1);
  return SlotRef(slot);
}

void Simulator::SetClockObserver(SimTime interval, ClockObserver observer) {
  clock_observer_ = std::move(observer);
  if (!clock_observer_) {
    next_observer_mark_ = SimTime::Max();
    observer_interval_ = SimTime();
    return;
  }
  if (interval < SimTime::FromNanos(1)) {
    interval = SimTime::FromNanos(1);
  }
  observer_interval_ = interval;
  // First mark: the smallest grid multiple strictly after Now(), so a
  // mid-run install never replays marks that already passed.
  const std::int64_t periods = now_.nanos() / interval.nanos();
  next_observer_mark_ = SaturatingAdd(
      SimTime(), SimTime::FromNanos((periods + 1) * interval.nanos()));
}

void Simulator::FireObserverMarksUpTo(SimTime t) {
  while (clock_observer_ && next_observer_mark_ <= t) {
    const SimTime mark = next_observer_mark_;
    const SimTime next = SaturatingAdd(mark, observer_interval_);
    next_observer_mark_ = next;
    clock_observer_(mark);
    if (next == mark) {
      // Saturated advance: `mark` was the final representable mark. Retire
      // the hook so an event at SimTime::Max() cannot re-fire it.
      clock_observer_ = nullptr;
      break;
    }
  }
}

void Simulator::FlushObserverUpTo(SimTime horizon) {
  FireObserverMarksUpTo(horizon);
}

bool Simulator::Step() {
  if (heap_.empty()) {
    return false;
  }
  if (TimeOf(heap_[0]) >= next_observer_mark_) {
    FireObserverMarksUpTo(TimeOf(heap_[0]));
  }
  const HeapKey top = heap_[0];
  PopRoot();
  // The callback executes in place: chunks never move, so events it
  // schedules can grow the pool without invalidating its slot. The slot is
  // recycled only after the callback (and its captures) are destroyed.
  const std::uint32_t slot = SlotOf(top);
  now_ = TimeOf(top);
  ++executed_;
  // (time, seq) identifies the event in the run's total order; folding the
  // pair keeps the digest sensitive to any reordering, not just to which
  // events ran. Slot numbers are pool-recycling artifacts and stay out.
  digest_ = (digest_ ^ static_cast<std::uint64_t>(now_.nanos())) * kFnvPrime;
  digest_ =
      (digest_ ^ (static_cast<std::uint64_t>(top) >> kSlotBits)) * kFnvPrime;
  SlotRef(slot).InvokeOnce();
  free_slots_.push_back(slot);
  return true;
}

std::uint64_t Simulator::Run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && Step()) {
    ++n;
  }
  return n;
}

SimTime FifoResource::Acquire(SimTime duration, SimTime not_before) {
  SimTime start = sim_->Now();
  if (not_before > start) {
    start = not_before;
  }
  if (available_at_ > start) {
    start = available_at_;
  }
  available_at_ = start + duration;
  busy_ += duration;
  return available_at_;
}

void FifoResource::Refund(SimTime amount) {
  const SimTime now = sim_->Now();
  SimTime refund = available_at_ - now;  // time still booked ahead
  if (amount < refund) {
    refund = amount;
  }
  if (refund <= SimTime()) {
    return;
  }
  available_at_ = available_at_ - refund;
  busy_ = busy_ - refund;
}

}  // namespace palette
