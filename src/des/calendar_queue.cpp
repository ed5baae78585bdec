#include "des/calendar_queue.hpp"

#include <algorithm>
#include <cmath>

namespace stosched {

namespace {

/// Descending (time, seq): keeps each bucket's minimum at the back.
bool after(const Event& x, const Event& y) noexcept {
  if (x.time != y.time) return x.time > y.time;
  return x.seq > y.seq;
}

bool before(const Event& x, const Event& y) noexcept { return after(y, x); }

std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t c = 16;
  while (c < n) c <<= 1;
  return c;
}

/// Cap on time / width before the double -> uint64 cast. Values at or past
/// 2^63 make the cast UB, so everything beyond this collapses into one
/// far-future slot — harmless, because bucket membership only affects
/// performance: each bucket stays sorted, and ordering is decided by
/// (time, seq) comparisons, never by slot arithmetic.
constexpr double kMaxSlot = 4.0e18;

}  // namespace

CalendarEventQueue::CalendarEventQueue() : buckets_(16), bucket_mask_(15) {}

CalendarEventQueue::CalendarEventQueue(std::size_t capacity_hint)
    : CalendarEventQueue() {
  reserve(capacity_hint);
}

CalendarEventQueue::~CalendarEventQueue() { flush_popped(); }

void CalendarEventQueue::flush_popped() noexcept {
  if (popped_ != 0) {
    add_process_events(popped_);
    popped_ = 0;
  }
}

void CalendarEventQueue::clear() noexcept {
  for (auto& bucket : buckets_) bucket.clear();
  size_ = 0;
  next_seq_ = 0;
  cur_slot_ = 0;
  width_ = 1.0;
  min_valid_ = false;
  flush_popped();
  STOSCHED_CONTRACT_CODE(has_last_pop_ = false;);
}

void CalendarEventQueue::reserve(std::size_t n) {
  // Steady-state target is ~2 resident events per bucket (the grow trigger
  // in push()), so pre-size the bucket array to hint / 2.
  const std::size_t want = round_up_pow2(std::max<std::size_t>(16, n / 2));
  if (want > buckets_.size()) resize_buckets(want);
}

std::uint64_t CalendarEventQueue::slot_of(double time) const noexcept {
  const double s = time / width_;
  if (s >= kMaxSlot) return static_cast<std::uint64_t>(kMaxSlot);
  return static_cast<std::uint64_t>(s);
}

void CalendarEventQueue::insert(const Event& e) {
  auto& bucket = buckets_[slot_of(e.time) & bucket_mask_];
  bucket.insert(std::upper_bound(bucket.begin(), bucket.end(), e, after), e);
}

void CalendarEventQueue::push(double time, std::uint32_t type, std::uint32_t a,
                              std::uint64_t b) {
  STOSCHED_ASSERT(time >= 0.0, "calendar queue requires nonnegative times");
  const Event e{time, next_seq_++, type, a, b};
  insert(e);
  ++size_;
  min_valid_ = false;
  // A new event may precede everything resident: rewind the year cursor so
  // the invariant (no resident event has slot < cur_slot_) holds.
  const std::uint64_t slot = slot_of(time);
  if (slot < cur_slot_) cur_slot_ = slot;
  if (size_ > 2 * buckets_.size()) resize_buckets(buckets_.size() * 2);
}

const Event& CalendarEventQueue::locate_min() const {
  STOSCHED_ASSERT(size_ > 0, "top()/pop() on empty calendar queue");
  if (min_valid_) return buckets_[min_bucket_].back();
  // Year scan: walk slots upward from the cursor. All events of one slot
  // live in one bucket (slot & mask is a function of the slot), and each
  // bucket's back is its (time, seq) minimum — so the first back whose slot
  // matches the scanned slot is the global minimum.
  const std::size_t nbuckets = buckets_.size();
  for (std::size_t i = 0; i < nbuckets; ++i) {
    const std::uint64_t s = cur_slot_ + i;
    const auto& bucket = buckets_[s & bucket_mask_];
    if (!bucket.empty() && slot_of(bucket.back().time) == s) {
      min_bucket_ = s & bucket_mask_;
      min_slot_ = s;
      min_valid_ = true;
      return bucket.back();
    }
  }
  // Sparse tail: nothing within one calendar year of the cursor. Direct
  // scan over all bucket minima (O(nbuckets), amortized away by resizing).
  std::size_t best = nbuckets;
  for (std::size_t bkt = 0; bkt < nbuckets; ++bkt) {
    const auto& bucket = buckets_[bkt];
    if (bucket.empty()) continue;
    if (best == nbuckets || before(bucket.back(), buckets_[best].back()))
      best = bkt;
  }
  min_bucket_ = best;
  min_slot_ = slot_of(buckets_[best].back().time);
  min_valid_ = true;
  return buckets_[best].back();
}

const Event& CalendarEventQueue::top() const { return locate_min(); }

Event CalendarEventQueue::pop() {
  const Event out = locate_min();
  // Pop monotonicity — the same (time, seq) contract as DaryEventHeap,
  // asserted on the calendar side of the shootout so order-equivalence is
  // checked structurally in every contract build, not only by the property
  // test in tests/test_des.cpp.
  STOSCHED_CONTRACT_CODE(
      STOSCHED_INVARIANT(
          !has_last_pop_ || out.time > last_pop_time_ ||
              (out.time == last_pop_time_ && out.seq > last_pop_seq_),
          "calendar queue popped out of (time, seq) order");
      has_last_pop_ = true; last_pop_time_ = out.time;
      last_pop_seq_ = out.seq;);
  buckets_[min_bucket_].pop_back();
  --size_;
  ++popped_;
  cur_slot_ = min_slot_;  // monotone pops: nothing resident precedes this
  min_valid_ = false;
  if (buckets_.size() > 16 && size_ < buckets_.size() / 2)
    resize_buckets(buckets_.size() / 2);
  return out;
}

void CalendarEventQueue::resize_buckets(std::size_t nbuckets) {
  std::vector<Event> all;
  all.reserve(size_);
  for (auto& bucket : buckets_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  buckets_.resize(nbuckets);
  buckets_.shrink_to_fit();
  bucket_mask_ = nbuckets - 1;
  min_valid_ = false;
  if (all.empty()) {
    cur_slot_ = 0;
    return;
  }
  // Re-estimate the bucket width as the mean gap between resident events,
  // so one "day" holds ~1 event and the year scan stays O(1) amortized.
  double lo = all.front().time;
  double hi = lo;
  for (const Event& e : all) {
    lo = std::min(lo, e.time);
    hi = std::max(hi, e.time);
  }
  const double range = hi - lo;
  width_ = range > 0.0 ? range / static_cast<double>(all.size()) : 1.0;
  cur_slot_ = slot_of(lo);
  for (const Event& e : all) insert(e);
}

}  // namespace stosched
