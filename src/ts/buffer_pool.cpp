#include "ts/buffer_pool.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace uts::ts {

BufferPool::BufferPool(Options options, BlockLog log)
    : options_(std::move(options)), log_(std::move(log)) {}

BufferPool::~BufferPool() {
  // Pages are owned by their stores, which must be destroyed (and Drop their
  // pages) before the pool they share. Engines hold the pool by shared_ptr
  // alongside the store, which enforces that order.
  assert(pages_.empty());
}

Result<std::shared_ptr<BufferPool>> BufferPool::Create(Options options) {
  UTS_ASSIGN_OR_RETURN(BlockLog log, BlockLog::Open(options.spill_dir));
  return std::shared_ptr<BufferPool>(
      new BufferPool(std::move(options), std::move(log)));
}

Status BufferPool::Admit(Page* page, Payload data) {
  assert(page != nullptr);
  std::lock_guard<std::mutex> guard(mutex_);
  assert(page->doubles == 0 && page->data.empty());
  const std::size_t bytes = data.size() * sizeof(double);
  UTS_ASSIGN_OR_RETURN(page->log_offset, log_.Append(data.data(), bytes));
  page->doubles = data.size();
  page->data = std::move(data);
  page->referenced = true;
  pages_.push_back(page);
  stats_.admits += 1;
  stats_.spilled_bytes += bytes;
  stats_.resident_bytes += bytes;
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
  EvictToBudgetLocked(/*keep=*/nullptr);
  return Status::OK();
}

Result<const double*> BufferPool::Pin(Page* page) {
  assert(page != nullptr);
  std::lock_guard<std::mutex> guard(mutex_);
  stats_.pins += 1;
  if (page->data.empty() && page->doubles > 0) {
    // Fault: restore the exact bytes written at admission. The read happens
    // under the pool mutex — see the thread-safety note in the header. The
    // buffer starts uninitialised: the read overwrites all of it, and a
    // short read returns before the buffer is installed.
    Payload data(page->doubles);
    UTS_RETURN_NOT_OK(
        log_.ReadAt(page->log_offset, data.data(), data.size() * sizeof(double)));
    page->data = std::move(data);
    stats_.faults += 1;
    stats_.resident_bytes += page->doubles * sizeof(double);
    stats_.peak_resident_bytes =
        std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
    EvictToBudgetLocked(/*keep=*/page);
  }
  page->pin_count += 1;
  page->referenced = true;
  return static_cast<const double*>(page->data.data());
}

void BufferPool::Unpin(Page* page) {
  assert(page != nullptr);
  std::lock_guard<std::mutex> guard(mutex_);
  assert(page->pin_count > 0);
  page->pin_count -= 1;
  if (page->pin_count == 0 && stats_.resident_bytes > options_.budget_bytes) {
    // A pin released past budget (pins overshoot by design): trim now rather
    // than waiting for the next admission/fault.
    EvictToBudgetLocked(/*keep=*/nullptr);
  }
}

void BufferPool::Drop(Page* page) {
  assert(page != nullptr);
  std::lock_guard<std::mutex> guard(mutex_);
  assert(page->pin_count == 0);
  auto it = std::find(pages_.begin(), pages_.end(), page);
  if (it == pages_.end()) return;
  const std::size_t index = static_cast<std::size_t>(it - pages_.begin());
  if (!page->data.empty()) {
    stats_.resident_bytes -= page->data.size() * sizeof(double);
    page->data.clear();
    page->data.shrink_to_fit();
  }
  pages_.erase(it);
  if (clock_hand_ > index) clock_hand_ -= 1;
  if (!pages_.empty()) clock_hand_ %= pages_.size();
  else clock_hand_ = 0;
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return stats_;
}

void BufferPool::EvictToBudgetLocked(const Page* keep) {
  if (pages_.empty()) return;
  // Second-chance clock: one full lap grants every referenced page its
  // reprieve, a second lap evicts whatever is still unpinned. Beyond two
  // laps nothing changes, so stop there even if still over budget (the
  // remainder is pinned, which the budget does not bound).
  std::size_t steps = 2 * pages_.size();
  while (stats_.resident_bytes > options_.budget_bytes && steps-- > 0) {
    Page* victim = pages_[clock_hand_];
    clock_hand_ = (clock_hand_ + 1) % pages_.size();
    if (victim == keep || victim->pin_count > 0 || victim->data.empty()) {
      continue;
    }
    if (victim->referenced) {
      victim->referenced = false;
      continue;
    }
    stats_.resident_bytes -= victim->data.size() * sizeof(double);
    victim->data.clear();
    victim->data.shrink_to_fit();
    stats_.evictions += 1;
  }
}

}  // namespace uts::ts
