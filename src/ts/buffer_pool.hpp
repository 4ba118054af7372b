/// \file buffer_pool.hpp
/// \brief Pin-counted block cache with clock eviction over an append-only
/// spill log — the storage tier behind larger-than-RAM `ts::SoaStore`s.
///
/// Stores split their columns into fixed-size blocks (ts/row_block.hpp) and
/// register each block as a `Page` here. Admission writes the block's bytes
/// to the pool's `ts::BlockLog` immediately — eviction is then a pure drop
/// of the in-memory copy, and a later fault re-reads exactly the bytes that
/// were written, so paging can never change a result bit.
///
/// ## Pin discipline
///
/// `Pin` returns the block's resident base pointer and guarantees it stays
/// valid until the matching `Unpin` (callers use the RAII wrappers of
/// ts/store_view.hpp rather than these raw calls). Pins always succeed,
/// even past the budget: correctness is never traded for the cap — the
/// budget bounds the *unpinned* cache, and a kernel that momentarily pins
/// more blocks than fit (e.g. the four-store PROUD general sweep) simply
/// overshoots until its pins drop. Eviction considers only unpinned pages,
/// second-chance (clock) order.
///
/// ## Thread-safety
///
/// Every method takes one internal mutex; faults read the spill log while
/// holding it. Concurrent pins from ParallelFor workers therefore serialize
/// on the pool — acceptable because the engines pin once per chunk (a few
/// MiB of kernel work per lock acquisition), and trivially race-free.
///
/// ## Determinism
///
/// The pool changes *where* block bytes live, never their values: admission
/// copies, eviction drops, faults restore the admitted bytes. Combined with
/// block geometry being a pure function of the stride, every engine result
/// over a paged store is bitwise identical to the resident store at any
/// budget and thread count (tests/out_of_core_test.cpp pins this).

#ifndef UTS_TS_BUFFER_POOL_HPP_
#define UTS_TS_BUFFER_POOL_HPP_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "ts/block_log.hpp"

namespace uts::ts {

/// \brief std::allocator whose value-less construct default-initializes, so
/// a vector of doubles sized with it is left uninitialised. A fault buffer
/// is overwritten by the spill read in full; zero-filling it first would
/// write every byte twice.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// \brief Shared block cache: pages are owned by their stores and
/// registered here; the pool owns the budget, the clock and the spill log.
class BufferPool {
 public:
  /// \brief Pool configuration.
  struct Options {
    /// Bytes of block payload the pool may keep resident beyond what pins
    /// require. 0 = evict everything unpinned (useful in stress tests).
    std::size_t budget_bytes = std::size_t{256} << 20;

    /// Directory of the spill file (empty = $TMPDIR, else /tmp). The file
    /// is unlinked at creation, so nothing survives the pool.
    std::string spill_dir;
  };

  /// \brief A block's payload; sizing one leaves it uninitialised.
  using Payload = std::vector<double, DefaultInitAllocator<double>>;

  /// \brief Lifecycle counters; snapshot via stats().
  struct Stats {
    std::uint64_t admits = 0;        ///< Blocks registered.
    std::uint64_t faults = 0;        ///< Pins that re-read the spill log.
    std::uint64_t evictions = 0;     ///< Resident copies dropped.
    std::uint64_t pins = 0;          ///< Total Pin calls.
    std::uint64_t spilled_bytes = 0; ///< Bytes appended to the log.
    std::size_t resident_bytes = 0;  ///< Current in-memory payload bytes.
    std::size_t peak_resident_bytes = 0;  ///< High-water resident_bytes.
  };

  /// \brief One registered block. Owned by the store that created it (at a
  /// stable address); all fields are managed by the pool under its mutex.
  class Page {
   public:
    Page() = default;
    Page(const Page&) = delete;
    Page& operator=(const Page&) = delete;

   private:
    friend class BufferPool;
    Payload data;                   ///< Resident copy; empty when evicted.
    std::size_t doubles = 0;        ///< Payload element count.
    std::uint64_t log_offset = 0;   ///< Address in the spill log.
    std::uint32_t pin_count = 0;    ///< Outstanding pins.
    bool referenced = false;        ///< Clock second-chance bit.
  };

  /// Create a pool and open its spill log.
  static Result<std::shared_ptr<BufferPool>> Create(Options options);

  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Register `page` with `data` as its immutable payload: the bytes are
  /// appended to the spill log now (so eviction is a pure drop), the copy
  /// stays resident, and unpinned pages are evicted down to the budget.
  Status Admit(Page* page, Payload data);

  /// Pin the page resident and return its base pointer, faulting the
  /// payload back from the spill log when evicted. Always succeeds while
  /// the log is healthy, budget notwithstanding (see file comment).
  Result<const double*> Pin(Page* page);

  /// Release one pin. The payload stays cached until eviction needs it.
  void Unpin(Page* page);

  /// Unregister `page` (store destruction); frees its resident copy. The
  /// page must have no outstanding pins.
  void Drop(Page* page);

  /// The configured budget in bytes.
  std::size_t budget_bytes() const { return options_.budget_bytes; }

  /// Counter snapshot (thread-safe).
  Stats stats() const;

 private:
  explicit BufferPool(Options options, BlockLog log);

  /// Drop unpinned, unreferenced resident pages (clock order) until
  /// resident_bytes_ <= budget or nothing evictable remains. `keep` is
  /// exempt (the page being admitted/faulted this call).
  void EvictToBudgetLocked(const Page* keep);

  mutable std::mutex mutex_;
  Options options_;
  BlockLog log_;
  std::vector<Page*> pages_;  ///< Clock ring of registered pages.
  std::size_t clock_hand_ = 0;
  Stats stats_;
};

}  // namespace uts::ts

#endif  // UTS_TS_BUFFER_POOL_HPP_
