/// \file soa_store.hpp
/// \brief Block-structured structure-of-arrays backing store for a
/// fixed-length time-series collection.
///
/// The evaluation of Dallachiesa et al. is dominated by all-pairs distance
/// sweeps (10-NN ground truth, threshold calibration, PRQ scoring). Those
/// kernels are memory-bound, so series values are packed row-major with a
/// fixed stride — but no longer into one flat immortal allocation: a store
/// is a sequence of fixed-size row blocks (ts/row_block.hpp geometry).
/// Resident stores hold a single block covering every row; stores built
/// against a `ts::BufferPool` split into `DefaultBlockRows(stride)`-row
/// blocks that spill to disk and page back on demand, so collections larger
/// than the memory budget still scan.
///
/// Consumers never touch raw storage: `ts::StoreView` pins blocks and hands
/// out `ts::RowBlock`s (the only shape the distance kernels accept). The
/// `resident_*` accessors below are the one escape hatch — valid only for
/// unpaged stores, used by the packer itself and guarded against elsewhere
/// by tools/check_store_raw_access.py.
///
/// Construction is checked, not asserted: `FromPacked`/`FromRows` return
/// `Result<SoaStore>` and reject a zero stride or a value count that is not
/// a whole number of rows in Release builds too.

#ifndef UTS_TS_SOA_STORE_HPP_
#define UTS_TS_SOA_STORE_HPP_

#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "ts/buffer_pool.hpp"
#include "ts/row_block.hpp"

namespace uts::ts {

/// \brief Row-major values of `rows()` series of equal length `stride()`,
/// held as pool-paged blocks (or one resident block when built without a
/// pool).
class SoaStore {
 public:
  /// Fills row `row` of a store under construction into `out`
  /// (`out.size() == stride()`); called in ascending row order. Must write
  /// every element: paged block buffers start uninitialised.
  using RowFn = std::function<void(std::size_t row, std::span<double> out)>;

  SoaStore() = default;
  ~SoaStore() { ReleasePages(); }

  SoaStore(SoaStore&& other) noexcept = default;
  SoaStore& operator=(SoaStore&& other) noexcept {
    if (this != &other) {
      ReleasePages();
      values_ = std::move(other.values_);
      pool_ = std::move(other.pool_);
      pages_ = std::move(other.pages_);
      stride_ = other.stride_;
      rows_ = other.rows_;
      block_rows_ = other.block_rows_;
    }
    return *this;
  }
  SoaStore(const SoaStore&) = delete;
  SoaStore& operator=(const SoaStore&) = delete;

  /// Build from packed row-major values. Fails with InvalidArgument when
  /// `stride == 0` with non-empty values, or `values.size()` is not a
  /// multiple of `stride`. With a `pool`, the values are split into blocks
  /// of `block_rows` rows (0 = DefaultBlockRows(stride)) and admitted to
  /// the pool; without one the store stays resident as a single block.
  static Result<SoaStore> FromPacked(std::vector<double> values,
                                     std::size_t stride,
                                     std::shared_ptr<BufferPool> pool = nullptr,
                                     std::size_t block_rows = 0);

  /// Build by streaming rows through `fill`, one block at a time — with a
  /// `pool`, at most one block's buffer is ever live during construction,
  /// so building a paged store never needs the packed collection in memory.
  /// Same validation and blocking rules as FromPacked.
  static Result<SoaStore> FromRows(std::size_t rows, std::size_t stride,
                                   const RowFn& fill,
                                   std::shared_ptr<BufferPool> pool = nullptr,
                                   std::size_t block_rows = 0);

  /// Number of series.
  std::size_t rows() const { return rows_; }

  /// Length of every series (elements between consecutive rows).
  std::size_t stride() const { return stride_; }

  /// True iff the store holds no series.
  bool empty() const { return rows_ == 0; }

  /// True iff the store pages through a buffer pool.
  bool paged() const { return pool_ != nullptr; }

  /// The pool backing a paged store (null when resident).
  const std::shared_ptr<BufferPool>& pool() const { return pool_; }

  /// Rows per block (the last block may be shorter). Equals rows() for a
  /// resident store.
  std::size_t block_rows() const { return block_rows_; }

  /// Number of blocks (1 for a non-empty resident store).
  std::size_t num_blocks() const {
    if (rows_ == 0) return 0;
    return (rows_ + block_rows_ - 1) / block_rows_;
  }

  /// Global index of the first row of block `b`.
  std::size_t block_first_row(std::size_t b) const { return b * block_rows_; }

  /// Row count of block `b`; precondition b < num_blocks().
  std::size_t block_row_count(std::size_t b) const {
    assert(b < num_blocks());
    const std::size_t first = block_first_row(b);
    const std::size_t left = rows_ - first;
    return left < block_rows_ ? left : block_rows_;
  }

  /// Row view of series i; precondition: !paged() and i < rows(). Paged
  /// consumers go through ts::StoreView.
  std::span<const double> resident_row(std::size_t i) const {
    assert(!paged() && i < rows_);
    return {values_.data() + i * stride_, stride_};
  }

  /// The packed values, row-major; precondition: !paged().
  std::span<const double> resident_values() const {
    assert(!paged());
    return values_;
  }

  /// Raw base pointer of a resident store; precondition: !paged().
  const double* resident_data() const {
    assert(!paged());
    return values_.data();
  }

 private:
  friend class StoreView;

  void ReleasePages() {
    if (pool_) {
      for (auto& page : pages_) pool_->Drop(page.get());
    }
    pages_.clear();
    pool_.reset();
  }

  std::vector<double> values_;  ///< Resident payload (unpaged stores only).
  std::shared_ptr<BufferPool> pool_;
  std::vector<std::unique_ptr<BufferPool::Page>> pages_;  ///< One per block.
  std::size_t stride_ = 0;
  std::size_t rows_ = 0;
  std::size_t block_rows_ = 0;
};

}  // namespace uts::ts

#endif  // UTS_TS_SOA_STORE_HPP_
