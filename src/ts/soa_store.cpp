#include "ts/soa_store.hpp"

#include <string>

namespace uts::ts {

namespace {

Status ValidateShape(std::size_t value_count, std::size_t stride) {
  if (stride == 0 && value_count != 0) {
    return Status::InvalidArgument(
        "SoaStore: stride must be > 0 for a non-empty store");
  }
  if (stride > 0 && value_count % stride != 0) {
    return Status::InvalidArgument(
        "SoaStore: value count " + std::to_string(value_count) +
        " is not a multiple of stride " + std::to_string(stride));
  }
  return Status::OK();
}

std::size_t EffectiveBlockRows(std::size_t stride, std::size_t block_rows) {
  if (block_rows > 0) return block_rows;
  return DefaultBlockRows(stride);
}

}  // namespace

Result<SoaStore> SoaStore::FromPacked(std::vector<double> values,
                                      std::size_t stride,
                                      std::shared_ptr<BufferPool> pool,
                                      std::size_t block_rows) {
  UTS_RETURN_NOT_OK(ValidateShape(values.size(), stride));
  SoaStore store;
  store.stride_ = stride;
  store.rows_ = stride == 0 ? 0 : values.size() / stride;
  if (pool == nullptr || store.rows_ == 0) {
    store.values_ = std::move(values);
    store.block_rows_ = store.rows_;
    return store;
  }
  store.pool_ = std::move(pool);
  store.block_rows_ = EffectiveBlockRows(stride, block_rows);
  const std::size_t blocks = store.num_blocks();
  store.pages_.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t first = store.block_first_row(b);
    const std::size_t count = store.block_row_count(b);
    BufferPool::Payload payload(
        values.begin() + static_cast<std::ptrdiff_t>(first * stride),
        values.begin() + static_cast<std::ptrdiff_t>((first + count) * stride));
    auto page = std::make_unique<BufferPool::Page>();
    UTS_RETURN_NOT_OK(store.pool_->Admit(page.get(), std::move(payload)));
    store.pages_.push_back(std::move(page));
  }
  return store;
}

Result<SoaStore> SoaStore::FromRows(std::size_t rows, std::size_t stride,
                                    const RowFn& fill,
                                    std::shared_ptr<BufferPool> pool,
                                    std::size_t block_rows) {
  if (rows > 0 && stride == 0) {
    return Status::InvalidArgument(
        "SoaStore: stride must be > 0 for a non-empty store");
  }
  if (pool == nullptr || rows == 0) {
    std::vector<double> values(rows * stride);
    for (std::size_t r = 0; r < rows; ++r) {
      fill(r, std::span<double>(values.data() + r * stride, stride));
    }
    return FromPacked(std::move(values), stride);
  }
  SoaStore store;
  store.stride_ = stride;
  store.rows_ = rows;
  store.pool_ = std::move(pool);
  store.block_rows_ = EffectiveBlockRows(stride, block_rows);
  const std::size_t blocks = store.num_blocks();
  store.pages_.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t first = store.block_first_row(b);
    const std::size_t count = store.block_row_count(b);
    BufferPool::Payload payload(count * stride);  // every row is filled
    for (std::size_t r = 0; r < count; ++r) {
      fill(first + r, std::span<double>(payload.data() + r * stride, stride));
    }
    auto page = std::make_unique<BufferPool::Page>();
    UTS_RETURN_NOT_OK(store.pool_->Admit(page.get(), std::move(payload)));
    store.pages_.push_back(std::move(page));
  }
  return store;
}

}  // namespace uts::ts
