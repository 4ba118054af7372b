// Out-of-core parity suite for the buffer-pool storage tier (src/ts):
// every engine query over a store paged through a ts::BufferPool — with a
// budget far smaller than the dataset, so blocks really spill and fault —
// must return results bitwise identical (values AND tie order) to the
// fully-resident run, at 1, 2 and 8 threads. The suite also pins the
// pool's accounting contract (peak resident bytes stay within budget plus
// the pinned working set) and stresses concurrent pin/evict traffic from
// ParallelFor workers; CI runs it under TSan, UBSan and ASan+LSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "core/matchers.hpp"
#include "prob/distribution.hpp"
#include "prob/rng.hpp"
#include "query/engine.hpp"
#include "query/engine_context.hpp"
#include "query/search.hpp"
#include "query/uncertain_engine.hpp"
#include "ts/buffer_pool.hpp"
#include "ts/dataset.hpp"
#include "ts/row_block.hpp"
#include "ts/soa_store.hpp"
#include "ts/store_view.hpp"
#include "uncertain/perturb.hpp"
#include "uncertain/uncertain_series.hpp"

namespace uts {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

// Small enough for sanitizer runs, large enough for several blocks at the
// tiny block_rows below.
constexpr std::size_t kSeries = 48;
constexpr std::size_t kLength = 32;
constexpr std::size_t kBlockRows = 8;  // multiple of distance::kQueryBlock
constexpr std::size_t kBlockBytes = kBlockRows * kLength * sizeof(double);

std::shared_ptr<ts::BufferPool> MakePool(std::size_t budget_bytes) {
  ts::BufferPool::Options options;
  options.budget_bytes = budget_bytes;
  return ts::BufferPool::Create(options).ValueOrDie();
}

ts::Dataset GaussianDataset(std::size_t n, std::size_t len,
                            std::uint64_t seed) {
  prob::Rng rng(seed);
  ts::Dataset d("ooc");
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values(len);
    for (double& v : values) v = rng.Gaussian();
    d.Add(ts::TimeSeries(std::move(values), int(i % 3)));
  }
  return d;
}

uncertain::UncertainDataset GaussianUncertain(std::size_t n, std::size_t len,
                                              std::uint64_t seed,
                                              prob::ErrorKind kind,
                                              double sigma) {
  auto err = prob::MakeError(kind, sigma);
  prob::Rng rng(seed);
  uncertain::UncertainDataset d;
  d.name = "ooc-uncertain";
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values(len);
    for (double& v : values) v = rng.Gaussian();
    d.series.emplace_back(
        std::move(values),
        std::vector<prob::ErrorDistributionPtr>(len, err));
  }
  return d;
}

void ExpectSameNeighbors(const std::vector<query::Neighbor>& resident,
                         const std::vector<query::Neighbor>& paged) {
  ASSERT_EQ(resident.size(), paged.size());
  for (std::size_t i = 0; i < resident.size(); ++i) {
    EXPECT_EQ(resident[i].index, paged[i].index) << i;
    EXPECT_EQ(resident[i].distance, paged[i].distance) << i;  // bitwise
  }
}

// --- Store + view mechanics --------------------------------------------------

TEST(OutOfCoreStoreTest, ZeroBudgetRoundTripsEveryRow) {
  // Budget 0: every unpinned block is evicted, so each PinRow below faults
  // its block back from the spill log. The bytes must survive unchanged.
  const std::size_t rows = 37, stride = 16;  // ragged tail block
  prob::Rng rng(7);
  std::vector<double> values(rows * stride);
  for (double& v : values) v = rng.Gaussian();
  const std::vector<double> expected = values;

  auto pool = MakePool(0);
  const ts::SoaStore store =
      ts::SoaStore::FromPacked(std::move(values), stride, pool, 4)
          .ValueOrDie();
  EXPECT_TRUE(store.paged());
  EXPECT_EQ(store.block_rows(), 4u);
  EXPECT_EQ(store.num_blocks(), 10u);  // 9 full blocks + 5-row... (37 = 9*4+1)
  const ts::StoreView view(store);
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (std::size_t r = 0; r < rows; ++r) {
      const auto pin = ts::PinRowOrAbort(view, r);
      for (std::size_t t = 0; t < stride; ++t) {
        EXPECT_EQ(pin.row()[t], expected[r * stride + t]) << r << "," << t;
      }
    }
  }
  const auto stats = pool->stats();
  EXPECT_GT(stats.faults, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.spilled_bytes, rows * stride * sizeof(double));
}

TEST(OutOfCoreStoreTest, PartitionRowsNeverStraddlesBlocks) {
  auto pool = MakePool(0);
  std::vector<double> values(37 * 8, 1.0);
  const ts::SoaStore store =
      ts::SoaStore::FromPacked(std::move(values), 8, pool, 8).ValueOrDie();
  const ts::StoreView view(store);
  for (std::size_t grain : {1u, 3u, 5u, 8u, 64u}) {
    const auto chunks = ts::PartitionRows(view, grain);
    std::size_t covered = 0;
    for (const ts::RowChunk& chunk : chunks) {
      EXPECT_EQ(chunk.begin, covered);  // contiguous, ascending
      EXPECT_LT(chunk.begin, chunk.end);
      // A chunk lives inside exactly one block.
      EXPECT_EQ(chunk.block, view.block_of(chunk.begin));
      EXPECT_EQ(chunk.block, view.block_of(chunk.end - 1));
      covered = chunk.end;
    }
    EXPECT_EQ(covered, store.rows()) << "grain " << grain;
  }
}

TEST(OutOfCoreStoreTest, ConstructionIsCheckedNotAsserted) {
  // Violations must surface as Status in Release builds too (no assert,
  // no silent truncation).
  EXPECT_FALSE(
      ts::SoaStore::FromPacked(std::vector<double>(7, 0.0), 3).ok());
  EXPECT_FALSE(
      ts::SoaStore::FromPacked(std::vector<double>(4, 0.0), 0).ok());
  auto empty = ts::SoaStore::FromPacked({}, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.ValueOrDie().empty());
}

// --- Certain engine parity ---------------------------------------------------

query::EngineOptions PagedOptions(std::size_t threads, bool indexed,
                                  std::shared_ptr<ts::BufferPool> pool) {
  query::EngineOptions options;
  options.threads = threads;
  options.grain = 16;
  options.index.enabled = indexed;
  options.buffer_pool = std::move(pool);
  options.block_rows = kBlockRows;
  return options;
}

TEST(OutOfCoreCertainTest, PagedBitwiseEqualsResidentAtEveryThreadCount) {
  const ts::Dataset d = GaussianDataset(kSeries, kLength, 11);
  // The reference shares the paged engine's `indexed` flag: the unindexed
  // all-kNN symmetric matrix path uses the multi-query SIMD kernel, which
  // is tolerance-level (not bitwise) against the per-row kernel the index
  // cascade scores with. Indexed-vs-unindexed equality is index_parity_test's
  // contract; this suite pins paged-vs-resident only.
  for (bool indexed : {false, true}) {
    const query::DistanceMatrixEngine resident(
        d, PagedOptions(1, indexed, nullptr));
    ASSERT_TRUE(resident.batched());
    const auto knn = resident.KNearestEuclidean(3, 10);
    const auto all = resident.AllKNearestEuclidean(5);
    const double epsilon = knn[6].distance;  // nonempty, nontrivial range
    const auto range = resident.RangeSearchEuclidean(3, epsilon);
    const auto motifs = resident.TopKMotifsEuclidean(4);

    for (std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " indexed=" << indexed);
      auto pool = MakePool(2 * kBlockBytes);  // << dataset: real paging
      const query::DistanceMatrixEngine paged(
          d, PagedOptions(threads, indexed, pool));
      ASSERT_TRUE(paged.batched());
      {
        SCOPED_TRACE("knn");
        ExpectSameNeighbors(knn, paged.KNearestEuclidean(3, 10));
      }
      const auto paged_all = paged.AllKNearestEuclidean(5);
      ASSERT_EQ(all.size(), paged_all.size());
      for (std::size_t q = 0; q < all.size(); ++q) {
        SCOPED_TRACE(testing::Message() << "all-knn q=" << q);
        ExpectSameNeighbors(all[q], paged_all[q]);
      }
      EXPECT_EQ(range, paged.RangeSearchEuclidean(3, epsilon));
      const auto paged_motifs = paged.TopKMotifsEuclidean(4);
      ASSERT_EQ(motifs.size(), paged_motifs.size());
      for (std::size_t i = 0; i < motifs.size(); ++i) {
        EXPECT_EQ(motifs[i].a, paged_motifs[i].a);
        EXPECT_EQ(motifs[i].b, paged_motifs[i].b);
        EXPECT_EQ(motifs[i].distance, paged_motifs[i].distance);
      }
      EXPECT_GT(pool->stats().faults, 0u)
          << "budget below dataset size must actually page";
    }
  }
}

TEST(OutOfCoreCertainTest, PeakResidentStaysWithinBudgetPlusPinnedBlock) {
  // The acceptance contract: a full sweep with the budget far below the
  // packed dataset completes with the pool's high-water mark within budget
  // plus the transiently pinned block (the page being admitted or faulted
  // is exempt from eviction while it is the pin target; the query row's
  // block and the scanned block are both pinned, but they count against
  // the budget the eviction loop enforces).
  const ts::Dataset d = GaussianDataset(kSeries, kLength, 12);
  const std::size_t budget = 2 * kBlockBytes;  // dataset is 6 blocks
  auto pool = MakePool(budget);
  const query::DistanceMatrixEngine paged(d, PagedOptions(1, false, pool));
  ASSERT_TRUE(paged.batched());
  for (std::size_t q = 0; q < d.size(); ++q) {
    (void)paged.KNearestEuclidean(q, 10);
  }
  const auto stats = pool->stats();
  EXPECT_GT(stats.faults, 0u);
  EXPECT_LE(stats.peak_resident_bytes, budget + kBlockBytes);
}

TEST(OutOfCoreCertainTest, ZeroBudgetConcurrentStress) {
  // Budget 0 maximizes evict/fault traffic; 8 workers hammer the pool's
  // single mutex from the chunked ParallelFor partitions. TSan/ASan runs
  // of this test are the storage tier's race/leak gate.
  const ts::Dataset d = GaussianDataset(kSeries, kLength, 13);
  const query::DistanceMatrixEngine resident(d,
                                             PagedOptions(1, false, nullptr));
  const auto expected = resident.AllKNearestEuclidean(5);
  auto pool = MakePool(0);
  const query::DistanceMatrixEngine paged(d, PagedOptions(8, false, pool));
  const auto got = paged.AllKNearestEuclidean(5);
  ASSERT_EQ(expected.size(), got.size());
  for (std::size_t q = 0; q < expected.size(); ++q) {
    ExpectSameNeighbors(expected[q], got[q]);
  }
  EXPECT_GT(pool->stats().faults, 0u);
}

// --- Uncertain engine parity -------------------------------------------------

query::UncertainEngineOptions PagedUncertainOptions(
    std::size_t threads, bool indexed, std::shared_ptr<ts::BufferPool> pool) {
  query::UncertainEngineOptions options;
  options.threads = threads;
  options.grain = 4;
  options.index.enabled = indexed;
  options.proud_sigma = 0.5;
  options.buffer_pool = std::move(pool);
  options.block_rows = kBlockRows;
  return options;
}

TEST(OutOfCoreUncertainTest, DustPagedBitwiseEqualsResident) {
  // Uniform error: numeric DUST tables, the lookup kernel path.
  const auto d = GaussianUncertain(kSeries, kLength, 21,
                                   prob::ErrorKind::kUniform, 0.5);
  auto resident = query::UncertainEngine::Create(
                      d, PagedUncertainOptions(1, false, nullptr))
                      .ValueOrDie();
  ASSERT_TRUE(resident->BuildDustTables().ok());
  const auto distances = resident->DustDistances(2).ValueOrDie();
  const auto knn = resident->KNearestDust(2, 7).ValueOrDie();
  const double epsilon = knn[4].distance;
  const auto range = resident->RangeSearchDust(2, epsilon).ValueOrDie();

  for (std::size_t threads : kThreadCounts) {
    for (bool indexed : {false, true}) {
      auto pool = MakePool(2 * kBlockBytes);
      auto paged = query::UncertainEngine::Create(
                       d, PagedUncertainOptions(threads, indexed, pool))
                       .ValueOrDie();
      ASSERT_TRUE(paged->BuildDustTables().ok());
      const auto paged_distances = paged->DustDistances(2).ValueOrDie();
      ASSERT_EQ(distances.size(), paged_distances.size());
      for (std::size_t i = 0; i < distances.size(); ++i) {
        EXPECT_EQ(distances[i], paged_distances[i]) << i;
      }
      ExpectSameNeighbors(knn, paged->KNearestDust(2, 7).ValueOrDie());
      EXPECT_EQ(range, paged->RangeSearchDust(2, epsilon).ValueOrDie());
      EXPECT_GT(pool->stats().faults, 0u);
    }
  }
}

TEST(OutOfCoreUncertainTest, DustClassedPagedBitwiseEqualsResident) {
  // Mixed normal σ: two error classes, so every sweep and every cascade
  // re-score runs the classed kernel on block-local slices of the class
  // matrix, one per pinned block.
  auto hi = prob::MakeNormalError(1.0);
  auto lo = prob::MakeNormalError(0.4);
  prob::Rng rng(22);
  uncertain::UncertainDataset d;
  d.name = "ooc-classed";
  for (std::size_t s = 0; s < kSeries; ++s) {
    std::vector<double> values(kLength);
    std::vector<prob::ErrorDistributionPtr> errors(kLength);
    for (std::size_t t = 0; t < kLength; ++t) {
      values[t] = rng.Gaussian();
      errors[t] = (s + t) % 3 == 0 ? hi : lo;
    }
    d.series.emplace_back(std::move(values), std::move(errors));
  }
  auto resident = query::UncertainEngine::Create(
                      d, PagedUncertainOptions(1, false, nullptr))
                      .ValueOrDie();
  ASSERT_TRUE(resident->BuildDustTables().ok());
  const auto distances = resident->DustDistances(2).ValueOrDie();
  const auto knn = resident->KNearestDust(2, 7).ValueOrDie();
  const double epsilon = knn[4].distance;
  const auto range = resident->RangeSearchDust(2, epsilon).ValueOrDie();

  for (std::size_t threads : kThreadCounts) {
    for (bool indexed : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " indexed=" << indexed);
      auto pool = MakePool(2 * kBlockBytes);
      auto paged = query::UncertainEngine::Create(
                       d, PagedUncertainOptions(threads, indexed, pool))
                       .ValueOrDie();
      ASSERT_TRUE(paged->BuildDustTables().ok());
      const auto paged_distances = paged->DustDistances(2).ValueOrDie();
      ASSERT_EQ(distances.size(), paged_distances.size());
      for (std::size_t i = 0; i < distances.size(); ++i) {
        EXPECT_EQ(distances[i], paged_distances[i]) << i;
      }
      ExpectSameNeighbors(knn, paged->KNearestDust(2, 7).ValueOrDie());
      EXPECT_EQ(range, paged->RangeSearchDust(2, epsilon).ValueOrDie());
      EXPECT_GT(pool->stats().faults, 0u);
    }
  }
}

TEST(OutOfCoreUncertainTest, ProudPagedBitwiseEqualsResident) {
  const auto d = GaussianUncertain(kSeries, kLength, 22,
                                   prob::ErrorKind::kNormal, 0.5);
  auto resident = query::UncertainEngine::Create(
                      d, PagedUncertainOptions(1, false, nullptr))
                      .ValueOrDie();
  const auto probs = resident->ProudMatchProbabilities(1, 6.0);
  const auto prq = resident->ProbabilisticRangeSearchProud(1, 6.0, 0.3);

  for (std::size_t threads : kThreadCounts) {
    auto pool = MakePool(2 * kBlockBytes);
    auto paged = query::UncertainEngine::Create(
                     d, PagedUncertainOptions(threads, false, pool))
                     .ValueOrDie();
    const auto paged_probs = paged->ProudMatchProbabilities(1, 6.0);
    ASSERT_EQ(probs.size(), paged_probs.size());
    for (std::size_t i = 0; i < probs.size(); ++i) {
      EXPECT_EQ(probs[i], paged_probs[i]) << i;
    }
    EXPECT_EQ(prq, paged->ProbabilisticRangeSearchProud(1, 6.0, 0.3));
    EXPECT_GT(pool->stats().faults, 0u);
  }
}

TEST(OutOfCoreUncertainTest, ProudGeneralMomentColumnsShareBlockGeometry) {
  // Exponential error: the general-moment path reads the lazily built
  // m2/m3/m4 SoA columns, which must be blocked exactly like the
  // observation store and page through the same pool.
  const auto d = GaussianUncertain(24, kLength, 23,
                                   prob::ErrorKind::kExponential, 0.5);
  auto resident = query::UncertainEngine::Create(
                      d, PagedUncertainOptions(1, false, nullptr))
                      .ValueOrDie();
  ASSERT_TRUE(resident->BuildProudMomentColumns().ok());
  const auto probs = resident->ProudGeneralMatchProbabilities(0, 6.0)
                         .ValueOrDie();

  for (std::size_t threads : kThreadCounts) {
    auto pool = MakePool(2 * kBlockBytes);
    auto paged = query::UncertainEngine::Create(
                     d, PagedUncertainOptions(threads, false, pool))
                     .ValueOrDie();
    ASSERT_TRUE(paged->BuildProudMomentColumns().ok());
    const auto paged_probs = paged->ProudGeneralMatchProbabilities(0, 6.0)
                                 .ValueOrDie();
    ASSERT_EQ(probs.size(), paged_probs.size());
    for (std::size_t i = 0; i < probs.size(); ++i) {
      EXPECT_EQ(probs[i], paged_probs[i]) << i;
    }
    EXPECT_GT(pool->stats().faults, 0u);
  }
}

TEST(OutOfCoreUncertainTest, MunichPagedBitwiseEqualsResident) {
  const ts::Dataset exact = GaussianDataset(16, kLength, 24);
  const auto spec =
      uncertain::ErrorSpec::Constant(prob::ErrorKind::kNormal, 0.5);
  const auto pdf = uncertain::PerturbDataset(exact, spec, 25);
  const auto samples =
      uncertain::PerturbDatasetMultiSample(exact, spec, 5, 26);

  auto resident = query::UncertainEngine::Create(
                      pdf, PagedUncertainOptions(1, false, nullptr))
                      .ValueOrDie();
  ASSERT_TRUE(resident->AttachSamples(samples).ok());
  const auto probs = resident->MunichMatchProbabilities(0, 4.0).ValueOrDie();

  for (std::size_t threads : kThreadCounts) {
    auto pool = MakePool(2 * kBlockBytes);
    auto paged = query::UncertainEngine::Create(
                     pdf, PagedUncertainOptions(threads, false, pool))
                     .ValueOrDie();
    ASSERT_TRUE(paged->AttachSamples(samples).ok());
    const auto paged_probs = paged->MunichMatchProbabilities(0, 4.0)
                                 .ValueOrDie();
    ASSERT_EQ(probs.size(), paged_probs.size());
    for (std::size_t i = 0; i < probs.size(); ++i) {
      EXPECT_EQ(probs[i], paged_probs[i]) << i;
    }
  }
}

// --- Context plumbing --------------------------------------------------------

TEST(OutOfCoreContextTest, MemoryBudgetCreatesOnePoolAndKeepsResultsExact) {
  const ts::Dataset d = GaussianDataset(kSeries, kLength, 31);
  const query::DistanceMatrixEngine reference(d, {});
  const auto expected = reference.KNearestEuclidean(0, 10);

  query::EngineContextOptions options;
  options.threads = 2;
  options.memory_budget_bytes = 2 * kBlockBytes;
  options.block_rows = kBlockRows;
  query::EngineContext context(options);
  auto pool = context.buffer_pool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(context.buffer_pool(), pool);  // cached, not re-created
  EXPECT_EQ(context.stats().buffer_pools_created, 1u);

  const query::DistanceMatrixEngine& certain = context.Certain(d);
  ExpectSameNeighbors(expected, certain.KNearestEuclidean(0, 10));
  EXPECT_GT(pool->stats().admits, 0u);
}

TEST(OutOfCoreContextTest, CalibrationNeverPinsPagedBlocks) {
  // The protocol calibrates ε once per query and matcher. On a paged store
  // that must not pin (and so fault and evict) a block: Euclidean and DUST
  // calibration read the in-memory pdf rows, so 100 calls leave the pool's
  // pin and fault counters where they were.
  const auto pdf = GaussianUncertain(kSeries, kLength, 33,
                                     prob::ErrorKind::kNormal, 0.5);
  query::EngineContextOptions options;
  options.threads = 2;
  options.memory_budget_bytes = kBlockBytes;  // smaller than the store
  options.block_rows = kBlockRows;
  query::EngineContext context(options);
  ASSERT_TRUE(context.BindData(pdf, std::nullopt, 5, 0.5).ok());
  core::EvalContext eval;
  eval.pdf = context.pdf();
  eval.threads = context.threads();
  eval.engines = &context;
  core::EuclideanMatcher euclid;
  core::DustMatcher dust;
  ASSERT_TRUE(euclid.Bind(eval).ok());
  ASSERT_TRUE(dust.Bind(eval).ok());
  ASSERT_EQ(context.stats().acquires_served, 2u);
  auto pool = context.buffer_pool();
  ASSERT_NE(pool, nullptr);
  // A retrieval does pin and fault: the counters below are live.
  ASSERT_TRUE(euclid.Retrieve(0, kSeries, 1.0).ok());
  const auto before = pool->stats();
  EXPECT_GT(before.faults, 0u);

  for (std::size_t call = 0; call < 100; ++call) {
    const std::size_t qi = (call * 7) % kSeries;
    const std::size_t ci = (call * 13 + 1) % kSeries;
    core::Matcher& matcher = call % 2 == 0 ? static_cast<core::Matcher&>(euclid)
                                           : static_cast<core::Matcher&>(dust);
    ASSERT_TRUE(matcher.CalibrationDistance(qi, ci).ok());
  }
  const auto after = pool->stats();
  EXPECT_EQ(after.faults, before.faults);
  EXPECT_EQ(after.pins, before.pins);
}

}  // namespace
}  // namespace uts
