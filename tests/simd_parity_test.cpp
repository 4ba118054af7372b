// SIMD-vs-scalar parity for the runtime-dispatched kernels of
// distance/simd.hpp, per the documented numeric policy:
//
//  * DUST (closed-form, lookup-table, classed) — **bitwise** (EXPECT_EQ):
//    the AVX2 kernels evaluate dust(Δ)² lane-exactly and accumulate in the
//    scalar's ascending-timestamp order.
//  * Euclidean and PROUD — pinned relative tolerance kRelTol = 1e-12: the
//    AVX2 kernels reassociate the per-pair sum across lanes and contract
//    into FMAs.
//  * Early abandon — per-tile threshold checks must make the same abandon
//    decisions as the scalar per-element checks, probed with adversarial
//    thresholds placed exactly at kAbandonTile boundaries (exact integer
//    arithmetic, so both paths compute boundary partials exactly).
//
// Kernel shapes cover lengths {7, 8, 63, 64, 1024, 1027} — below one vector,
// exact multiples of the unroll widths, the benchmark length, and a
// non-multiple-of-8 tail — and engine-level kNN / PRQ results (ranks and
// tie order) must agree between SimdMode::kAuto and kForceScalar at 1, 2
// and 8 threads.
//
// On hardware without AVX2 (or with UNCERTTS_DISABLE_AVX2 builds) the two
// dispatch tables coincide; the SIMD-specific assertions are skipped.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <vector>

#include "distance/batch.hpp"
#include "distance/simd.hpp"
#include "prob/distribution.hpp"
#include "prob/rng.hpp"
#include "query/engine.hpp"
#include "query/uncertain_engine.hpp"
#include "ts/dataset.hpp"
#include "ts/soa_store.hpp"
#include "ts/store_view.hpp"
#include "uncertain/uncertain_series.hpp"

namespace uts::distance {
namespace {

constexpr double kRelTol = 1e-12;
constexpr std::size_t kLengths[] = {7, 8, 63, 64, 1024, 1027};
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

/// True when kAuto resolves to a genuinely different (SIMD) table; the
/// parity tests compare against it, and skip when it is unavailable.
bool SimdAvailable() {
  return ResolveDispatch(SimdMode::kAuto).level != SimdLevel::kScalar;
}

#define UTS_REQUIRE_SIMD()                                              \
  if (!SimdAvailable()) {                                               \
    GTEST_SKIP() << "AVX2 not compiled in / not supported by this CPU"; \
  }

void ExpectRelNear(double got, double want, const char* what,
                   std::size_t index) {
  EXPECT_NEAR(got, want, kRelTol * std::max(1.0, std::fabs(want)))
      << what << " at index " << index;
}

ts::SoaStore RandomStore(std::size_t rows, std::size_t len,
                         std::uint64_t seed) {
  prob::Rng rng(seed);
  std::vector<double> values(rows * len);
  for (double& v : values) v = rng.Gaussian();
  return ts::SoaStore::FromPacked(std::move(values), len).ValueOrDie();
}

/// The single block of a resident test store, in the shape the kernels
/// accept. Resident pins are pointer copies into the store's own storage,
/// so the returned RowBlock outlives the pin guard.
ts::RowBlock Block(const ts::SoaStore& store) {
  const ts::StoreView view(store);
  return ts::PinOrAbort(view, 0).block();
}

std::vector<double> RandomQuery(std::size_t len, std::uint64_t seed) {
  prob::Rng rng(seed);
  std::vector<double> q(len);
  for (double& v : q) v = rng.Gaussian();
  return q;
}

// --- Euclidean (pinned tolerance) -------------------------------------------

TEST(SimdKernelParityTest, SquaredEuclideanRangeWithinTolerance) {
  UTS_REQUIRE_SIMD();
  const KernelDispatch& simd = ResolveDispatch(SimdMode::kAuto);
  for (std::size_t len : kLengths) {
    const ts::SoaStore store = RandomStore(37, len, 0xe1 + len);
    const ts::RowBlock block = Block(store);
    const std::vector<double> query = RandomQuery(len, 0x90 + len);
    std::vector<double> want(store.rows()), got(store.rows());
    SquaredEuclideanBatchRange(query, block, 0, store.rows(), want);
    simd.squared_euclidean_range(query, block, 0, store.rows(), got);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ExpectRelNear(got[i], want[i], "sq-euclid", i);
    }
    // Sub-range calls must agree with the full sweep (chunk invariance).
    std::vector<double> part(5);
    simd.squared_euclidean_range(query, block, 7, 12, part);
    for (std::size_t i = 0; i < part.size(); ++i) {
      EXPECT_EQ(part[i], got[7 + i]) << "len=" << len;
    }
  }
}

TEST(SimdKernelParityTest, MultiQueryWithinToleranceIncludingRemainder) {
  UTS_REQUIRE_SIMD();
  const KernelDispatch& simd = ResolveDispatch(SimdMode::kAuto);
  for (std::size_t len : {std::size_t{7}, std::size_t{64}, std::size_t{129}}) {
    // 23 queries: 5 full blocks of kQueryBlock plus a 3-query remainder.
    const std::size_t rows = 23;
    const ts::SoaStore store = RandomStore(rows, len, 0x3c + len);
    const ts::RowBlock block = Block(store);
    std::vector<double> want(rows * rows), got(rows * rows);
    SquaredEuclideanMultiQueryBatch(block, 0, rows, block, 0, rows, want,
                                    rows);
    simd.squared_euclidean_multi_query(block, 0, rows, block, 0, rows, got,
                                       rows);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ExpectRelNear(got[i], want[i], "multi-query", i);
    }
  }
}

// --- Early abandon (per-tile checks, adversarial thresholds) -----------------

TEST(SimdKernelParityTest, EarlyAbandonDecisionsAgreeAtTileBoundaries) {
  UTS_REQUIRE_SIMD();
  const KernelDispatch& simd = ResolveDispatch(SimdMode::kAuto);
  // Integer-valued differences: every square and partial sum is exact in
  // IEEE arithmetic regardless of association, so scalar and SIMD partials
  // are equal and thresholds can sit exactly on tile-boundary sums without
  // any rounding slack.
  const std::size_t len = 3 * kAbandonTile + 5;
  prob::Rng rng(0xab);
  std::vector<double> values;
  const std::size_t rows = 16;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t t = 0; t < len; ++t) {
      values.push_back(static_cast<double>(rng.Next() % 5));
    }
  }
  const ts::SoaStore store =
      ts::SoaStore::FromPacked(std::move(values), len).ValueOrDie();
  const ts::RowBlock block = Block(store);
  const std::vector<double> query(len, 0.0);

  std::vector<double> full(rows);
  SquaredEuclideanBatchRange(query, block, 0, rows, full);

  // Thresholds: exact partial sums of row 0 at the first and second tile
  // boundaries (the adversarial spots: the scalar path crosses mid-tile,
  // the SIMD path only checks at the boundary), one mid-tile value, plus
  // extremes that abandon nothing / everything.
  double boundary1 = 0.0, boundary2 = 0.0, mid = 0.0;
  {
    const std::span<const double> row = block.row(0);
    for (std::size_t t = 0; t < kAbandonTile; ++t) boundary1 += row[t] * row[t];
    boundary2 = boundary1;
    for (std::size_t t = kAbandonTile; t < 2 * kAbandonTile; ++t) {
      boundary2 += row[t] * row[t];
    }
    mid = boundary1;
    for (std::size_t t = kAbandonTile; t < kAbandonTile + 7; ++t) {
      mid += row[t] * row[t];
    }
  }
  const double thresholds[] = {boundary1, boundary1 - 1.0, boundary1 + 1.0,
                               boundary2, mid, 0.0, 1e18};

  for (double threshold_sq : thresholds) {
    std::vector<double> scalar_out(rows), simd_out(rows);
    SquaredEuclideanEarlyAbandonBatchRange(query, block, threshold_sq, 0,
                                           rows, scalar_out);
    simd.squared_euclidean_early_abandon_range(query, block, threshold_sq, 0,
                                               rows, simd_out);
    for (std::size_t i = 0; i < rows; ++i) {
      // The abandon decision must agree between the paths...
      EXPECT_EQ(scalar_out[i] <= threshold_sq, simd_out[i] <= threshold_sq)
          << "threshold " << threshold_sq << " row " << i;
      if (full[i] <= threshold_sq) {
        // ...surviving candidates report the exact squared distance (exact
        // here: integer arithmetic)...
        EXPECT_EQ(simd_out[i], full[i]) << "row " << i;
        EXPECT_EQ(scalar_out[i], full[i]) << "row " << i;
      } else {
        // ...and abandoned candidates report some partial sum exceeding the
        // threshold.
        EXPECT_GT(simd_out[i], threshold_sq) << "row " << i;
        EXPECT_GT(scalar_out[i], threshold_sq) << "row " << i;
        EXPECT_LE(simd_out[i], full[i]) << "row " << i;
      }
    }
  }
}

// --- DUST (bitwise) ----------------------------------------------------------

TEST(SimdKernelParityTest, DustClosedFormBitwise) {
  UTS_REQUIRE_SIMD();
  const KernelDispatch& simd = ResolveDispatch(SimdMode::kAuto);
  DustLut lut;
  lut.scale = 1.0 / std::sqrt(2.0 * (0.25 + 0.49));
  for (std::size_t len : kLengths) {
    const ts::SoaStore store = RandomStore(19, len, 0xd0 + len);
    const ts::RowBlock block = Block(store);
    const std::vector<double> query = RandomQuery(len, 0xd1 + len);
    std::vector<double> want(store.rows()), got(store.rows());
    DustBatchRange(query, block, lut, 0, store.rows(), want);
    simd.dust_range(query, block, lut, 0, store.rows(), got);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "len=" << len << " row " << i;
    }
  }
}

/// A synthetic non-linear table so interpolation errors cannot hide.
struct OwnedLut {
  std::vector<double> cells;
  DustLut view;
};

OwnedLut MakeTableLut(std::size_t size, double delta_max, double bias) {
  OwnedLut lut;
  lut.cells.resize(size);
  for (std::size_t i = 0; i < size; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(size - 1);
    lut.cells[i] = bias + std::sqrt(x) + 0.25 * std::sin(9.0 * x);
  }
  lut.view.values = lut.cells.data();
  lut.view.size = size;
  lut.view.delta_max = delta_max;
  lut.view.step = delta_max / static_cast<double>(size - 1);
  return lut;
}

TEST(SimdKernelParityTest, DustLookupTableBitwise) {
  UTS_REQUIRE_SIMD();
  const KernelDispatch& simd = ResolveDispatch(SimdMode::kAuto);
  const OwnedLut lut = MakeTableLut(257, 4.0, 0.1);
  for (std::size_t len : kLengths) {
    // Half Gaussian deltas (interpolated lookups), plus exact grid nodes
    // (frac == 0), values beyond delta_max (clamp) and values in the last
    // cell (the idx + 1 >= size guard).
    prob::Rng rng(0x17 + len);
    std::vector<double> values(11 * len);
    for (std::size_t i = 0; i < values.size(); ++i) {
      switch (i % 4) {
        case 0:
          values[i] = rng.Gaussian();
          break;
        case 1:  // exact grid node
          values[i] = lut.view.step * static_cast<double>(rng.Next() % 257);
          break;
        case 2:  // beyond the clamp
          values[i] = 4.0 + static_cast<double>(rng.Next() % 7);
          break;
        default:  // inside the last cell
          values[i] = 4.0 - 0.5 * lut.view.step;
      }
    }
    const ts::SoaStore store =
        ts::SoaStore::FromPacked(std::move(values), len).ValueOrDie();
    const ts::RowBlock block = Block(store);
    const std::vector<double> query(len, 0.0);
    std::vector<double> want(store.rows()), got(store.rows());
    DustBatchRange(query, block, lut.view, 0, store.rows(), want);
    simd.dust_range(query, block, lut.view, 0, store.rows(), got);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "len=" << len << " row " << i;
    }
  }
}

TEST(SimdKernelParityTest, DustClassedBitwiseAcrossRunShapes) {
  UTS_REQUIRE_SIMD();
  const KernelDispatch& simd = ResolveDispatch(SimdMode::kAuto);
  const OwnedLut t00 = MakeTableLut(129, 3.0, 0.05);
  const OwnedLut t01 = MakeTableLut(193, 5.0, 0.2);
  DustLut closed;  // mixed closed-form / table pairs in one row
  closed.scale = 0.9;
  const DustLut lut_row0[] = {t00.view, t01.view};
  const DustLut lut_row1[] = {closed, t00.view};

  for (std::size_t len : {std::size_t{8}, std::size_t{64}, std::size_t{75}}) {
    const std::size_t rows = 9;
    const ts::SoaStore store = RandomStore(rows, len, 0xc1a + len);
    const ts::RowBlock block = Block(store);
    const std::vector<double> query = RandomQuery(len, 0xc1b + len);

    // Query-side lut rows: constant for the first half of the timestamps,
    // switching in the second half (ends one maximal run and starts
    // another).
    std::vector<const DustLut*> qluts(len);
    for (std::size_t t = 0; t < len; ++t) {
      qluts[t] = t < len / 2 ? lut_row0 : lut_row1;
    }
    // Candidate class ids in every run shape: per-series-constant rows
    // (full vector runs), alternating ids (scalar fallback), and 16-blocks
    // (mixed run lengths crossing the switch of qluts).
    std::vector<std::uint16_t> ids(rows * len);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t t = 0; t < len; ++t) {
        std::uint16_t id = 0;
        if (r % 3 == 0) id = r % 2;
        if (r % 3 == 1) id = t % 2;
        if (r % 3 == 2) id = (t / 16) % 2;
        ids[r * len + t] = id;
      }
    }
    std::vector<double> want(rows), got(rows);
    DustClassedBatchRange(query, block, qluts, ids, 0, rows, want);
    simd.dust_classed_range(query, block, qluts, ids, 0, rows, got);
    for (std::size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(got[i], want[i]) << "len=" << len << " row " << i;
    }
  }
}

/// Values whose differences hit the edge cases of the DUST lanes: ±0 (equal
/// or opposite-signed zeros give Δ = ±0), subnormals, ordinary values and,
/// when `huge`, 1e300 magnitudes (squares overflow to inf, and the lookup
/// clamps).
double DustEdgeValue(prob::Rng& rng, bool huge) {
  switch (rng.Next() % (huge ? 6 : 5)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng.Next() % 1000) *
             (rng.Next() % 2 == 0 ? 1.0 : -1.0);
    case 3:
    case 4:
      return rng.Gaussian();
    default:
      return rng.Uniform(1.0, 9.0) * (rng.Next() % 2 == 0 ? 1e300 : -1e300);
  }
}

TEST(SimdKernelParityTest, DustRangesBitwiseAtLaneRemainders) {
  // The single-lut kernel puts four candidate rows in the lanes and scores
  // the `rows % 4` remainder and the `len % 4` timestamp tail separately;
  // every split of a range into lane groups and tails must stay bitwise.
  UTS_REQUIRE_SIMD();
  const KernelDispatch& simd = ResolveDispatch(SimdMode::kAuto);
  DustLut closed;
  closed.scale = 1.0 / std::sqrt(2.0 * (0.25 + 0.49));
  const OwnedLut table = MakeTableLut(257, 4.0, 0.1);
  const DustLut* const luts[] = {&closed, &table.view};
  std::vector<std::size_t> lengths = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  lengths.insert(lengths.end(), std::begin(kLengths), std::end(kLengths));
  constexpr std::size_t kRowBegins[] = {0, 1, 3, 5};
  constexpr std::size_t kRangeSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9};
  constexpr std::size_t kRows = 14;  // largest begin + largest size
  for (std::size_t len : lengths) {
    prob::Rng rng(0xed9e + len);
    // Every third row carries 1e300 values (an inf sum); the others stay
    // finite so their sums compare real roundings.
    std::vector<double> values(kRows * len);
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = DustEdgeValue(rng, (i / len) % 3 == 2);
    }
    const ts::SoaStore store =
        ts::SoaStore::FromPacked(std::move(values), len).ValueOrDie();
    const ts::RowBlock block = Block(store);
    std::vector<double> query(len);
    for (double& v : query) v = DustEdgeValue(rng, false);
    for (const DustLut* lut : luts) {
      for (std::size_t begin : kRowBegins) {
        for (std::size_t size : kRangeSizes) {
          std::vector<double> want(size), got(size);
          DustBatchRange(query, block, *lut, begin, begin + size, want);
          simd.dust_range(query, block, *lut, begin, begin + size, got);
          for (std::size_t i = 0; i < size; ++i) {
            EXPECT_EQ(got[i], want[i])
                << (lut->values == nullptr ? "closed form" : "lookup")
                << " len=" << len << " rows [" << begin << ", "
                << begin + size << ") row " << begin + i;
          }
        }
      }
    }
  }
}

// --- PROUD (pinned tolerance) ------------------------------------------------

TEST(SimdKernelParityTest, ProudMomentWithinTolerance) {
  UTS_REQUIRE_SIMD();
  const KernelDispatch& simd = ResolveDispatch(SimdMode::kAuto);
  const double v = 2.0 * 0.5 * 0.5;
  for (std::size_t len : kLengths) {
    const ts::SoaStore store = RandomStore(21, len, 0x9d + len);
    const ts::RowBlock block = Block(store);
    const std::vector<double> query = RandomQuery(len, 0x9e + len);
    std::vector<double> want_mean(store.rows()), want_var(store.rows());
    std::vector<double> got_mean(store.rows()), got_var(store.rows());
    ProudMomentBatchRange(query, block, v, 0, store.rows(), want_mean,
                          want_var);
    simd.proud_moment_range(query, block, v, 0, store.rows(), got_mean,
                            got_var);
    for (std::size_t i = 0; i < store.rows(); ++i) {
      ExpectRelNear(got_mean[i], want_mean[i], "proud-mean", i);
      ExpectRelNear(got_var[i], want_var[i], "proud-var", i);
    }
  }
}

TEST(SimdKernelParityTest, ProudGeneralMomentWithinTolerance) {
  UTS_REQUIRE_SIMD();
  const KernelDispatch& simd = ResolveDispatch(SimdMode::kAuto);
  for (std::size_t len : kLengths) {
    const std::size_t rows = 13;
    const ts::SoaStore obs = RandomStore(rows, len, 0x41 + len);
    // Central moments with realistic signs: m2, m4 > 0; m3 signed.
    prob::Rng rng(0x42 + len);
    std::vector<double> m2v(rows * len), m3v(rows * len), m4v(rows * len);
    for (std::size_t i = 0; i < rows * len; ++i) {
      const double s = 0.2 + 0.8 * std::fabs(rng.Gaussian());
      m2v[i] = s * s;
      m3v[i] = 0.3 * rng.Gaussian() * s * s * s;
      m4v[i] = 3.0 * s * s * s * s;
    }
    const ts::SoaStore m2 =
        ts::SoaStore::FromPacked(std::move(m2v), len).ValueOrDie();
    const ts::SoaStore m3 =
        ts::SoaStore::FromPacked(std::move(m3v), len).ValueOrDie();
    const ts::SoaStore m4 =
        ts::SoaStore::FromPacked(std::move(m4v), len).ValueOrDie();
    const ts::RowBlock obs_b = Block(obs), m2_b = Block(m2), m3_b = Block(m3),
                       m4_b = Block(m4);
    std::vector<double> want_mean(rows), want_var(rows), got_mean(rows),
        got_var(rows);
    ProudGeneralMomentBatchRange(obs_b.row(0), m2_b.row(0), m3_b.row(0),
                                 m4_b.row(0), obs_b, m2_b, m3_b, m4_b, 0,
                                 rows, want_mean, want_var);
    simd.proud_general_moment_range(obs_b.row(0), m2_b.row(0), m3_b.row(0),
                                    m4_b.row(0), obs_b, m2_b, m3_b, m4_b, 0,
                                    rows, got_mean, got_var);
    for (std::size_t i = 0; i < rows; ++i) {
      ExpectRelNear(got_mean[i], want_mean[i], "proud-gen-mean", i);
      ExpectRelNear(got_var[i], want_var[i], "proud-gen-var", i);
    }
  }
}

// --- Dispatch resolution -----------------------------------------------------

TEST(SimdDispatchTest, ForceScalarModePinsScalarTable) {
  EXPECT_EQ(ResolveDispatch(SimdMode::kForceScalar).level,
            SimdLevel::kScalar);
  EXPECT_EQ(ScalarDispatch().level, SimdLevel::kScalar);
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
}

TEST(SimdDispatchTest, EnvironmentOverrideForcesScalar) {
  ASSERT_EQ(setenv("UNCERTTS_FORCE_SCALAR", "1", 1), 0);
  EXPECT_TRUE(ForceScalarEnv());
  EXPECT_EQ(ResolveDispatch(SimdMode::kAuto).level, SimdLevel::kScalar);
  ASSERT_EQ(setenv("UNCERTTS_FORCE_SCALAR", "0", 1), 0);
  EXPECT_FALSE(ForceScalarEnv());
  ASSERT_EQ(unsetenv("UNCERTTS_FORCE_SCALAR"), 0);
  EXPECT_FALSE(ForceScalarEnv());
}

TEST(SimdDispatchTest, AutoMatchesCompiledAndProbedCapability) {
  const bool expect_avx2 = Avx2CompiledIn() && CpuSupportsAvx2() &&
                           !ForceScalarEnv();
  EXPECT_EQ(ResolveDispatch(SimdMode::kAuto).level,
            expect_avx2 ? SimdLevel::kAvx2 : SimdLevel::kScalar);
}

// --- Engine-level result-set equality ---------------------------------------

ts::Dataset GaussianDataset(std::size_t n, std::size_t len,
                            std::uint64_t seed) {
  prob::Rng rng(seed);
  ts::Dataset d("simd-gauss");
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values(len);
    for (double& v : values) v = rng.Gaussian();
    d.Add(ts::TimeSeries(std::move(values), static_cast<int>(i % 2)));
  }
  return d;
}

/// {0, 1}-valued series: many exactly-tied distances, and every distance is
/// a sum of small integers — exact in both kernel paths — so tie order must
/// match bitwise even under SIMD.
ts::Dataset TieHeavyDataset(std::size_t n, std::size_t len,
                            std::uint64_t seed) {
  prob::Rng rng(seed);
  ts::Dataset d("simd-ties");
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values(len);
    for (double& v : values) v = static_cast<double>(rng.Next() % 2);
    d.Add(ts::TimeSeries(std::move(values), static_cast<int>(i % 2)));
  }
  return d;
}

query::EngineOptions EngineOpts(std::size_t threads, SimdMode simd) {
  query::EngineOptions options;
  options.threads = threads;
  options.grain = 16;
  options.simd = simd;
  return options;
}

TEST(SimdEngineParityTest, EuclideanQueriesMatchScalarEngine) {
  UTS_REQUIRE_SIMD();
  for (const ts::Dataset& d :
       {GaussianDataset(60, 33, 0x51), TieHeavyDataset(60, 16, 0x52)}) {
    for (std::size_t threads : kThreadCounts) {
      const query::DistanceMatrixEngine scalar(
          d, EngineOpts(threads, SimdMode::kForceScalar));
      const query::DistanceMatrixEngine simd(
          d, EngineOpts(threads, SimdMode::kAuto));
      ASSERT_EQ(simd.simd_level(), SimdLevel::kAvx2);
      ASSERT_EQ(scalar.simd_level(), SimdLevel::kScalar);

      for (std::size_t q : {std::size_t{0}, std::size_t{17}}) {
        const auto want = scalar.KNearestEuclidean(q, 10);
        const auto got = simd.KNearestEuclidean(q, 10);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          // Ranks and tie order must match exactly.
          EXPECT_EQ(got[i].index, want[i].index)
              << d.name() << " q=" << q << " rank " << i;
          ExpectRelNear(got[i].distance, want[i].distance, "knn-dist", i);
        }
        const double epsilon = want.back().distance;
        EXPECT_EQ(simd.RangeSearchEuclidean(q, epsilon),
                  scalar.RangeSearchEuclidean(q, epsilon))
            << d.name() << " q=" << q;
      }

      const auto want_all = scalar.AllKNearestEuclidean(5);
      const auto got_all = simd.AllKNearestEuclidean(5);
      ASSERT_EQ(got_all.size(), want_all.size());
      for (std::size_t q = 0; q < got_all.size(); ++q) {
        ASSERT_EQ(got_all[q].size(), want_all[q].size());
        for (std::size_t i = 0; i < got_all[q].size(); ++i) {
          EXPECT_EQ(got_all[q][i].index, want_all[q][i].index)
              << d.name() << " q=" << q << " rank " << i;
        }
      }
    }
  }
}

uncertain::UncertainDataset MixedClassUncertain(std::size_t n,
                                                std::size_t len,
                                                std::uint64_t seed) {
  prob::Rng rng(seed);
  uncertain::UncertainDataset d;
  d.name = "simd-uncertain";
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<double> obs(len);
    std::vector<prob::ErrorDistributionPtr> errors(len);
    // Per-series-constant σ from a 3-value grid: 3 error classes, so the
    // classed DUST kernel (maximal-run path) is what the engine executes.
    auto err = prob::MakeNormalError(0.3 + 0.2 * static_cast<double>(s % 3));
    for (std::size_t t = 0; t < len; ++t) {
      obs[t] = rng.Gaussian();
      errors[t] = err;
    }
    d.series.emplace_back(std::move(obs), std::move(errors));
  }
  return d;
}

query::UncertainEngineOptions UncertainOpts(std::size_t threads,
                                            SimdMode simd) {
  query::UncertainEngineOptions options;
  options.threads = threads;
  options.grain = 8;
  options.simd = simd;
  options.proud_sigma = 0.5;
  return options;
}

TEST(SimdEngineParityTest, DustAndProudQueriesMatchScalarEngine) {
  UTS_REQUIRE_SIMD();
  const uncertain::UncertainDataset d = MixedClassUncertain(40, 33, 0x61);
  for (std::size_t threads : kThreadCounts) {
    auto scalar_r =
        query::UncertainEngine::Create(d, UncertainOpts(threads,
                                                        SimdMode::kForceScalar));
    auto simd_r =
        query::UncertainEngine::Create(d, UncertainOpts(threads,
                                                        SimdMode::kAuto));
    ASSERT_TRUE(scalar_r.ok() && simd_r.ok());
    auto& scalar = *scalar_r.ValueOrDie();
    auto& simd = *simd_r.ValueOrDie();
    ASSERT_EQ(simd.simd_level(), SimdLevel::kAvx2);
    ASSERT_TRUE(scalar.BuildDustTables().ok());
    ASSERT_TRUE(simd.BuildDustTables().ok());

    for (std::size_t q : {std::size_t{0}, std::size_t{13}}) {
      // DUST is bitwise: distances, ranks and tie order all EXPECT_EQ.
      const auto want_d = scalar.DustDistances(q);
      const auto got_d = simd.DustDistances(q);
      ASSERT_TRUE(want_d.ok() && got_d.ok());
      EXPECT_EQ(got_d.ValueOrDie(), want_d.ValueOrDie()) << "q=" << q;
      const auto want_knn = scalar.KNearestDust(q, 7);
      const auto got_knn = simd.KNearestDust(q, 7);
      ASSERT_TRUE(want_knn.ok() && got_knn.ok());
      ASSERT_EQ(got_knn.ValueOrDie().size(), want_knn.ValueOrDie().size());
      for (std::size_t i = 0; i < got_knn.ValueOrDie().size(); ++i) {
        EXPECT_EQ(got_knn.ValueOrDie()[i].index,
                  want_knn.ValueOrDie()[i].index);
        EXPECT_EQ(got_knn.ValueOrDie()[i].distance,
                  want_knn.ValueOrDie()[i].distance);
      }

      // PROUD PRQ: the match set (ranks and membership) must agree; the
      // probabilities behind it are within the pinned tolerance.
      EXPECT_EQ(simd.ProbabilisticRangeSearchProud(q, 6.0, 0.6),
                scalar.ProbabilisticRangeSearchProud(q, 6.0, 0.6))
          << "q=" << q;
      const auto want_p = scalar.ProudMatchProbabilities(q, 6.0);
      const auto got_p = simd.ProudMatchProbabilities(q, 6.0);
      ASSERT_EQ(got_p.size(), want_p.size());
      for (std::size_t i = 0; i < got_p.size(); ++i) {
        ExpectRelNear(got_p[i], want_p[i], "proud-prob", i);
      }
    }
  }
}

}  // namespace
}  // namespace uts::distance
