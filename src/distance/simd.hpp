/// \file simd.hpp
/// \brief Runtime-dispatched SIMD distance kernels over pinned row blocks.
///
/// The evaluation sweeps (MUNICH/PROUD/DUST, k-NN ground truth) are dense
/// 1-vs-all passes through the kernels of batch.hpp. Those scalar kernels
/// stay exactly as they are — they are the bit-exact reference path every
/// determinism guarantee is pinned against — and this layer adds explicit
/// AVX2+FMA implementations of the hot three families behind a per-kernel
/// function-pointer table:
///
///  * blocked squared Euclidean (1-vs-all, the kQueryBlock multi-query
///    all-pairs kernel, and the early-abandoning variant),
///  * the DUST closed-form / lookup-table batch (single-lut and classed),
///  * the fused PROUD moment kernels (constant-σ and general-moment).
///
/// Selection is runtime CPU dispatch: `ResolveDispatch` probes the CPU once
/// (AVX2 *and* FMA must both be present), honors the `UNCERTTS_FORCE_SCALAR`
/// environment override, and falls back to the scalar table when the AVX2
/// translation unit was compiled out (`-DUNCERTTS_DISABLE_AVX2=ON`). The
/// engines (query::DistanceMatrixEngine, query::UncertainEngine) resolve a
/// table at construction from `EngineOptions::simd` /
/// `UncertainEngineOptions::simd`, so which path ran is an explicit,
/// inspectable property of the engine — never a silent global.
///
/// ## Numeric policy, per kernel
///
/// | kernel                         | AVX2 vs scalar reference            |
/// |--------------------------------|-------------------------------------|
/// | squared Euclidean (all forms)  | pinned tolerance (reassociation)    |
/// | early-abandon squared Euclid   | pinned tolerance + per-tile checks  |
/// | PROUD moments (both forms)     | pinned tolerance (reassociation)    |
/// | DUST closed-form               | **bitwise**                         |
/// | DUST lookup-table (gather)     | **bitwise**                         |
/// | DUST classed (per-point luts)  | **bitwise**                         |
///
/// *Tolerance kernels.* The scalar kernels accumulate each pair in one
/// strictly ordered chain; the AVX2 kernels split that sum across vector
/// lanes and independent accumulators and contract multiply-add pairs into
/// FMAs. Both reassociations change the rounding of the result, so these
/// kernels are pinned to a relative tolerance of 1e-12 against the scalar
/// reference (simd_parity_test; the bound for n ≤ 4096 IEEE-double terms of
/// the magnitudes the evaluation produces is orders of magnitude below
/// that). The SIMD results are still fully deterministic: the lane split is
/// a pure function of the series length, so the same inputs give the same
/// outputs at every thread count and chunking.
///
/// *Bitwise kernels.* The DUST kernels feed parity tests that pin engine
/// results bit-identical to the scalar measure (measures::Dust), so their
/// AVX2 forms never reassociate the per-pair sum. Each point's dust(Δ)² is
/// computed elementwise in vector lanes — |Δ| (sign mask), the table
/// position Δ/step (IEEE division), the two gathered cells and the lerp
/// mul/add are all lane-exact matches of DustLut::Eval. The single-lut
/// kernel then puts candidates in the lanes rather than timestamps: it
/// evaluates four timestamps of four rows, transposes the 4×4 tile, and
/// lane i adds row i's values in ascending-timestamp order. Every lane is
/// the scalar reference's own chain 0.0 + d₀² + d₁² + … for one row, so
/// the result is bitwise by construction, and four independent chains
/// replace the one add-latency-bound chain of a row (the `len % 4` tail
/// finishes per lane in the same order; ranges of fewer than four rows, as
/// the index cascade scores them, keep the one-row paths). The classed
/// kernel, whose error classes differ per candidate, keeps one row at a
/// time: it splits the row into maximal constant-(lut) runs, evaluates
/// runs in lanes and adds the staged values in order, so the
/// per-series-constant error models of the paper's mixed experiments
/// vectorize the evaluation while per-point-varying models degrade
/// gracefully to scalar evaluation — bitwise either way.
///
/// *Early abandon.* The scalar reference checks the running sum against the
/// threshold after every element; the AVX2 kernel checks once per
/// kAbandonTile elements (checking per element would serialize the lanes).
/// Both paths satisfy the same contract — out[i] is the exact (within the
/// Euclidean tolerance) squared distance when it is <= threshold_sq, and
/// otherwise *some* partial sum exceeding threshold_sq — because partial
/// sums of squares are nondecreasing, so a tile-boundary check abandons
/// exactly the candidates whose full sum exceeds the threshold; only the
/// reported overshoot value differs. Decisions of the form out[i] <= t with
/// t <= threshold_sq therefore agree between the paths (up to the pinned
/// tolerance for sums landing within it of the threshold).

#ifndef UTS_DISTANCE_SIMD_HPP_
#define UTS_DISTANCE_SIMD_HPP_

#include <cstddef>
#include <cstdint>
#include <span>

#include "distance/batch.hpp"
#include "ts/row_block.hpp"

namespace uts::distance {

/// \brief Instruction-set level of a kernel table.
enum class SimdLevel {
  kScalar,  ///< The bit-exact reference kernels of batch.cpp.
  kAvx2,    ///< Explicit AVX2+FMA intrinsics (x86-64, runtime-probed).
};

/// Human-readable name ("scalar" / "avx2").
const char* SimdLevelName(SimdLevel level);

/// \brief How an engine selects its kernel table.
enum class SimdMode {
  /// Probe the CPU at resolve time and take the widest compiled-in level;
  /// the UNCERTTS_FORCE_SCALAR environment variable (set and not "0")
  /// overrides the probe and pins the scalar table.
  kAuto,
  /// Always the scalar reference table, regardless of CPU and environment.
  kForceScalar,
};

/// \brief Per-kernel function-pointer table. All entries are non-null and
/// callable with exactly the contracts of the batch.hpp functions they
/// mirror (pinned `ts::RowBlock`s, block-local row ranges); `level` records
/// which implementation family filled them.
struct KernelDispatch {
  SimdLevel level = SimdLevel::kScalar;

  void (*squared_euclidean_range)(std::span<const double> query,
                                  const ts::RowBlock& block,
                                  std::size_t row_begin, std::size_t row_end,
                                  std::span<double> out) = nullptr;

  void (*squared_euclidean_multi_query)(const ts::RowBlock& queries,
                                        std::size_t query_begin,
                                        std::size_t query_end,
                                        const ts::RowBlock& candidates,
                                        std::size_t row_begin,
                                        std::size_t row_end,
                                        std::span<double> out,
                                        std::size_t out_stride) = nullptr;

  void (*squared_euclidean_early_abandon_range)(
      std::span<const double> query, const ts::RowBlock& block,
      double threshold_sq, std::size_t row_begin, std::size_t row_end,
      std::span<double> out) = nullptr;

  void (*dust_range)(std::span<const double> query, const ts::RowBlock& block,
                     const DustLut& lut, std::size_t row_begin,
                     std::size_t row_end, std::span<double> out) = nullptr;

  void (*dust_classed_range)(std::span<const double> query,
                             const ts::RowBlock& block,
                             std::span<const DustLut* const> query_luts,
                             std::span<const std::uint16_t> class_ids,
                             std::size_t row_begin, std::size_t row_end,
                             std::span<double> out) = nullptr;

  void (*proud_moment_range)(std::span<const double> query,
                             const ts::RowBlock& block, double v,
                             std::size_t row_begin, std::size_t row_end,
                             std::span<double> mean_out,
                             std::span<double> var_out) = nullptr;

  void (*proud_general_moment_range)(
      std::span<const double> query_obs, std::span<const double> query_m2,
      std::span<const double> query_m3, std::span<const double> query_m4,
      const ts::RowBlock& block, const ts::RowBlock& m2_block,
      const ts::RowBlock& m3_block, const ts::RowBlock& m4_block,
      std::size_t row_begin, std::size_t row_end, std::span<double> mean_out,
      std::span<double> var_out) = nullptr;
};

/// Elements between the early-abandon AVX2 kernel's threshold checks (see
/// the numeric-policy table above). Exposed so the parity tests can place
/// adversarial thresholds exactly at tile boundaries.
inline constexpr std::size_t kAbandonTile = 64;

/// True iff this binary contains the AVX2 kernels (UNCERTTS_DISABLE_AVX2
/// was OFF and the compiler accepted -mavx2 -mfma).
bool Avx2CompiledIn();

/// Runtime cpuid probe: true iff the executing CPU reports AVX2 *and* FMA.
/// Pure hardware capability — independent of Avx2CompiledIn() and the
/// environment override.
bool CpuSupportsAvx2();

/// True iff UNCERTTS_FORCE_SCALAR is set in the environment to anything but
/// "0" or the empty string. Read at every call (not cached) so tests can
/// flip the override between engine constructions.
bool ForceScalarEnv();

/// The scalar reference table (always available).
const KernelDispatch& ScalarDispatch();

/// The AVX2 table; identical to ScalarDispatch() when Avx2CompiledIn() is
/// false. Callers must check CpuSupportsAvx2() before executing its entries
/// on unknown hardware — ResolveDispatch does.
const KernelDispatch& Avx2Dispatch();

/// Select the table for `mode`: kForceScalar pins the scalar table;
/// kAuto returns the AVX2 table iff it is compiled in, the CPU supports it,
/// and UNCERTTS_FORCE_SCALAR does not override.
const KernelDispatch& ResolveDispatch(SimdMode mode);

}  // namespace uts::distance

#endif  // UTS_DISTANCE_SIMD_HPP_
