// Workloads offline-match and paged-sigma-sweep: the paper's similarity-
// matching protocol (core::RunSimilarityMatching) in-process on one shared
// EngineContext, plus its traced replay.
//
// offline-match runs a fixed subset of the datagen UCR-like specs at paper
// scale with Euclidean, DUST and PROUD (and MUNICH, with a reduced Monte
// Carlo sample count, on the smallest spec), threads = 1, index off.
// paged-sigma-sweep runs the same protocol as a σ sweep over seeded random
// walks bound through a context whose memory budget is a quarter of the
// packed observations, so every σ step re-perturbs, re-packs and spills;
// it runs at threads = 2.
//
// p50_ms/p99_ms are over matcher-queries, from the per-query decision time
// the protocol itself reports (MatcherResult::avg_query_millis).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <sys/stat.h>

#include "common.hpp"
#include "core/experiment.hpp"
#include "core/matchers.hpp"
#include "core/metrics.hpp"
#include "datagen/registry.hpp"
#include "query/engine_context.hpp"
#include "ts/buffer_pool.hpp"
#include "uncertain/error_spec.hpp"
#include "uncertain/perturb.hpp"

namespace perfbench {
namespace {

using namespace uts;

constexpr std::size_t kGroundTruthK = 10;
// offline-match runs one thread. Its parallel regions are one query's
// retrieval, 0.01-0.25 ms, and ParallelFor hands every chunk to a pool
// worker and sleeps until the last is done: at two threads each region
// pays two cross-vCPU wake-ups, whose latency is the host's scheduler, and
// run-to-run spread of throughput doubled while the second thread added
// under 10%. exec.scaling_2t still measures what two threads would give.
constexpr std::size_t kOfflineThreads = 1;
constexpr std::size_t kPagedThreads = 2;
constexpr double kProudTau = 0.5;
constexpr std::size_t kMunichSamplesPerPoint = 5;
// The datasets are fixed, as the paper's are; --seed draws the uncertainty
// (perturbation and MUNICH sample streams) on top of them.
constexpr std::uint64_t kDatasetSeed = 42;

/// One protocol run: a dataset under one perturbation spec.
struct Case {
  std::string name;
  ts::Dataset exact;
  uncertain::ErrorSpec spec =
      uncertain::ErrorSpec::Constant(prob::ErrorKind::kNormal, 0.5);
  bool munich = false;
  std::size_t max_queries = 0;  ///< 0 = every series is a query.
  std::uint64_t seed = 0;       ///< Perturbation seed.

  std::size_t queries() const {
    return max_queries == 0 ? exact.size()
                            : std::min(max_queries, exact.size());
  }
};

struct Workload {
  std::string name;
  std::vector<Case> cases;
  query::EngineContextOptions context;  ///< Shared-context configuration.
  std::size_t munich_mc_samples = 0;
  std::string shape;                    ///< One line for the report.
};

Workload OfflineWorkload(const Args& args) {
  Workload w;
  w.name = "offline-match";
  w.context.threads = kOfflineThreads;
  w.munich_mc_samples = args.smoke ? 16 : 64;
  // Fixed subset of the paper's datasets, paper-scale sizes. MUNICH joins
  // on the smallest one only, as in the paper's own evaluation. The other
  // two are the largest specs (2-2.4 MiB of observations), so queries of
  // 0.1-0.25 ms set the time: on the small specs (ECG200, GunPoint, Trace,
  // Lighting7) queries of 0.01-0.04 ms moved 1.3-1.8x with the host's
  // speed from run to run, and the pass throughput with them.
  const std::vector<std::string> names =
      args.smoke ? std::vector<std::string>{"Coffee", "FaceAll"}
                 : std::vector<std::string>{"Coffee", "FaceAll", "50words"};
  std::uint64_t i = 0;
  for (const std::string& name : names) {
    const datagen::DatasetSpec spec = datagen::SpecByName(name).ValueOrDie();
    Case c;
    c.name = name;
    const std::uint64_t data_seed = prob::DeriveSeed(kDatasetSeed, 500 + i);
    c.exact = (args.smoke ? datagen::GenerateScaled(spec, data_seed, 40, 64)
                          : datagen::Generate(spec, data_seed))
                  .ZNormalizedCopy();
    c.munich = name == "Coffee";
    c.seed = prob::DeriveSeed(args.seed, 600 + i);
    w.cases.push_back(std::move(c));
    ++i;
  }
  w.shape = "UCR-like specs at paper scale, threads 1, index off";
  return w;
}

Workload PagedWorkload(const Args& args) {
  Workload w;
  w.name = "paged-sigma-sweep";
  const std::size_t n = args.smoke ? 96 : 2048;
  const std::size_t length = args.smoke ? 64 : 256;
  const std::size_t queries = args.smoke ? 8 : 96;
  const ts::Dataset walks =
      RandomWalks("walks", n, length, prob::DeriveSeed(kDatasetSeed, 700));
  w.context.threads = kPagedThreads;
  w.context.memory_budget_bytes = n * length * sizeof(double) / 4;
  w.context.spill_dir = args.work_dir + "/spill";
  mkdir(w.context.spill_dir.c_str(), 0755);
  std::uint64_t i = 0;
  for (double sigma : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    Case c;
    char name[32];
    std::snprintf(name, sizeof(name), "sigma=%.1f", sigma);
    c.name = name;
    c.exact = walks;
    c.spec = uncertain::ErrorSpec::Constant(prob::ErrorKind::kNormal, sigma);
    c.max_queries = queries;
    c.seed = prob::DeriveSeed(args.seed, 800 + i++);
    w.cases.push_back(std::move(c));
  }
  char shape[160];
  std::snprintf(shape, sizeof(shape),
                "%zu x %zu random walks, %zu queries per sigma step, budget "
                "%.2f MiB of %.2f MiB packed, threads 2",
                n, length, queries,
                static_cast<double>(w.context.memory_budget_bytes) / 1048576.0,
                static_cast<double>(n * length * 8) / 1048576.0);
  w.shape = shape;
  return w;
}

/// The matchers of one run, in the order the results come back. Every run
/// builds its own: MUNICH memoizes match probabilities across runs over the
/// same samples (the τ-sweep cache), and a benchmark that repeats a run
/// must not time that cache instead of the estimator.
struct Matchers {
  core::EuclideanMatcher euclid;
  core::DustMatcher dust;
  core::ProudMatcher proud{kProudTau};
  core::MunichMatcher munich;

  explicit Matchers(std::size_t mc_samples)
      : munich([mc_samples] {
          measures::MunichOptions options;
          options.estimator = measures::MunichOptions::Estimator::kMonteCarlo;
          options.mc_samples = mc_samples;
          return options;
        }()) {}

  static std::size_t Count(const Case& c) { return c.munich ? 4 : 3; }
  std::vector<core::Matcher*> For(const Case& c) {
    std::vector<core::Matcher*> out{&euclid, &dust, &proud};
    if (c.munich) out.push_back(&munich);
    return out;
  }
};

core::RunOptions RunOptionsFor(const Case& c, query::EngineContext* context) {
  core::RunOptions options;
  options.ground_truth_k = kGroundTruthK;
  options.max_queries = c.max_queries;
  options.seed = c.seed;
  options.threads = context->threads();
  options.munich_samples_per_point = c.munich ? kMunichSamplesPerPoint : 0;
  options.engine_context = context;
  return options;
}

/// Per-query F1 of every matcher of one run, concatenated in matcher order.
using F1Vector = std::vector<double>;

/// What one protocol run hands back, in matcher order.
struct CaseRun {
  F1Vector f1;                   ///< Per-query F1, matchers concatenated.
  std::vector<double> query_ms;  ///< Mean decision time per query per
                                 ///< matcher, as the protocol times it.
};

Result<CaseRun> RunCase(const Case& c, std::size_t mc_samples,
                        query::EngineContext* context) {
  Matchers matchers(mc_samples);
  const auto list = matchers.For(c);
  UTS_ASSIGN_OR_RETURN(auto results,
                       core::RunSimilarityMatching(
                           c.exact, c.spec, list, RunOptionsFor(c, context)));
  CaseRun run;
  for (const auto& r : results) {
    run.f1.insert(run.f1.end(), r.per_query_f1.begin(), r.per_query_f1.end());
    run.query_ms.push_back(r.avg_query_millis);
  }
  return run;
}

// ---------------------------------------------------------------------------
// Traced replay of the protocol through the layers' public calls
// ---------------------------------------------------------------------------

struct ReplayTotals {
  double engine_ms = 0;   ///< Ground truth + retrieval spans.
  double gt_bytes = 0;    ///< Computed bytes the ground truth reads.
  double gt_capacity = 0; ///< Σ ground-truth ms x peak of its level (GB/s).
  std::size_t matcher_queries = 0;
  std::size_t user_bytes = 0;  ///< Observation bytes bound.
};

const char* EngineSpanName(const core::Matcher* m, const Matchers& all) {
  if (m == &all.euclid) return "engine.euclid";
  if (m == &all.dust) return "engine.dust";
  if (m == &all.proud) return "engine.proud";
  return "engine.munich";
}

/// Replays RunSimilarityMatching for one case, span by span; returns the
/// same per-query F1 vector (checked against the untraced run).
Result<F1Vector> ReplayCase(const Case& c, std::size_t mc_samples,
                            query::EngineContext& context, Tracer& tracer,
                            std::uint64_t id, const BandwidthPeaks* peaks,
                            ReplayTotals* totals) {
  ScopedSpan root(tracer, "protocol.run", id);
  Matchers matchers(mc_samples);
  const auto list = matchers.For(c);
  const double sigma = c.spec.RepresentativeSigma();
  std::optional<uncertain::UncertainDataset> pdf;
  std::optional<uncertain::MultiSampleDataset> samples;
  {
    ScopedSpan span(tracer, "bind.perturb", id);
    pdf = uncertain::PerturbDataset(c.exact, c.spec, c.seed);
    if (c.munich) {
      samples = uncertain::PerturbDatasetMultiSample(
          c.exact, c.spec, kMunichSamplesPerPoint,
          prob::DeriveSeed(c.seed, 0xface));
    }
  }
  {
    ScopedSpan span(tracer, "bind.data", id);
    UTS_RETURN_NOT_OK(
        context.BindData(std::move(*pdf), std::move(samples), c.seed, sigma));
  }
  const query::DistanceMatrixEngine* certain = nullptr;
  {
    ScopedSpan span(tracer, "bind.pack", id);
    certain = &context.Certain(c.exact);
    context.AcquireProud(sigma);
  }
  core::EvalContext eval;
  eval.exact = &c.exact;
  eval.pdf = context.pdf();
  eval.samples = context.samples();
  eval.reported_sigma = sigma;
  eval.seed = c.seed;
  eval.threads = context.threads();
  eval.engines = &context;
  {
    ScopedSpan span(tracer, "context.acquire", id);
    for (core::Matcher* m : list) UTS_RETURN_NOT_OK(m->Bind(eval));
  }
  const std::size_t nq = c.queries();
  std::vector<std::vector<query::Neighbor>> truth;
  {
    const std::int64_t begin = NowNs();
    truth = certain->AllKNearestEuclidean(kGroundTruthK, nq);
    const std::int64_t end = NowNs();
    tracer.Record("engine.ground_truth", id, begin, end);
    const double ms = (end - begin) * 1e-6;
    totals->engine_ms += ms;
    // Computed, not counted: every query reads every row once.
    const double bytes = static_cast<double>(nq) *
                         static_cast<double>(c.exact.size()) *
                         static_cast<double>(c.exact[0].size()) * 8.0;
    totals->gt_bytes += bytes;
    if (peaks != nullptr) {
      std::string level;
      const double peak = peaks->For(
          c.exact.size() * c.exact[0].size() * sizeof(double), &level);
      totals->gt_capacity += ms * 1e-3 * peak * 1e9;
    }
  }
  totals->user_bytes += c.exact.size() * c.exact[0].size() * sizeof(double);
  std::vector<F1Vector> per_matcher(list.size());
  for (std::size_t qi = 0; qi < nq; ++qi) {
    std::vector<std::size_t> relevant;
    for (const auto& nb : truth[qi]) relevant.push_back(nb.index);
    const std::size_t calibration = truth[qi].back().index;
    for (std::size_t m = 0; m < list.size(); ++m) {
      Result<double> eps = 0.0;
      {
        ScopedSpan span(tracer, "matcher.calibrate", id);
        eps = list[m]->CalibrationDistance(qi, calibration);
      }
      UTS_RETURN_NOT_OK(eps.status());
      const std::int64_t begin = NowNs();
      auto retrieved =
          list[m]->Retrieve(qi, c.exact.size(), eps.ValueOrDie());
      const std::int64_t end = NowNs();
      tracer.Record(EngineSpanName(list[m], matchers), id, begin, end);
      totals->engine_ms += (end - begin) * 1e-6;
      UTS_RETURN_NOT_OK(retrieved.status());
      ScopedSpan span(tracer, "score", id);
      per_matcher[m].push_back(
          core::ComputeSetMetrics(retrieved.ValueOrDie(), relevant).f1);
      ++totals->matcher_queries;
    }
  }
  F1Vector f1;
  for (const auto& v : per_matcher) f1.insert(f1.end(), v.begin(), v.end());
  return f1;
}

double PoolMb(std::uint64_t bytes) {
  return static_cast<double>(bytes) / 1048576.0;
}

RunResult TraceProtocol(const Args& args, const Workload& w) {
  RunResult result;
  const BandwidthPeaks peaks = ProbeBandwidth(args.smoke);
  PrintBandwidth(peaks);

  const std::size_t mc = w.munich_mc_samples;
  query::EngineContext context(w.context);
  // Warm the one-time builds (pool, DUST tables) and the vCPUs outside the
  // comparison.
  for (const Case& c : w.cases) RunCase(c, mc, &context).ValueOrDie();

  // The program's own protocol path over every case: the F1 the replay
  // must reproduce.
  std::vector<F1Vector> reference;
  for (const Case& c : w.cases) {
    ++result.attempted;
    auto run = RunCase(c, mc, &context);
    if (!run.ok()) {
      ++result.failed;
      reference.emplace_back();
      continue;
    }
    reference.push_back(std::move(run).ValueOrDie().f1);
  }

  // Traced replay on the same context, with pool and context counters.
  Tracer tracer(true);
  ReplayTotals totals;
  const auto stats_before = context.stats();
  auto pool = context.buffer_pool();
  const ts::BufferPool::Stats pool_before =
      pool ? pool->stats() : ts::BufferPool::Stats{};
  for (std::size_t i = 0; i < w.cases.size(); ++i) {
    ++result.attempted;
    auto f1 = ReplayCase(w.cases[i], mc, context, tracer, i + 1,
                         &peaks, &totals);
    if (!f1.ok()) {
      ++result.failed;
      result.correct = false;
      continue;
    }
    if (f1.ValueOrDie() != reference[i]) {
      std::fprintf(stderr, "%s: replay of %s differs from the protocol run\n",
                   w.name.c_str(), w.cases[i].name.c_str());
      result.correct = false;
    }
  }
  const auto stats_after = context.stats();
  const ts::BufferPool::Stats pool_after =
      pool ? pool->stats() : ts::BufferPool::Stats{};

  // Thread scaling: engine time of the same untraced replay on a fresh
  // one-thread and a fresh two-thread context, whatever the workload's own
  // thread count.
  auto engine_ms_at = [&](std::size_t threads) {
    query::EngineContextOptions options = w.context;
    options.threads = threads;
    query::EngineContext scaled(options);
    RunCase(w.cases.back(), mc, &scaled).ValueOrDie();
    Tracer quiet(false);
    ReplayTotals scaled_totals;
    for (std::size_t i = 0; i < w.cases.size(); ++i) {
      ReplayCase(w.cases[i], mc, scaled, quiet, i + 1, nullptr,
                 &scaled_totals)
          .ValueOrDie();
    }
    return scaled_totals.engine_ms;
  };
  const double engine_ms_1t = engine_ms_at(1);
  const double engine_ms_2t = engine_ms_at(2);

  // Overhead: the same replay on the same context untraced vs traced,
  // alternating so drift cancels.
  auto time_replay = [&](bool traced) {
    Tracer t(traced);
    ReplayTotals ignored;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < w.cases.size(); ++i) {
      ReplayCase(w.cases[i], mc, context, t, i + 1, nullptr, &ignored)
          .ValueOrDie();
    }
    return SecondsSince(start);
  };
  const double u1 = time_replay(false), t1 = time_replay(true),
               u2 = time_replay(false), t2 = time_replay(true);

  LayerMetrics m;
  m.acquire_ms = Median(tracer.Durations("context.acquire"));
  m.rebuilds = static_cast<double>(
      (stats_after.certain_packs - stats_before.certain_packs) +
      (stats_after.pdf_packs - stats_before.pdf_packs) +
      (stats_after.data_binds - stats_before.data_binds) +
      (stats_after.dust_table_builds - stats_before.dust_table_builds) +
      (stats_after.proud_moment_builds - stats_before.proud_moment_builds) +
      (stats_after.sample_attaches - stats_before.sample_attaches));
  m.euclid_knn_ms = Median(tracer.Durations("engine.euclid"));
  m.dust_knn_ms = Median(tracer.Durations("engine.dust"));
  m.proud_prq_ms = Median(tracer.Durations("engine.proud"));
  m.munich_prq_ms = Median(tracer.Durations("engine.munich"));
  m.ground_truth_ms = Median(tracer.Durations("engine.ground_truth"));
  const double gt_ms = tracer.Total("engine.ground_truth");
  if (gt_ms > 0) m.scan_gbps = totals.gt_bytes / (gt_ms * 1e-3) / 1e9;
  if (totals.gt_capacity > 0) m.peak_frac = totals.gt_bytes / totals.gt_capacity;
  if (pool) {
    const double pins = static_cast<double>(pool_after.pins - pool_before.pins);
    const double faults =
        static_cast<double>(pool_after.faults - pool_before.faults);
    const std::uint64_t spilled =
        pool_after.spilled_bytes - pool_before.spilled_bytes;
    m.pool_hit_frac = pins > 0 ? 1.0 - faults / pins : 1.0;
    m.pool_faults_per_query =
        faults / static_cast<double>(std::max<std::size_t>(
                     1, totals.matcher_queries));
    m.pool_evictions =
        static_cast<double>(pool_after.evictions - pool_before.evictions);
    m.pool_spilled_mb = PoolMb(spilled);
    m.pool_peak_resident_mb = PoolMb(pool_after.peak_resident_bytes);
    m.pool_write_amp = static_cast<double>(spilled) /
                       static_cast<double>(std::max<std::size_t>(
                           1, totals.user_bytes));
  }
  m.perturb_ms = Median(tracer.Durations("bind.perturb"));
  m.pack_ms = Median(tracer.Durations("bind.pack"));
  // A zero engine time is no measurement: NaN fails the run.
  m.scaling_2t = engine_ms_1t / engine_ms_2t;
  m.overhead_frac = (t1 + t2) / (u1 + u2) - 1.0;
  const double root_ms = tracer.Total("protocol.run");
  double covered_ms = 0.0;
  for (const Span& span : tracer.spans()) {
    if (span.parent >= 0 &&
        tracer.spans()[static_cast<std::size_t>(span.parent)].name ==
            "protocol.run") {
      covered_ms += span.Millis();
    }
  }
  m.unaccounted_frac = 1.0 - covered_ms / root_ms;

  std::printf("# %s trace: %s; %zu cases, %zu matcher-queries; ground-truth "
              "bytes computed from shapes (every query reads every row), not "
              "counted\n",
              w.name.c_str(), w.shape.c_str(), w.cases.size(),
              totals.matcher_queries);
  if (pool) {
    std::printf("# pool: budget %.2f MiB, pins %llu, faults %llu, peak "
                "resident %.2f MiB\n",
                PoolMb(pool->budget_bytes()),
                static_cast<unsigned long long>(pool_after.pins -
                                                pool_before.pins),
                static_cast<unsigned long long>(pool_after.faults -
                                                pool_before.faults),
                m.pool_peak_resident_mb);
  }
  tracer.PrintSelfTimeTable(w.name + " replay");
  const std::string path = args.work_dir + "/trace-" + w.name + "-" +
                           std::to_string(args.seed) + ".jsonl";
  if (tracer.Write(path)) std::printf("# spans written to %s\n", path.c_str());
  AddLayerMetrics(result, m);
  return result;
}

// ---------------------------------------------------------------------------
// Untraced run
// ---------------------------------------------------------------------------

RunResult RunProtocol(const Args& args, const Workload& w) {
  RunResult result;
  // Set-up: a fresh context, then one query of the first case under a
  // warm-up seed (thread pool, buffer pool, DUST tables, engine code
  // paths). Every timed pass starts with one, so the set-up samples span
  // the run as the passes do: a shared host changes speed for seconds at
  // a time, and set-ups bunched at the start would all see one such phase.
  std::vector<double> setup_s;
  const std::size_t mc = w.munich_mc_samples;
  std::unique_ptr<query::EngineContext> context;
  auto set_up = [&] {
    context.reset();  // one context at a time, so peak RSS sees one
    const auto start = Clock::now();
    context = std::make_unique<query::EngineContext>(w.context);
    Case warm = w.cases.front();
    warm.max_queries = 1;
    warm.seed = prob::DeriveSeed(warm.seed, 0x5e7);
    if (!RunCase(warm, mc, context.get()).ok()) {
      std::fprintf(stderr, "%s: set-up run failed\n", w.name.c_str());
      std::exit(1);
    }
    return SecondsSince(start);
  };

  // Warm-up, untimed, for at least a second: on a VM a second vCPU runs at
  // up to half speed for the first second of load.
  set_up();
  const auto warm_start = Clock::now();
  while (SecondsSince(warm_start) < (args.smoke ? 0.1 : 1.0)) {
    for (const Case& c : w.cases) {
      RunCase(c, mc, context.get()).ok();
    }
  }

  // Timed: whole passes over the cases, each on a freshly set-up context,
  // until --seconds have elapsed. query_ms[case][matcher] holds, per pass,
  // the protocol's own mean decision time per query of that matcher.
  std::vector<double> pass_qps;
  std::vector<std::vector<std::vector<double>>> query_ms(w.cases.size());
  std::vector<F1Vector> first_pass(w.cases.size());
  std::size_t runs = 0;
  const auto start = Clock::now();
  for (int pass = 0; pass == 0 || SecondsSince(start) < args.seconds;
       ++pass) {
    setup_s.push_back(set_up());
    const auto pass_start = Clock::now();
    std::size_t matcher_queries = 0;
    for (std::size_t i = 0; i < w.cases.size(); ++i) {
      const Case& c = w.cases[i];
      ++result.attempted;
      ++runs;
      auto run_or = RunCase(c, mc, context.get());
      if (!run_or.ok()) {
        std::fprintf(stderr, "%s: %s failed: %s\n", w.name.c_str(),
                     c.name.c_str(), run_or.status().ToString().c_str());
        ++result.failed;
        continue;
      }
      CaseRun run = std::move(run_or).ValueOrDie();
      matcher_queries += c.queries() * Matchers::Count(c);
      query_ms[i].resize(run.query_ms.size());
      for (std::size_t m = 0; m < run.query_ms.size(); ++m) {
        query_ms[i][m].push_back(run.query_ms[m]);
      }
      if (pass == 0) {
        first_pass[i] = std::move(run.f1);
      } else if (run.f1 != first_pass[i]) {
        std::fprintf(stderr, "%s: pass %d of %s differs from pass 0\n",
                     w.name.c_str(), pass, c.name.c_str());
        result.correct = false;
      }
    }
    pass_qps.push_back(static_cast<double>(matcher_queries) /
                       SecondsSince(pass_start));
  }
  const double timed_s = SecondsSince(start);
  auto pool = context->buffer_pool();
  const ts::BufferPool::Stats pool_stats =
      pool ? pool->stats() : ts::BufferPool::Stats{};

  // Peak RSS is the high-water mark of the timed context; read it before
  // the reference below allocates a second one.
  const double rss_peak_mb = SelfPeakRssMb();
  context.reset();

  // Correctness gate: the same cases on a resident context at the other
  // thread count (1 for a multi-threaded workload, else 2) give bitwise
  // the same per-query F1.
  query::EngineContextOptions reference_options;
  reference_options.threads = w.context.threads == 1 ? 2 : 1;
  query::EngineContext reference(reference_options);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < w.cases.size(); ++i) {
    auto run = RunCase(w.cases[i], mc, &reference);
    if (!run.ok() || run.ValueOrDie().f1 != first_pass[i]) ++mismatches;
  }

  // Latency of one matcher-query. The protocol times each matcher's
  // retrieval per query and reports the mean per run; per (case, matcher)
  // the median of that mean over passes stands for each of its queries,
  // so every matcher-query of a pass weighs the same in p50/p99 and one
  // slow pass cannot set them.
  std::vector<double> matcher_query_ms;
  for (std::size_t i = 0; i < w.cases.size(); ++i) {
    for (const auto& per_pass : query_ms[i]) {
      matcher_query_ms.insert(matcher_query_ms.end(), w.cases[i].queries(),
                              Median(per_pass));
    }
  }
  EndToEnd e;
  e.setup_s = Median(setup_s);
  e.throughput_qps = Median(pass_qps);
  e.p50_ms = Quantile(matcher_query_ms, 0.5);
  e.p99_ms = Quantile(matcher_query_ms, 0.99);
  e.rss_peak_mb = rss_peak_mb;
  // Mean F1 over every matcher-query of the first pass, so that a case
  // weighs by its query count, as in p50/p99. A mean of per-matcher means
  // gave Coffee's 56 queries 4 of 10 votes and moved with the seed.
  std::vector<double> f1;
  for (const F1Vector& v : first_pass) f1.insert(f1.end(), v.begin(), v.end());
  e.f1 = Sum(f1) / static_cast<double>(f1.size());
  AddEndToEndMetrics(result, e);

  std::printf("# %s: %s; %zu passes over %zu cases in %.2f s (%zu protocol "
              "runs)\n",
              w.name.c_str(), w.shape.c_str(), pass_qps.size(),
              w.cases.size(), timed_s, runs);
  std::printf("# pass matcher-queries/s:");
  for (double q : pass_qps) std::printf(" %.0f", q);
  std::printf("\n# median ms per query (euclid dust proud [munich]):");
  for (std::size_t i = 0; i < w.cases.size(); ++i) {
    std::printf(" %s", w.cases[i].name.c_str());
    for (const auto& per_pass : query_ms[i]) {
      std::printf(" %.4f", Median(per_pass));
    }
  }
  std::printf("\n");
  if (pool) {
    std::printf("# pool: budget %.2f MiB, faults %llu, evictions %llu, "
                "spilled %.2f MiB, peak resident %.2f MiB\n",
                PoolMb(pool->budget_bytes()),
                static_cast<unsigned long long>(pool_stats.faults),
                static_cast<unsigned long long>(pool_stats.evictions),
                PoolMb(pool_stats.spilled_bytes),
                PoolMb(pool_stats.peak_resident_bytes));
  }
  std::printf("# setup_s samples:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n# correctness: %zu cases checked against a threads=%zu "
              "resident reference, %zu mismatches; ops %llu, error_frac "
              "%.6f\n",
              w.cases.size(), reference_options.threads, mismatches,
              static_cast<unsigned long long>(result.attempted),
              static_cast<double>(result.failed) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, result.attempted)));
  if (mismatches > 0 || result.failed > 0) result.correct = false;
  return result;
}

}  // namespace

RunResult RunOfflineMatch(const Args& args) {
  const Workload w = OfflineWorkload(args);
  return args.trace ? TraceProtocol(args, w) : RunProtocol(args, w);
}

RunResult RunPagedSigmaSweep(const Args& args) {
  const Workload w = PagedWorkload(args);
  return args.trace ? TraceProtocol(args, w) : RunProtocol(args, w);
}

}  // namespace perfbench
