// Micro-benchmarks of the statistical kernels that determine SCODED's
// throughput, in two parts:
//
//  1. Kernel sections (always run, recorded into BENCH_stat_micro.json
//     for the benchdiff gate): the int32 contingency count and the τ
//     rank/merge passes (dense ranks + inversion count), each timed by
//     direct calls to its per-row reference (`*_reference_ms`) and to the
//     production kernel (`*_kernel_ms`) with the speedup recorded, and
//     wavelet-matrix prefix counts on the production matrix. The section
//     titles are the keys benchdiff matches against the committed
//     baseline, so they keep the names they were recorded under.
//  2. The google-benchmark suite (skipped under --kernels-only): Kendall
//     τ (naive vs O(n log n)), the Algorithm 2 segment-tree benefit
//     initialisation, the G-test, raw segment-tree index operations, and
//     the stratified conditional tests at 1 vs N pool threads (the
//     per-stratum fan-out of the parallel execution layer).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "obs/flightrec.h"
#include "obs/timeseries.h"
#include "stats/contingency.h"
#include "stats/hypothesis.h"
#include "stats/kendall.h"
#include "stats/ranks.h"
#include "stats/segment_tree.h"
#include "stats/simd.h"
#include "table/table.h"

namespace {

using namespace scoded;

std::pair<std::vector<double>, std::vector<double>> RandomXy(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    double v = rng.Normal();
    x[i] = v;
    y[i] = v + rng.Normal(0.0, 1.0);
  }
  return {std::move(x), std::move(y)};
}

void BM_KendallTauFast(benchmark::State& state) {
  auto [x, y] = RandomXy(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KendallTau(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_KendallTauFast)->Range(256, 65536)->Complexity(benchmark::oNLogN);

void BM_KendallTauNaive(benchmark::State& state) {
  auto [x, y] = RandomXy(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KendallTauNaive(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_KendallTauNaive)->Range(256, 4096)->Complexity(benchmark::oNSquared);

void BM_TauBenefitsSegmentTree(benchmark::State& state) {
  auto [x, y] = RandomXy(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeTauBenefits(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TauBenefitsSegmentTree)->Range(256, 65536)->Complexity(benchmark::oNLogN);

void BM_TauBenefitsNaive(benchmark::State& state) {
  auto [x, y] = RandomXy(static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeTauBenefitsNaive(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TauBenefitsNaive)->Range(256, 4096)->Complexity(benchmark::oNSquared);

void BM_GStatistic(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<int32_t> x(n);
  std::vector<int32_t> y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = static_cast<int32_t>(rng.UniformInt(0, 9));
    y[i] = static_cast<int32_t>(rng.UniformInt(0, 9));
  }
  for (auto _ : state) {
    ContingencyTable ct(x, y, 10, 10);
    benchmark::DoNotOptimize(ct.GStatistic());
  }
}
BENCHMARK(BM_GStatistic)->Range(1024, 262144);

void BM_SegmentTreeOps(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  SegmentTree tree(n);
  Rng rng(6);
  size_t i = 0;
  for (auto _ : state) {
    size_t pos = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    tree.Add(pos, 1);
    benchmark::DoNotOptimize(tree.Sum(0, pos));
    if (++i % n == 0) {
      tree.Clear();
    }
  }
}
BENCHMARK(BM_SegmentTreeOps)->Range(1024, 1048576);

// ---------------------------------------------------------------------------
// Stratified conditional tests, serial vs parallel. Arg 0 is the row
// count, arg 1 the pool thread count (1 = the fully serial path). On a
// multi-core host the parallel rows should approach threads× the serial
// throughput; on a single core they measure the fork/join overhead.
// ---------------------------------------------------------------------------

// X ⊥̸ Y | Z with ~64 strata: numeric X/Y driven by a shared signal,
// categorical Z as the conditioning set.
Table StratifiedTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  std::vector<double> y(n);
  std::vector<std::string> z(n);
  std::vector<std::string> w(n);
  for (size_t i = 0; i < n; ++i) {
    double signal = rng.Normal();
    x[i] = signal + rng.Normal(0.0, 0.5);
    y[i] = signal + rng.Normal(0.0, 0.5);
    z[i] = std::string("z").append(std::to_string(rng.UniformInt(0, 63)));
    w[i] = std::string("w").append(std::to_string(rng.UniformInt(0, 7)));
  }
  TableBuilder builder;
  builder.AddNumeric("X", std::move(x));
  builder.AddNumeric("Y", std::move(y));
  builder.AddCategorical("Z", std::move(z));
  builder.AddCategorical("W", std::move(w));
  return std::move(builder).Build().value();
}

void BM_StratifiedTau(benchmark::State& state) {
  Table table = StratifiedTable(static_cast<size_t>(state.range(0)), 8);
  parallel::SetThreads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(IndependenceTest(table, 0, 1, {2}).value());
  }
  parallel::SetThreads(0);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StratifiedTau)
    ->ArgsProduct({{16384, 65536}, {1, 2, 4}})
    ->ArgNames({"n", "threads"});

void BM_StratifiedG(benchmark::State& state) {
  Table table = StratifiedTable(static_cast<size_t>(state.range(0)), 9);
  parallel::SetThreads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    // W vs discretised X given Z: the categorical branch of the dispatcher.
    benchmark::DoNotOptimize(IndependenceTest(table, 3, 0, {2}).value());
  }
  parallel::SetThreads(0);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StratifiedG)
    ->ArgsProduct({{16384, 65536}, {1, 2, 4}})
    ->ArgNames({"n", "threads"});

// ---------------------------------------------------------------------------
// Live-telemetry overhead. The same stratified kernels with the
// time-series sampler ticking at its default 10 Hz versus obs idle: the
// sampler is read-only over the hot-path atomics, so the /sampled rows
// must stay within ~2% of the /idle rows (the acceptance bar for the
// obs/timeseries layer). Not compiled in the SCODED_DISABLE_OBS build,
// where there is no sampler to measure.
// ---------------------------------------------------------------------------

#if !defined(SCODED_OBS_DISABLED)

void BM_StratifiedTauSampled(benchmark::State& state) {
  Table table = StratifiedTable(static_cast<size_t>(state.range(0)), 8);
  parallel::SetThreads(static_cast<int>(state.range(1)));
  bool sampled = state.range(2) != 0;
  if (sampled) {
    (void)obs::Sampler::Global().Start();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(IndependenceTest(table, 0, 1, {2}).value());
  }
  if (sampled) {
    obs::Sampler::Global().Stop();
  }
  parallel::SetThreads(0);
}
BENCHMARK(BM_StratifiedTauSampled)
    ->ArgsProduct({{65536}, {1, 4}, {0, 1}})
    ->ArgNames({"n", "threads", "sampler"});

void BM_StratifiedGSampled(benchmark::State& state) {
  Table table = StratifiedTable(static_cast<size_t>(state.range(0)), 9);
  parallel::SetThreads(static_cast<int>(state.range(1)));
  bool sampled = state.range(2) != 0;
  if (sampled) {
    (void)obs::Sampler::Global().Start();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(IndependenceTest(table, 3, 0, {2}).value());
  }
  if (sampled) {
    obs::Sampler::Global().Stop();
  }
  parallel::SetThreads(0);
}
BENCHMARK(BM_StratifiedGSampled)
    ->ArgsProduct({{65536}, {1, 4}, {0, 1}})
    ->ArgNames({"n", "threads", "sampler"});

// ---------------------------------------------------------------------------
// Flight-recorder overhead. The same stratified kernels with the journal
// armed (spans and heartbeats land in the per-thread lock-free rings)
// versus disarmed. The journal is a handful of relaxed atomic stores per
// span, so the /flightrec rows must stay within ~2% of the disarmed rows
// (the acceptance bar for the obs/flightrec layer).
// ---------------------------------------------------------------------------

void BM_StratifiedTauJournal(benchmark::State& state) {
  Table table = StratifiedTable(static_cast<size_t>(state.range(0)), 8);
  parallel::SetThreads(static_cast<int>(state.range(1)));
  bool armed = state.range(2) != 0;
  if (armed) {
    (void)obs::ArmFlightRecorder();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(IndependenceTest(table, 0, 1, {2}).value());
  }
  if (armed) {
    obs::DisarmFlightRecorder();
  }
  parallel::SetThreads(0);
}
BENCHMARK(BM_StratifiedTauJournal)
    ->ArgsProduct({{65536}, {1, 4}, {0, 1}})
    ->ArgNames({"n", "threads", "flightrec"});

void BM_StratifiedGJournal(benchmark::State& state) {
  Table table = StratifiedTable(static_cast<size_t>(state.range(0)), 9);
  parallel::SetThreads(static_cast<int>(state.range(1)));
  bool armed = state.range(2) != 0;
  if (armed) {
    (void)obs::ArmFlightRecorder();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(IndependenceTest(table, 3, 0, {2}).value());
  }
  if (armed) {
    obs::DisarmFlightRecorder();
  }
  parallel::SetThreads(0);
}
BENCHMARK(BM_StratifiedGJournal)
    ->ArgsProduct({{65536}, {1, 4}, {0, 1}})
    ->ArgNames({"n", "threads", "flightrec"});

#endif  // !SCODED_OBS_DISABLED

// ---------------------------------------------------------------------------
// Kernel sections. Each timing goes through bench::BestOf (one discarded
// cold-cache warm-up, then best of kKernelReps). The recorded `*_speedup`
// values compare each production kernel with its reference; the section
// wall-clocks feed the benchdiff regression gate.
// ---------------------------------------------------------------------------

constexpr int kKernelReps = 5;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<int32_t> RandomCategorical(size_t n, size_t cardinality, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> codes(n);
  for (int32_t& c : codes) {
    c = static_cast<int32_t>(rng.UniformInt(0, static_cast<int64_t>(cardinality) - 1));
  }
  return codes;
}

using ContingencyFn = void (*)(const int32_t*, const int32_t*, size_t, size_t, size_t, int64_t*);

// Times one full contingency count of two code columns with `count`.
double ContingencyMs(ContingencyFn count, const std::vector<int32_t>& x,
                     const std::vector<int32_t>& y, size_t cx, size_t cy) {
  std::vector<int64_t> counts(cx * cy);
  auto start = std::chrono::steady_clock::now();
  count(x.data(), y.data(), x.size(), cx, cy, counts.data());
  double ms = MsSince(start);
  if (counts[0] == -1) {
    std::printf("impossible\n");  // keep the count observable
  }
  return ms;
}

// Records the reference/production pair plus their ratio under `label`.
double RecordSpeedup(const std::string& label, double reference_ms, double production_ms) {
  double speedup = production_ms > 0.0 ? reference_ms / production_ms : 0.0;
  std::printf("%-32s reference %8.2f ms   kernel %8.2f ms   speedup %.2fx\n", label.c_str(),
              reference_ms, production_ms, speedup);
  bench::RecordValue(label + "_reference_ms", reference_ms);
  bench::RecordValue(label + "_kernel_ms", production_ms);
  bench::RecordValue(label + "_speedup", speedup);
  return speedup;
}

void RunKernelBenchmarks() {
  bench::PrintTitle("kernels: contingency accumulate by lane width");
  {
    struct Config {
      const char* label;
      size_t n;
      size_t cx;
      size_t cy;
    };
    const Config configs[] = {
        {"contingency_10x10", 1u << 20, 10, 10},
        {"contingency_256x256", 1u << 20, 256, 256},
        {"contingency_300x300", 1u << 20, 300, 300},
        {"contingency_100000x8", 1u << 19, 100000, 8},
    };
    double family = 0.0;
    for (const Config& config : configs) {
      std::vector<int32_t> x = RandomCategorical(config.n, config.cx, 21);
      std::vector<int32_t> y = RandomCategorical(config.n, config.cy, 22);
      double reference = bench::BestOf(kKernelReps, [&] {
        return ContingencyMs(simd::ContingencyReference, x, y, config.cx, config.cy);
      });
      double production = bench::BestOf(kKernelReps, [&] {
        return ContingencyMs(simd::Contingency, x, y, config.cx, config.cy);
      });
      family = std::max(family, RecordSpeedup(config.label, reference, production));
    }
    bench::RecordValue("family_contingency_speedup", family);
  }

  bench::PrintTitle("kernels: tau rank/merge passes");
  {
    const size_t n = 1u << 20;
    Rng rng(23);
    std::vector<double> values(n);
    for (double& v : values) {
      // A third of the values collide so the dense-rank pass sees real
      // tie groups, as τ columns do.
      v = (rng.UniformInt(0, 2) == 0) ? static_cast<double>(rng.UniformInt(0, 999))
                                      : rng.Normal();
    }
    std::vector<size_t> ranks(n);
    auto rank_ms = [&](size_t (*dense_ranks)(const double*, size_t, size_t*)) {
      auto start = std::chrono::steady_clock::now();
      size_t distinct = dense_ranks(values.data(), n, ranks.data());
      double ms = MsSince(start);
      if (distinct == 0) {
        std::printf("impossible\n");
      }
      return ms;
    };
    double rank_reference =
        bench::BestOf(kKernelReps, [&] { return rank_ms(simd::DenseRanksReference); });
    double rank_production = bench::BestOf(kKernelReps, [&] { return rank_ms(simd::DenseRanks); });
    RecordSpeedup("tau_dense_ranks_1m", rank_reference, rank_production);

    std::vector<uint32_t> sequence(n);
    for (size_t i = 0; i < n; ++i) {
      sequence[i] = static_cast<uint32_t>(ranks[i]);
    }
    std::vector<uint32_t> work(n);
    std::vector<uint32_t> scratch(n);
    auto merge_ms = [&](int64_t (*count_inversions)(uint32_t*, uint32_t*, size_t)) {
      work = sequence;  // the kernel permutes its input in place
      auto start = std::chrono::steady_clock::now();
      int64_t inversions = count_inversions(work.data(), scratch.data(), n);
      double ms = MsSince(start);
      if (inversions == -1) {
        std::printf("impossible\n");
      }
      return ms;
    };
    double merge_reference =
        bench::BestOf(kKernelReps, [&] { return merge_ms(simd::CountInversionsReference); });
    double merge_production =
        bench::BestOf(kKernelReps, [&] { return merge_ms(simd::CountInversions); });
    RecordSpeedup("tau_count_inversions_1m", merge_reference, merge_production);
    // The family headline weighs the passes as τ runs them: one rank pass
    // plus one merge pass per tested pair.
    bench::RecordValue("family_tau_rank_merge_speedup", (rank_reference + merge_reference) /
                                                            (rank_production + merge_production));
  }

  bench::PrintTitle("kernels: wavelet quadrant popcounts");
  {
    // The ConcordanceIndex workload: PrefixCounts probes against a
    // bit-packed wavelet matrix, whose rank directories devolve to
    // whole-word popcounts.
    const size_t m = 65536;
    const size_t probes = 200000;
    Rng rng(29);
    std::vector<uint32_t> codes(m);
    for (uint32_t& c : codes) {
      c = static_cast<uint32_t>(rng.UniformInt(0, static_cast<int64_t>(m) - 1));
    }
    std::vector<std::pair<size_t, uint32_t>> queries(probes);
    for (auto& qp : queries) {
      qp.first = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(m)));
      qp.second = static_cast<uint32_t>(rng.UniformInt(0, static_cast<int64_t>(m) - 1));
    }
    WaveletMatrix wm(codes, m);
    double ms = bench::BestOf(kKernelReps, [&] {
      int64_t sink = 0;
      auto start = std::chrono::steady_clock::now();
      for (const auto& qp : queries) {
        int64_t lt;
        int64_t eq;
        wm.PrefixCounts(qp.first, qp.second, &lt, &eq);
        sink += lt + eq;
      }
      double elapsed = MsSince(start);
      if (sink == -1) {
        std::printf("impossible\n");
      }
      return elapsed;
    });
    std::printf("%-32s kernel %8.2f ms\n", "wavelet_prefix_counts_200k", ms);
    bench::RecordValue("wavelet_prefix_counts_200k_ms", ms);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool kernels_only = false;
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    if (argv[i] != nullptr && std::strcmp(argv[i], "--kernels-only") == 0) {
      kernels_only = true;
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  scoded::bench::Init("stat_micro");
  RunKernelBenchmarks();
  if (kernels_only) {
    return 0;
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
