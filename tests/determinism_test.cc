// The parallel layer's contract: results are bit-identical at any thread
// count. Batch checking, drill-down, ranking and PC discovery are each run
// at threads = 1 (fully serial: the pre-parallel code path), 4, and the
// hardware concurrency, and every output — p-values, statistics, removal
// orders, skeleton adjacency, separating sets — must match exactly.
//
// The SIMD kernel dispatch extends the same contract along a second axis:
// every SCODED_SIMD value this host supports (off, sse2, avx2), crossed
// with thread counts 1 and 4, must reproduce the scalar/serial baseline
// bit for bit — for in-memory CheckAll, out-of-core ShardedCheckAll, and
// the streaming monitors in both unbounded and windowed modes.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/scoded.h"
#include "core/sharded_check.h"
#include "core/stream_monitor.h"
#include "discovery/pc.h"
#include "distributed/coordinator.h"
#include "distributed/substrate.h"
#include "obs/metrics.h"
#include "stats/simd.h"
#include "table/table.h"

namespace scoded {
namespace {

struct ThreadsGuard {
  explicit ThreadsGuard(int n) { parallel::SetThreads(n); }
  ~ThreadsGuard() { parallel::SetThreads(0); }
};

std::vector<int> ThreadCounts() { return {1, 4, parallel::HardwareThreads()}; }

// The work one run adds to the registry's stats.tests_executed and
// stats.rows_scanned counters, from construction to Taken().
class WorkDelta {
 public:
  struct Totals {
    int64_t tests_executed = 0;
    int64_t rows_scanned = 0;
  };

  WorkDelta() : start_(Now()) {}

  Totals Taken() const {
    Totals now = Now();
    return {now.tests_executed - start_.tests_executed, now.rows_scanned - start_.rows_scanned};
  }

 private:
  static Totals Now() {
    return {obs::Metrics::Global().FindOrCreateCounter("stats.tests_executed")->Value(),
            obs::Metrics::Global().FindOrCreateCounter("stats.rows_scanned")->Value()};
  }

  Totals start_;
};

// Mixed-type table with injected structure: `model` drives `price`,
// `price` drives `mileage`, `color` is independent noise.
Table MakeTable() {
  Rng rng(1234);
  std::vector<std::string> model;
  std::vector<std::string> color;
  std::vector<double> price;
  std::vector<double> mileage;
  const char* models[] = {"civic", "corolla", "focus", "golf"};
  const char* colors[] = {"red", "blue", "white"};
  for (int i = 0; i < 400; ++i) {
    int m = static_cast<int>(rng.UniformInt(0, 3));
    model.push_back(models[m]);
    color.push_back(colors[static_cast<int>(rng.UniformInt(0, 2))]);
    double p = 10.0 + 3.0 * m + rng.Normal(0.0, 1.0);
    price.push_back(p);
    mileage.push_back(100.0 - 4.0 * p + rng.Normal(0.0, 2.0));
  }
  TableBuilder builder;
  builder.AddCategorical("model", model);
  builder.AddCategorical("color", color);
  builder.AddNumeric("price", price);
  builder.AddNumeric("mileage", mileage);
  return std::move(builder).Build().value();
}

TEST(DeterminismTest, CheckAllIsThreadCountInvariant) {
  Table table = MakeTable();
  std::vector<ApproximateSc> constraints = {
      {Independence({"model"}, {"color"}), 0.05},
      {Dependence({"model"}, {"price"}), 0.05},
      {Dependence({"price"}, {"mileage"}), 0.05},
      {Independence({"model"}, {"mileage"}, {"price"}), 0.01},
  };

  Scoded::BatchCheckResult baseline;
  WorkDelta::Totals baseline_work;
  {
    ThreadsGuard guard(1);
    Scoded system(MakeTable());
    WorkDelta work;
    baseline = system.CheckAll(constraints).value();
    baseline_work = work.Taken();
  }
  for (int threads : ThreadCounts()) {
    ThreadsGuard guard(threads);
    Scoded system(MakeTable());
    WorkDelta work;
    Scoded::BatchCheckResult result = system.CheckAll(constraints).value();
    WorkDelta::Totals taken = work.Taken();
    ASSERT_EQ(result.reports.size(), baseline.reports.size()) << "threads=" << threads;
    EXPECT_EQ(result.violations, baseline.violations) << "threads=" << threads;
    for (size_t i = 0; i < result.reports.size(); ++i) {
      const ViolationReport& got = result.reports[i];
      const ViolationReport& want = baseline.reports[i];
      EXPECT_EQ(got.violated, want.violated) << "threads=" << threads << " sc=" << i;
      EXPECT_EQ(got.p_value, want.p_value) << "threads=" << threads << " sc=" << i;
      EXPECT_EQ(got.test.statistic, want.test.statistic) << "threads=" << threads << " sc=" << i;
      EXPECT_EQ(got.test.n, want.test.n) << "threads=" << threads << " sc=" << i;
      EXPECT_EQ(got.test.strata_used, want.test.strata_used)
          << "threads=" << threads << " sc=" << i;
    }
    // Work totals (tests executed, rows scanned) are deterministic too.
    EXPECT_EQ(taken.tests_executed, baseline_work.tests_executed) << "threads=" << threads;
    EXPECT_EQ(taken.rows_scanned, baseline_work.rows_scanned) << "threads=" << threads;
  }
}

TEST(DeterminismTest, DrillDownIsThreadCountInvariant) {
  std::vector<ApproximateSc> targets = {
      {Dependence({"price"}, {"mileage"}), 0.05},  // tau engine
      {Dependence({"model"}, {"price"}), 0.05},    // G engine (mixed pair)
      {Independence({"model"}, {"color"}), 0.05},  // complement strategy
  };
  for (size_t t = 0; t < targets.size(); ++t) {
    DrillDownResult baseline;
    {
      ThreadsGuard guard(1);
      Scoded system(MakeTable());
      baseline = system.DrillDown(targets[t], 25).value();
    }
    for (int threads : ThreadCounts()) {
      ThreadsGuard guard(threads);
      Scoded system(MakeTable());
      DrillDownResult result = system.DrillDown(targets[t], 25).value();
      EXPECT_EQ(result.rows, baseline.rows) << "threads=" << threads << " target=" << t;
      EXPECT_EQ(result.initial_statistic, baseline.initial_statistic)
          << "threads=" << threads << " target=" << t;
      EXPECT_EQ(result.final_statistic, baseline.final_statistic)
          << "threads=" << threads << " target=" << t;
      EXPECT_EQ(result.final_p, baseline.final_p) << "threads=" << threads << " target=" << t;
    }
  }
}

TEST(DeterminismTest, RankingIsThreadCountInvariant) {
  ApproximateSc target{Dependence({"price"}, {"mileage"}), 0.05};
  std::vector<size_t> baseline;
  {
    ThreadsGuard guard(1);
    Scoded system(MakeTable());
    baseline = system.RankRecords(target, 50).value();
  }
  ASSERT_EQ(baseline.size(), 50u);
  for (int threads : ThreadCounts()) {
    ThreadsGuard guard(threads);
    Scoded system(MakeTable());
    EXPECT_EQ(system.RankRecords(target, 50).value(), baseline) << "threads=" << threads;
  }
}

TEST(DeterminismTest, PcSkeletonIsThreadCountInvariant) {
  Table table = MakeTable();
  PcResult baseline;
  WorkDelta::Totals baseline_work;
  {
    ThreadsGuard guard(1);
    WorkDelta work;
    baseline = LearnPcStructure(table).value();
    baseline_work = work.Taken();
  }
  std::vector<std::string> baseline_text;
  for (const StatisticalConstraint& sc : baseline.DiscoveredConstraints()) {
    baseline_text.push_back(sc.ToString());
  }
  for (int threads : ThreadCounts()) {
    ThreadsGuard guard(threads);
    WorkDelta work;
    PcResult result = LearnPcStructure(table).value();
    WorkDelta::Totals taken = work.Taken();
    EXPECT_EQ(result.adjacent, baseline.adjacent) << "threads=" << threads;
    EXPECT_EQ(result.separating_sets, baseline.separating_sets) << "threads=" << threads;
    EXPECT_EQ(result.directed, baseline.directed) << "threads=" << threads;
    std::vector<std::string> text;
    for (const StatisticalConstraint& sc : result.DiscoveredConstraints()) {
      text.push_back(sc.ToString());
    }
    EXPECT_EQ(text, baseline_text) << "threads=" << threads;
    EXPECT_EQ(taken.tests_executed, baseline_work.tests_executed) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// SIMD-path determinism. Paths are selected the way deployments select
// them — through the SCODED_SIMD environment variable — so these also
// cover the env-var parsing and re-resolution plumbing.
// ---------------------------------------------------------------------------

// SCODED_SIMD values this host can honour (unsupported tiers are clamped
// by the dispatcher, which would silently re-test the same path).
std::vector<const char*> SimdEnvValues() {
  std::vector<const char*> values = {"off"};
  if (simd::Path::kSse2 <= simd::BestSupportedPath()) {
    values.push_back("sse2");
  }
  if (simd::Path::kAvx2 <= simd::BestSupportedPath()) {
    values.push_back("avx2");
  }
  return values;
}

// Applies one SCODED_SIMD value for the current scope, restoring the
// ambient environment (and dispatch) on destruction.
struct SimdEnvGuard {
  explicit SimdEnvGuard(const char* value) {
    ::setenv("SCODED_SIMD", value, 1);
    simd::ResetPathFromEnvironment();
  }
  ~SimdEnvGuard() {
    ::unsetenv("SCODED_SIMD");
    simd::ResetPathFromEnvironment();
  }
};

TEST(SimdDeterminismTest, CheckAllIsPathAndThreadInvariant) {
  std::vector<ApproximateSc> constraints = {
      {Independence({"model"}, {"color"}), 0.05},
      {Dependence({"model"}, {"price"}), 0.05},
      {Dependence({"price"}, {"mileage"}), 0.05},
      {Independence({"model"}, {"mileage"}, {"price"}), 0.01},
  };
  Scoded::BatchCheckResult baseline;
  {
    SimdEnvGuard simd_guard("off");
    ThreadsGuard threads_guard(1);
    Scoded system(MakeTable());
    baseline = system.CheckAll(constraints).value();
  }
  for (const char* simd_value : SimdEnvValues()) {
    for (int threads : {1, 4}) {
      SimdEnvGuard simd_guard(simd_value);
      ThreadsGuard threads_guard(threads);
      Scoded system(MakeTable());
      Scoded::BatchCheckResult result = system.CheckAll(constraints).value();
      ASSERT_EQ(result.reports.size(), baseline.reports.size());
      EXPECT_EQ(result.violations, baseline.violations)
          << "simd=" << simd_value << " threads=" << threads;
      for (size_t i = 0; i < result.reports.size(); ++i) {
        EXPECT_EQ(result.reports[i].violated, baseline.reports[i].violated)
            << "simd=" << simd_value << " threads=" << threads << " sc=" << i;
        EXPECT_EQ(result.reports[i].p_value, baseline.reports[i].p_value)
            << "simd=" << simd_value << " threads=" << threads << " sc=" << i;
        EXPECT_EQ(result.reports[i].test.statistic, baseline.reports[i].test.statistic)
            << "simd=" << simd_value << " threads=" << threads << " sc=" << i;
      }
    }
  }
}

TEST(SimdDeterminismTest, ShardedCheckAllIsPathAndThreadInvariant) {
  std::string path = ::testing::TempDir() + "/simd_determinism_sharded.csv";
  {
    Rng rng(4321);
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << "Model,Color,Price,Mileage\n";
    const char* models[] = {"civic", "corolla", "focus", "golf"};
    const char* colors[] = {"red", "blue", "white"};
    for (int i = 0; i < 500; ++i) {
      int64_t m = rng.UniformInt(0, 3);
      double p = 10.0 + 3.0 * static_cast<double>(m) + rng.Normal(0.0, 1.0);
      if (rng.UniformInt(0, 39) == 0) {
        out << ',';  // null Model
      } else {
        out << models[m] << ',';
      }
      out << colors[rng.UniformInt(0, 2)] << ',' << p << ','
          << 100.0 - 4.0 * p + rng.Normal(0.0, 2.0) << '\n';
    }
  }
  std::vector<ApproximateSc> constraints = {
      {ParseConstraint("Model _||_ Color").value(), 0.05},
      {ParseConstraint("Model !_||_ Price").value(), 0.3},
      {ParseConstraint("Price _||_ Mileage | Model").value(), 0.05},
  };
  ShardedCheckOptions options;
  options.reader.shard_rows = 64;
  ShardedCheckResult baseline;
  {
    SimdEnvGuard simd_guard("off");
    ThreadsGuard threads_guard(1);
    baseline = ShardedCheckAll(path, constraints, options).value();
  }
  ASSERT_EQ(baseline.reports.size(), constraints.size());
  for (const char* simd_value : SimdEnvValues()) {
    for (int threads : {1, 4}) {
      SimdEnvGuard simd_guard(simd_value);
      ThreadsGuard threads_guard(threads);
      ShardedCheckResult result = ShardedCheckAll(path, constraints, options).value();
      EXPECT_EQ(result.violations, baseline.violations)
          << "simd=" << simd_value << " threads=" << threads;
      EXPECT_EQ(result.shards, baseline.shards);
      EXPECT_EQ(result.rows, baseline.rows);
      ASSERT_EQ(result.reports.size(), baseline.reports.size());
      for (size_t i = 0; i < result.reports.size(); ++i) {
        EXPECT_EQ(result.reports[i].violated, baseline.reports[i].violated)
            << "simd=" << simd_value << " threads=" << threads << " sc=" << i;
        EXPECT_EQ(result.reports[i].p_value, baseline.reports[i].p_value)
            << "simd=" << simd_value << " threads=" << threads << " sc=" << i;
        EXPECT_EQ(result.reports[i].test.statistic, baseline.reports[i].test.statistic)
            << "simd=" << simd_value << " threads=" << threads << " sc=" << i;
      }
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Distributed determinism: the coordinator/worker path extends the same
// contract along a third axis — worker count crossed with transport must
// reproduce the single-process sharded baseline bit for bit.
// ---------------------------------------------------------------------------

TEST(DistributedDeterminismTest, WorkerCountAndTransportInvariant) {
  std::string path = ::testing::TempDir() + "/distributed_determinism.csv";
  {
    Rng rng(8642);
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << "Model,Color,Price,Mileage\n";
    const char* models[] = {"civic", "corolla", "focus", "golf"};
    const char* colors[] = {"red", "blue", "white"};
    for (int i = 0; i < 500; ++i) {
      int64_t m = rng.UniformInt(0, 3);
      double p = 10.0 + 3.0 * static_cast<double>(m) + rng.Normal(0.0, 1.0);
      if (rng.UniformInt(0, 39) == 0) {
        out << ',';  // null Model
      } else {
        out << models[m] << ',';
      }
      out << colors[rng.UniformInt(0, 2)] << ',' << p << ','
          << 100.0 - 4.0 * p + rng.Normal(0.0, 2.0) << '\n';
    }
  }
  std::vector<ApproximateSc> constraints = {
      {ParseConstraint("Model _||_ Color").value(), 0.05},
      {ParseConstraint("Model !_||_ Price").value(), 0.3},
      {ParseConstraint("Price _||_ Mileage | Model").value(), 0.05},
  };
  ShardedCheckOptions base;
  base.reader.shard_rows = 64;
  ShardedCheckResult baseline;
  {
    ThreadsGuard threads_guard(1);
    baseline = ShardedCheckAll(path, constraints, base).value();
  }
  ASSERT_EQ(baseline.reports.size(), constraints.size());

  struct Transport {
    const char* name;
    std::unique_ptr<dist::Substrate> substrate;
  };
  std::vector<Transport> transports;
  transports.push_back({"in-process", std::make_unique<dist::InProcessSubstrate>()});
#ifdef SCODED_CLI_BIN
  transports.push_back({"fork", std::make_unique<dist::ForkExecSubstrate>(
                                    SCODED_CLI_BIN, std::vector<std::string>{"worker"})});
  transports.push_back({"tcp", std::make_unique<dist::TcpSubstrate>(
                                   SCODED_CLI_BIN, std::vector<std::string>{"worker"})});
#endif
  for (Transport& transport : transports) {
    for (int workers : {1, 2, 4}) {
      dist::DistributedCheckOptions options;
      options.base = base;
      options.workers = workers;
      Result<ShardedCheckResult> result =
          dist::DistributedCheckAll(path, constraints, *transport.substrate, options);
      ASSERT_TRUE(result.ok()) << transport.name << " workers=" << workers << ": "
                               << result.status().message();
      EXPECT_EQ(result->violations, baseline.violations)
          << transport.name << " workers=" << workers;
      EXPECT_EQ(result->shards, baseline.shards);
      EXPECT_EQ(result->rows, baseline.rows);
      ASSERT_EQ(result->reports.size(), baseline.reports.size());
      for (size_t i = 0; i < result->reports.size(); ++i) {
        EXPECT_EQ(result->reports[i].violated, baseline.reports[i].violated)
            << transport.name << " workers=" << workers << " sc=" << i;
        EXPECT_EQ(result->reports[i].p_value, baseline.reports[i].p_value)
            << transport.name << " workers=" << workers << " sc=" << i;
        EXPECT_EQ(result->reports[i].test.statistic, baseline.reports[i].test.statistic)
            << transport.name << " workers=" << workers << " sc=" << i;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(SimdDeterminismTest, StreamMonitorIsPathAndThreadInvariant) {
  // 6 batches of 70 rows against a numeric and a categorical constraint,
  // in unbounded (window 0) and windowed (window 64: evictions exercise
  // the pair-scan kernel on both sides) modes.
  auto make_batch = [](uint64_t seed) {
    Rng rng(seed);
    std::vector<double> price;
    std::vector<double> mileage;
    std::vector<std::string> model;
    std::vector<std::string> color;
    const char* models[] = {"civic", "corolla", "focus"};
    const char* colors[] = {"red", "blue"};
    for (int i = 0; i < 70; ++i) {
      double p = 10.0 + rng.Normal(0.0, 2.0);
      price.push_back(p);
      mileage.push_back(100.0 - 4.0 * p + rng.Normal(0.0, 2.0));
      model.push_back(models[rng.UniformInt(0, 2)]);
      color.push_back(colors[rng.UniformInt(0, 1)]);
    }
    TableBuilder builder;
    builder.AddNumeric("price", price);
    builder.AddNumeric("mileage", mileage);
    builder.AddCategorical("model", model);
    builder.AddCategorical("color", color);
    return std::move(builder).Build().value();
  };
  std::vector<ApproximateSc> constraints = {
      {ParseConstraint("price !_||_ mileage").value(), 0.3},
      {ParseConstraint("model _||_ color").value(), 0.05},
      {ParseConstraint("price !_||_ mileage | model").value(), 0.3},
  };
  for (size_t window : {size_t{0}, size_t{64}}) {
    StreamMonitorOptions options;
    options.monitor.window = window;
    struct MonitorState {
      double statistic;
      double p_value;
      bool violated;
      size_t occupancy;
    };
    std::vector<MonitorState> baseline;
    {
      SimdEnvGuard simd_guard("off");
      ThreadsGuard threads_guard(1);
      StreamMonitor stream = StreamMonitor::Create(make_batch(1), constraints, options).value();
      for (uint64_t seed = 1; seed <= 6; ++seed) {
        ASSERT_TRUE(stream.Append(make_batch(seed)).ok());
      }
      for (size_t i = 0; i < stream.NumMonitors(); ++i) {
        baseline.push_back({stream.monitor(i).CurrentStatistic(),
                            stream.monitor(i).CurrentPValue(), stream.monitor(i).Violated(),
                            stream.monitor(i).WindowOccupancy()});
      }
    }
    for (const char* simd_value : SimdEnvValues()) {
      for (int threads : {1, 4}) {
        SimdEnvGuard simd_guard(simd_value);
        ThreadsGuard threads_guard(threads);
        StreamMonitor stream =
            StreamMonitor::Create(make_batch(1), constraints, options).value();
        for (uint64_t seed = 1; seed <= 6; ++seed) {
          ASSERT_TRUE(stream.Append(make_batch(seed)).ok());
        }
        ASSERT_EQ(stream.NumMonitors(), baseline.size());
        for (size_t i = 0; i < baseline.size(); ++i) {
          EXPECT_EQ(stream.monitor(i).CurrentStatistic(), baseline[i].statistic)
              << "simd=" << simd_value << " threads=" << threads << " window=" << window
              << " monitor=" << i;
          EXPECT_EQ(stream.monitor(i).CurrentPValue(), baseline[i].p_value)
              << "simd=" << simd_value << " threads=" << threads << " window=" << window
              << " monitor=" << i;
          EXPECT_EQ(stream.monitor(i).Violated(), baseline[i].violated)
              << "simd=" << simd_value << " threads=" << threads << " window=" << window
              << " monitor=" << i;
          EXPECT_EQ(stream.monitor(i).WindowOccupancy(), baseline[i].occupancy)
              << "simd=" << simd_value << " threads=" << threads << " window=" << window
              << " monitor=" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace scoded
