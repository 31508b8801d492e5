// The parallel layer's contract: results are bit-identical at any thread
// count. Batch checking, drill-down, ranking and PC discovery are each run
// at threads = 1 (fully serial: the pre-parallel code path), 4, and the
// hardware concurrency, and every output — p-values, statistics, removal
// orders, skeleton adjacency, separating sets — must match exactly. The
// same holds for the chunked csv::ReadFile, for out-of-core ShardedCheckAll
// and for the streaming monitors in both unbounded and windowed modes.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/drilldown.h"
#include "core/scoded.h"
#include "core/sharded_check.h"
#include "core/stream_monitor.h"
#include "discovery/pc.h"
#include "distributed/coordinator.h"
#include "distributed/substrate.h"
#include "obs/metrics.h"
#include "table/csv.h"
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

// Drill targets big enough that every greedy pass splits into several
// kScanGrain (4096) chunks: a 12k-row τ pair, unconditional and
// stratified, and a categorical pair with over 4096 live cells.
Table MakeChunkedDrillTable() {
  Rng rng(4321);
  std::vector<double> x;
  std::vector<double> y;
  std::vector<std::string> z;
  std::vector<std::string> a;
  std::vector<std::string> b;
  for (int i = 0; i < 12000; ++i) {
    double v = rng.Normal();
    x.push_back(v);
    // Rounded to a coarse grid so ties (and the row-id tie-break) occur.
    y.push_back(std::round(4.0 * (0.3 * v + rng.Normal())) / 4.0);
    z.push_back(i % 3 == 0 ? "p" : "q");
    int64_t ca = rng.UniformInt(0, 99);
    a.emplace_back("a").append(std::to_string(ca));
    b.emplace_back("b").append(std::to_string(rng.Bernoulli(0.2) ? ca : rng.UniformInt(0, 99)));
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  builder.AddCategorical("z", z);
  builder.AddCategorical("a", a);
  builder.AddCategorical("b", b);
  return std::move(builder).Build().value();
}

TEST(DeterminismTest, ChunkedDrillDownIsThreadCountInvariant) {
  struct Target {
    ApproximateSc asc;
    Strategy strategy;
    size_t k;
  };
  const Target targets[] = {
      {{Dependence({"x"}, {"y"}), 0.05}, Strategy::kDirect, 60},
      {{Independence({"x"}, {"y"}), 0.05}, Strategy::kComplement, 60},
      {{Independence({"x"}, {"y"}, {"z"}), 0.05}, Strategy::kComplement, 60},
      {{Independence({"a"}, {"b"}), 0.05}, Strategy::kDirect, 60},
  };
  Table table = MakeChunkedDrillTable();
  std::set<std::pair<int32_t, int32_t>> cells;
  for (size_t row = 0; row < table.NumRows(); ++row) {
    cells.emplace(table.ColumnByName("a").CodeAt(row), table.ColumnByName("b").CodeAt(row));
  }
  ASSERT_GT(cells.size(), 4096u);
  for (size_t t = 0; t < std::size(targets); ++t) {
    DrillDownOptions options;
    options.strategy = targets[t].strategy;
    DrillDownResult baseline;
    {
      ThreadsGuard guard(1);
      baseline = DrillDown(table, targets[t].asc, targets[t].k, options).value();
    }
    ASSERT_EQ(baseline.rows.size(), targets[t].k) << "target=" << t;
    for (int threads : ThreadCounts()) {
      ThreadsGuard guard(threads);
      DrillDownResult result = DrillDown(table, targets[t].asc, targets[t].k, options).value();
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

TEST(DeterminismTest, ShardedCheckAllIsThreadCountInvariant) {
  std::string path = ::testing::TempDir() + "/determinism_sharded.csv";
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
    ThreadsGuard threads_guard(1);
    baseline = ShardedCheckAll(path, constraints, options).value();
  }
  ASSERT_EQ(baseline.reports.size(), constraints.size());
  for (int threads : ThreadCounts()) {
    ThreadsGuard threads_guard(threads);
    ShardedCheckResult result = ShardedCheckAll(path, constraints, options).value();
    EXPECT_EQ(result.violations, baseline.violations) << "threads=" << threads;
    EXPECT_EQ(result.shards, baseline.shards);
    EXPECT_EQ(result.rows, baseline.rows);
    ASSERT_EQ(result.reports.size(), baseline.reports.size());
    for (size_t i = 0; i < result.reports.size(); ++i) {
      EXPECT_EQ(result.reports[i].violated, baseline.reports[i].violated)
          << "threads=" << threads << " sc=" << i;
      EXPECT_EQ(result.reports[i].p_value, baseline.reports[i].p_value)
          << "threads=" << threads << " sc=" << i;
      EXPECT_EQ(result.reports[i].test.statistic, baseline.reports[i].test.statistic)
          << "threads=" << threads << " sc=" << i;
    }
  }
  std::remove(path.c_str());
}

// csv::ReadFile cuts its input into 1 MiB chunks that are typed on the pool
// and merged in order. A file several chunks long, with nulls, quoted
// categories holding delimiters and line breaks, and a column that turns
// categorical past the first chunk, reads into the same table, and checks to
// the same reports, at every thread count.
TEST(DeterminismTest, ReadFileIsThreadCountInvariant) {
  std::string path = ::testing::TempDir() + "/determinism_read.csv";
  {
    Rng rng(2468);
    const char* models[] = {"civic", "golf, gti", "corolla\nhybrid", "say \"\"hi\"\""};
    const char* colors[] = {"red", "blue", "white"};
    std::string text = "Model,Color,Price,Mileage,Mixed\n";
    bool mixed_text = false;
    while (text.size() < (size_t{7} << 19)) {
      int64_t m = rng.UniformInt(0, 3);
      double p = 10.0 + 3.0 * static_cast<double>(m) + rng.Normal(0.0, 1.0);
      if (rng.UniformInt(0, 39) != 0) {
        // Every model but the first is quoted.
        text.append(m == 0 ? "" : "\"").append(models[m]).append(m == 0 ? "" : "\"");
      }
      text += ',';
      if (rng.UniformInt(0, 49) != 0) {
        text += colors[rng.UniformInt(0, 2)];
      }
      text += ',';
      if (rng.UniformInt(0, 59) != 0) {
        text += std::to_string(p);
      }
      text += ',';
      text += std::to_string(100.0 - 4.0 * p + rng.Normal(0.0, 2.0));
      text += ',';
      if (!mixed_text && text.size() > (size_t{3} << 19)) {
        text += "n/a";  // past the first 1 MiB chunk: Mixed becomes categorical
        mixed_text = true;
      } else {
        text += std::to_string(rng.UniformInt(0, 20));
      }
      text += '\n';
    }
    std::ofstream out(path, std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good());
  }
  std::vector<ApproximateSc> constraints = {
      {ParseConstraint("Model _||_ Color").value(), 0.05},
      {ParseConstraint("Price !_||_ Mileage").value(), 0.05},
      {ParseConstraint("Mixed _||_ Color | Model").value(), 0.05},
  };
  Table baseline_table;
  Scoded::BatchCheckResult baseline;
  {
    ThreadsGuard guard(1);
    baseline_table = csv::ReadFile(path).value();
    baseline = Scoded(baseline_table).CheckAll(constraints).value();
  }
  ASSERT_GT(baseline_table.NumRows(), 50000u);
  ASSERT_EQ(baseline_table.ColumnByName("Mixed").type(), ColumnType::kCategorical);
  ASSERT_EQ(baseline_table.ColumnByName("Price").type(), ColumnType::kNumeric);
  for (int threads : ThreadCounts()) {
    ThreadsGuard guard(threads);
    Table table = csv::ReadFile(path).value();
    ASSERT_EQ(table.NumRows(), baseline_table.NumRows()) << "threads=" << threads;
    ASSERT_EQ(table.NumColumns(), baseline_table.NumColumns()) << "threads=" << threads;
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      const Column& got = table.column(c);
      const Column& want = baseline_table.column(c);
      ASSERT_EQ(table.schema().field(c).name, baseline_table.schema().field(c).name);
      ASSERT_EQ(got.type(), want.type()) << "threads=" << threads << " column " << c;
      if (got.type() == ColumnType::kNumeric) {
        // memcmp: bitwise, so NaN nulls compare equal.
        EXPECT_EQ(std::memcmp(got.numeric_values().data(), want.numeric_values().data(),
                              got.size() * sizeof(double)),
                  0)
            << "threads=" << threads << " column " << c;
      } else {
        EXPECT_EQ(got.codes(), want.codes()) << "threads=" << threads << " column " << c;
        EXPECT_EQ(got.dictionary(), want.dictionary()) << "threads=" << threads << " column " << c;
      }
      for (size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got.IsNull(r), want.IsNull(r)) << "threads=" << threads << " column " << c;
      }
    }
    Scoded::BatchCheckResult result = Scoded(std::move(table)).CheckAll(constraints).value();
    ASSERT_EQ(result.reports.size(), baseline.reports.size());
    EXPECT_EQ(result.violations, baseline.violations) << "threads=" << threads;
    for (size_t i = 0; i < result.reports.size(); ++i) {
      EXPECT_EQ(result.reports[i].violated, baseline.reports[i].violated)
          << "threads=" << threads << " sc=" << i;
      EXPECT_EQ(result.reports[i].p_value, baseline.reports[i].p_value)
          << "threads=" << threads << " sc=" << i;
      EXPECT_EQ(result.reports[i].test.statistic, baseline.reports[i].test.statistic)
          << "threads=" << threads << " sc=" << i;
      EXPECT_EQ(result.reports[i].test.n, baseline.reports[i].test.n)
          << "threads=" << threads << " sc=" << i;
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

TEST(DeterminismTest, StreamMonitorIsThreadCountInvariant) {
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
    for (int threads : ThreadCounts()) {
      ThreadsGuard threads_guard(threads);
      StreamMonitor stream = StreamMonitor::Create(make_batch(1), constraints, options).value();
      for (uint64_t seed = 1; seed <= 6; ++seed) {
        ASSERT_TRUE(stream.Append(make_batch(seed)).ok());
      }
      ASSERT_EQ(stream.NumMonitors(), baseline.size());
      for (size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(stream.monitor(i).CurrentStatistic(), baseline[i].statistic)
            << "threads=" << threads << " window=" << window << " monitor=" << i;
        EXPECT_EQ(stream.monitor(i).CurrentPValue(), baseline[i].p_value)
            << "threads=" << threads << " window=" << window << " monitor=" << i;
        EXPECT_EQ(stream.monitor(i).Violated(), baseline[i].violated)
            << "threads=" << threads << " window=" << window << " monitor=" << i;
        EXPECT_EQ(stream.monitor(i).WindowOccupancy(), baseline[i].occupancy)
            << "threads=" << threads << " window=" << window << " monitor=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace scoded
