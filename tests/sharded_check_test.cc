#include "core/sharded_check.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/scoded.h"
#include "datasets/hosp.h"
#include "distributed/coordinator.h"
#include "distributed/substrate.h"
#include "obs/metrics.h"
#include "table/csv.h"
#include "table/csv_stream.h"

namespace scoded {
namespace {

// Renders the decision-relevant surface of a report the way `scoded check`
// prints it, so "identical reports" means the string a user would see.
std::string FormatReport(const ApproximateSc& asc, const ViolationReport& report) {
  char line[256];
  std::snprintf(line, sizeof(line), "%s: %s (p = %.6g, statistic = %.4g, method = %s, n = %lld)",
                asc.sc.ToString().c_str(), report.violated ? "VIOLATED" : "holds", report.p_value,
                report.test.statistic, std::string(TestMethodToString(report.test.method)).c_str(),
                static_cast<long long>(report.test.n));
  std::string out = line;
  for (const ComponentResult& part : report.components) {
    std::snprintf(line, sizeof(line), " | %s p=%.9g stat=%.9g dof=%lld n=%lld exact=%d su=%zu ss=%zu",
                  part.component.ToString().c_str(), part.test.p_value, part.test.statistic,
                  static_cast<long long>(part.test.dof), static_cast<long long>(part.test.n),
                  part.test.used_exact ? 1 : 0, part.test.strata_used, part.test.strata_skipped);
    out += line;
  }
  return out;
}

class ShardedCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/sharded_check_test.csv";
    Rng rng(41);
    std::ofstream out(path_);
    ASSERT_TRUE(out.good());
    out << "Model,Color,Price,Mileage\n";
    const char* models[] = {"civic", "corolla", "focus", "golf", "a4", "i3"};
    const char* colors[] = {"red", "blue", "white", "black"};
    for (int i = 0; i < 1300; ++i) {
      int64_t m = rng.UniformInt(0, 5);
      int64_t c = rng.UniformInt(0, 9) < 4 ? m % 4 : rng.UniformInt(0, 3);
      // ~2% nulls in each column; quoted value with a comma now and then to
      // keep the RFC-4180 path honest.
      if (rng.UniformInt(0, 49) == 0) {
        out << "";
      } else if (m == 5 && rng.UniformInt(0, 3) == 0) {
        out << "\"i3, sport\"";
      } else {
        out << models[m];
      }
      out << ',';
      if (rng.UniformInt(0, 49) == 1) {
        out << "";
      } else {
        out << colors[c];
      }
      out << ',';
      if (rng.UniformInt(0, 49) == 2) {
        out << "";
      } else {
        out << (1000 + m * 250 + rng.UniformInt(0, 400));
      }
      out << ',';
      out << rng.UniformInt(0, 120000) << '\n';
    }
    out.close();

    constraints_.push_back({MustParse("Model _||_ Color"), 0.05});
    constraints_.push_back({MustParse("Model !_||_ Price"), 0.3});
    constraints_.push_back({MustParse("Price _||_ Mileage | Model"), 0.05});
    constraints_.push_back({MustParse("Color, Model !_||_ Price"), 0.3});
  }

  static StatisticalConstraint MustParse(const std::string& text) {
    Result<StatisticalConstraint> sc = ParseConstraint(text);
    EXPECT_TRUE(sc.ok()) << sc.status().message();
    return std::move(sc).value();
  }

  std::vector<std::string> InMemoryLines() {
    Result<Table> table = csv::ReadFile(path_);
    EXPECT_TRUE(table.ok()) << table.status().message();
    Scoded scoded(std::move(table).value());
    std::vector<std::string> lines;
    for (const ApproximateSc& asc : constraints_) {
      Result<ViolationReport> report = scoded.CheckViolation(asc);
      EXPECT_TRUE(report.ok()) << report.status().message();
      lines.push_back(FormatReport(asc, *report));
    }
    return lines;
  }

  std::vector<std::string> ShardedLines(size_t shard_rows, int threads) {
    ShardedCheckOptions options;
    options.reader.shard_rows = shard_rows;
    parallel::SetThreads(threads);
    Result<ShardedCheckResult> result = ShardedCheckAll(path_, constraints_, options);
    EXPECT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result->rows, uint64_t{1300});
    EXPECT_EQ(result->shards, (1300 + shard_rows - 1) / shard_rows);
    EXPECT_EQ(result->reports.size(), constraints_.size());
    std::vector<std::string> lines;
    for (size_t i = 0; i < result->reports.size(); ++i) {
      lines.push_back(FormatReport(constraints_[i], result->reports[i]));
    }
    return lines;
  }

  std::string path_;
  std::vector<ApproximateSc> constraints_;
};

TEST_F(ShardedCheckTest, MatchesInMemorySingleThread) {
  std::vector<std::string> expected = InMemoryLines();
  std::vector<std::string> actual = ShardedLines(/*shard_rows=*/64, /*threads=*/1);
  EXPECT_EQ(expected, actual);
}

TEST_F(ShardedCheckTest, MatchesInMemoryFourThreads) {
  std::vector<std::string> expected = InMemoryLines();
  std::vector<std::string> actual = ShardedLines(/*shard_rows=*/64, /*threads=*/4);
  EXPECT_EQ(expected, actual);
}

TEST_F(ShardedCheckTest, ShardSizeDoesNotChangeResults) {
  std::vector<std::string> expected = ShardedLines(/*shard_rows=*/1300, /*threads=*/1);
  for (size_t shard_rows : {37, 256, 5000}) {
    EXPECT_EQ(expected, ShardedLines(shard_rows, /*threads=*/2)) << "shard_rows=" << shard_rows;
  }
}

TEST_F(ShardedCheckTest, InconsistentSetIsRejectedBeforeStreaming) {
  std::vector<ApproximateSc> bad;
  bad.push_back({MustParse("Model _||_ Color, Price"), 0.05});
  bad.push_back({MustParse("Model !_||_ Color"), 0.05});
  Result<ShardedCheckResult> result = ShardedCheckAll(path_, bad, ShardedCheckOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("inconsistent"), std::string::npos);
}

TEST_F(ShardedCheckTest, BadAlphaIsRejected) {
  std::vector<ApproximateSc> bad;
  bad.push_back({MustParse("Model _||_ Color"), 1.5});
  Result<ShardedCheckResult> result = ShardedCheckAll(path_, bad, ShardedCheckOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("alpha"), std::string::npos);
}

TEST_F(ShardedCheckTest, MissingFileSurfacesReaderError) {
  Result<ShardedCheckResult> result =
      ShardedCheckAll(path_ + ".nope", constraints_, ShardedCheckOptions{});
  EXPECT_FALSE(result.ok());
}

TEST_F(ShardedCheckTest, EveryPathRecordsOneSampleSizePerComponentTest) {
  // stats.test_n_rows is documented as one observation per test; the
  // sharded paths finish their tests from summaries, not IndependenceTest.
  obs::Histogram* test_rows = obs::Metrics::Global().FindOrCreateHistogram("stats.test_n_rows");
  obs::Counter* tests = obs::Metrics::Global().FindOrCreateCounter("stats.tests_executed");
  int64_t components = 0;
  for (const ApproximateSc& asc : constraints_) {
    components += static_cast<int64_t>(DecomposeToSingletons(asc.sc).size());
  }
  ShardedCheckOptions options;
  options.reader.shard_rows = 64;
  int64_t rows_before = test_rows->Count();
  int64_t tests_before = tests->Value();
  ASSERT_TRUE(ShardedCheckAll(path_, constraints_, options).ok());
  EXPECT_EQ(test_rows->Count() - rows_before, components);
  EXPECT_EQ(tests->Value() - tests_before, components);

  dist::InProcessSubstrate substrate;
  dist::DistributedCheckOptions distributed;
  distributed.base = options;
  distributed.workers = 2;
  rows_before = test_rows->Count();
  tests_before = tests->Value();
  ASSERT_TRUE(dist::DistributedCheckAll(path_, constraints_, substrate, distributed).ok());
  EXPECT_EQ(test_rows->Count() - rows_before, components);
  EXPECT_EQ(tests->Value() - tests_before, components);
}

// ---------------------------------------------------------------------------
// The shared shard-range summariser: where the indexed shards are cut into
// ranges, and in which grouping their summaries fold, must not change a
// single summary field.
// ---------------------------------------------------------------------------

void ExpectSameSnapshot(const PairwiseShardSummary::Snapshot& want,
                        const PairwiseShardSummary::Snapshot& got, const std::string& label) {
  EXPECT_EQ(want.spec.x_col, got.spec.x_col) << label;
  EXPECT_EQ(want.spec.y_col, got.spec.y_col) << label;
  EXPECT_EQ(want.spec.z_cols, got.spec.z_cols) << label;
  EXPECT_EQ(want.role_types, got.role_types) << label;
  EXPECT_EQ(want.dicts, got.dicts) << label;
  EXPECT_EQ(want.keys, got.keys) << label;
  EXPECT_EQ(want.counts, got.counts) << label;
  EXPECT_EQ(want.first_rows, got.first_rows) << label;
  EXPECT_EQ(want.rows, got.rows) << label;
}

std::vector<PairwiseShardSummary::Spec> PlanSpecs(const std::string& path,
                                                  const std::vector<ApproximateSc>& constraints) {
  Table schema = csv::ShardReader::Open(path).value().EmptyTable().value();
  ShardedCheckPlan plan = PrepareShardedCheck(schema, constraints, TestOptions{}).value();
  std::vector<PairwiseShardSummary::Spec> specs;
  for (const ShardedComponent& component : plan.components) {
    specs.push_back(component.spec);
  }
  return specs;
}

ShardSource SourceOf(const std::string& path, const csv::ShardReader& reader,
                     const csv::ShardReaderOptions& options) {
  return ShardSource{path, options, reader.column_names(), reader.numeric()};
}

TEST_F(ShardedCheckTest, SummarizeShardRangeSplitsExactly) {
  const std::vector<PairwiseShardSummary::Spec> specs = PlanSpecs(path_, constraints_);
  ASSERT_EQ(specs.size(), 5u);
  for (size_t shard_rows : {1, 7, 64, 1300}) {
    csv::ShardReaderOptions options;
    options.shard_rows = shard_rows;
    csv::ShardReader reader = csv::ShardReader::Open(path_, options).value();
    const ShardSource source = SourceOf(path_, reader, options);
    const csv::ShardIndex& index = reader.index();
    const uint64_t num_shards = (1300 + shard_rows - 1) / shard_rows;
    ASSERT_EQ(index.num_shards(), num_shards);
    Result<ShardRangeSummary> whole =
        SummarizeShardRange(source, specs, index.Range(0, num_shards));
    ASSERT_TRUE(whole.ok()) << whole.status().ToString();
    EXPECT_EQ(whole->rows, uint64_t{1300});
    // k = 0 and k = num_shards make one side an empty range, which must
    // summarise to nothing.
    for (uint64_t k : {uint64_t{0}, uint64_t{1}, num_shards / 2, num_shards - 1, num_shards}) {
      std::string label = "shard_rows=" + std::to_string(shard_rows) + " k=" + std::to_string(k);
      // The tail is read first: neither range needs the other's bytes.
      Result<ShardRangeSummary> tail = SummarizeShardRange(source, specs, index.Range(k, num_shards));
      ASSERT_TRUE(tail.ok()) << label << ": " << tail.status().ToString();
      Result<ShardRangeSummary> head = SummarizeShardRange(source, specs, index.Range(0, k));
      ASSERT_TRUE(head.ok()) << label << ": " << head.status().ToString();
      EXPECT_EQ(head->rows, std::min<uint64_t>(k * shard_rows, 1300)) << label;
      EXPECT_EQ(head->rows + tail->rows, uint64_t{1300}) << label;
      for (size_t c = 0; c < specs.size(); ++c) {
        std::string part = label + " component=" + std::to_string(c);
        PairwiseShardSummary joined = head->summaries[c];
        joined.Merge(tail->summaries[c]);
        ExpectSameSnapshot(whole->summaries[c].ToSnapshot(), joined.ToSnapshot(), part);
      }
    }
  }
}

TEST_F(ShardedCheckTest, SummaryFoldEqualsTheLeftFoldAtAnyTaskCount) {
  const std::vector<PairwiseShardSummary::Spec> specs = PlanSpecs(path_, constraints_);
  csv::ShardReaderOptions options;
  options.shard_rows = 64;
  csv::ShardReader reader = csv::ShardReader::Open(path_, options).value();
  const ShardSource source = SourceOf(path_, reader, options);
  const uint64_t num_shards = reader.index().num_shards();
  ASSERT_GE(num_shards, uint64_t{17});
  for (uint64_t tasks = 1; tasks <= 17; ++tasks) {
    std::vector<ShardRangeSummary> parts;
    for (uint64_t t = 0; t < tasks; ++t) {
      Result<ShardRangeSummary> part = SummarizeShardRange(
          source, specs,
          reader.index().Range(t * num_shards / tasks, (t + 1) * num_shards / tasks));
      ASSERT_TRUE(part.ok()) << part.status().ToString();
      parts.push_back(std::move(*part));
    }
    for (size_t c = 0; c < specs.size(); ++c) {
      std::string label = "tasks=" + std::to_string(tasks) + " component=" + std::to_string(c);
      PairwiseShardSummary left = parts[0].summaries[c];
      SummaryFold fold;
      fold.Add(parts[0].summaries[c]);
      for (uint64_t t = 1; t < tasks; ++t) {
        left.Merge(parts[t].summaries[c]);
        fold.Add(parts[t].summaries[c]);
      }
      std::optional<PairwiseShardSummary> folded = std::move(fold).Take();
      ASSERT_TRUE(folded.has_value()) << label;
      ExpectSameSnapshot(left.ToSnapshot(), folded->ToSnapshot(), label);
    }
  }
  EXPECT_FALSE(SummaryFold().Take().has_value());
}

TEST_F(ShardedCheckTest, LastRangeCatchesAnAppend) {
  const std::vector<PairwiseShardSummary::Spec> specs = PlanSpecs(path_, constraints_);
  csv::ShardReaderOptions options;
  options.shard_rows = 64;
  options.buffer_bytes = 1024;
  csv::ShardReader reader = csv::ShardReader::Open(path_, options).value();
  const ShardSource source = SourceOf(path_, reader, options);
  const uint64_t num_shards = reader.index().num_shards();
  {
    std::ofstream out(path_, std::ios::app);
    out << "golf,red,1600,5000\n";
  }
  // A range that stops before the end never sees the appended row...
  Result<ShardRangeSummary> head = SummarizeShardRange(source, specs, reader.index().Range(0, 10));
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(head->rows, uint64_t{640});
  // ...and the last range must meet end of file where the first pass did.
  Result<ShardRangeSummary> rest =
      SummarizeShardRange(source, specs, reader.index().Range(10, num_shards));
  ASSERT_FALSE(rest.ok());
  EXPECT_EQ(rest.status().code(), StatusCode::kDataLoss) << rest.status().ToString();
}

// ---------------------------------------------------------------------------
// Permutation-fallback coverage: a sparse high-cardinality table on which
// every component takes the Monte-Carlo G fallback, so the sharded second
// pass, the pooled fallbacks in FinishShardedCheck and the coordinator's
// finish are all compared against the in-memory CheckAll.
// ---------------------------------------------------------------------------

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectSameTest(const TestResult& want, const TestResult& got, const std::string& label) {
  EXPECT_EQ(want.method, got.method) << label;
  EXPECT_EQ(Bits(want.statistic), Bits(got.statistic)) << label;
  EXPECT_EQ(Bits(want.p_value), Bits(got.p_value)) << label;
  EXPECT_EQ(Bits(want.dof), Bits(got.dof)) << label;
  EXPECT_EQ(want.n, got.n) << label;
  EXPECT_EQ(Bits(want.effect), Bits(got.effect)) << label;
  EXPECT_EQ(want.used_exact, got.used_exact) << label;
  EXPECT_EQ(want.strata_used, got.strata_used) << label;
  EXPECT_EQ(want.strata_skipped, got.strata_skipped) << label;
  EXPECT_EQ(want.approximation_suspect, got.approximation_suspect) << label;
  EXPECT_EQ(Bits(want.min_expected), Bits(got.min_expected)) << label;
}

void ExpectSameReports(const std::vector<ViolationReport>& want,
                       const std::vector<ViolationReport>& got, const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    std::string sc_label = label + " sc=" + std::to_string(i);
    EXPECT_EQ(want[i].violated, got[i].violated) << sc_label;
    EXPECT_EQ(Bits(want[i].p_value), Bits(got[i].p_value)) << sc_label;
    EXPECT_EQ(Bits(want[i].alpha), Bits(got[i].alpha)) << sc_label;
    ExpectSameTest(want[i].test, got[i].test, sc_label);
    ASSERT_EQ(want[i].components.size(), got[i].components.size()) << sc_label;
    for (size_t c = 0; c < want[i].components.size(); ++c) {
      std::string part_label = sc_label + " component=" + std::to_string(c);
      EXPECT_EQ(want[i].components[c].component.ToString(),
                got[i].components[c].component.ToString())
          << part_label;
      ExpectSameTest(want[i].components[c].test, got[i].components[c].test, part_label);
    }
  }
}

class ShardedFallbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/sharded_fallback_test.csv";
    HospOptions options;
    options.rows = 1500;
    options.num_zips = 150;
    options.error_rate = 0.25;
    Table hosp = GenerateHospData(options).value().table;
    // Two extra columns drawn independently of everything, over ~200
    // labels each: sparse enough for the fallback, with no dependence for
    // it to find.
    Rng rng(314);
    std::ofstream out(path_);
    ASSERT_TRUE(out.good());
    out << "Zip,City,State,A,B\n";
    for (size_t row = 0; row < hosp.NumRows(); ++row) {
      out << hosp.column(0).CategoryAt(row) << ',' << hosp.column(1).CategoryAt(row) << ','
          << hosp.column(2).CategoryAt(row) << ",a" << rng.UniformInt(0, 199) << ",b"
          << rng.UniformInt(0, 199) << '\n';
    }
    out.close();
    constraints_.push_back({ParseConstraint("Zip !_||_ City, State").value(), 0.05});
    constraints_.push_back({ParseConstraint("Zip !_||_ City").value(), 0.05});
    constraints_.push_back({ParseConstraint("A _||_ B").value(), 0.05});

    Result<Table> table = csv::ReadFile(path_);
    ASSERT_TRUE(table.ok()) << table.status().message();
    Result<Scoded::BatchCheckResult> in_memory =
        Scoded(std::move(table).value()).CheckAll(constraints_);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().message();
    expected_ = std::move(in_memory).value();
  }

  void TearDown() override {
    parallel::SetThreads(0);
    std::remove(path_.c_str());
  }

  std::string path_;
  std::vector<ApproximateSc> constraints_;
  Scoded::BatchCheckResult expected_;
};

TEST_F(ShardedFallbackTest, FixtureTakesTheFallbackEverywhere) {
  ASSERT_EQ(expected_.reports.size(), 3u);
  // The two-Y DSC decomposes into two stratified components in one plan.
  const ViolationReport& fd = expected_.reports[0];
  ASSERT_EQ(fd.components.size(), 2u);
  for (const ComponentResult& part : fd.components) {
    EXPECT_FALSE(part.component.z.empty()) << part.component.ToString();
    EXPECT_TRUE(part.test.used_exact) << part.component.ToString();
  }
  EXPECT_TRUE(expected_.reports[1].test.used_exact);
  // The independent pair's fallback p-value sits above the 1/201 floor,
  // so every permutation decision behind it is compared too.
  const TestResult& isc = expected_.reports[2].test;
  EXPECT_TRUE(isc.used_exact);
  EXPECT_GT(isc.p_value, 1.0 / 201.0);
}

TEST_F(ShardedFallbackTest, ShardedMatchesInMemory) {
  for (int threads : {1, 4}) {
    for (size_t shard_rows : {7, 64, 1000}) {
      ShardedCheckOptions options;
      options.reader.shard_rows = shard_rows;
      parallel::SetThreads(threads);
      Result<ShardedCheckResult> result = ShardedCheckAll(path_, constraints_, options);
      ASSERT_TRUE(result.ok()) << result.status().message();
      std::string label =
          "threads=" + std::to_string(threads) + " shard_rows=" + std::to_string(shard_rows);
      EXPECT_EQ(result->violations, expected_.violations) << label;
      ExpectSameReports(expected_.reports, result->reports, label);
    }
  }
}

TEST_F(ShardedFallbackTest, DistributedMatchesInMemory) {
  for (int workers : {1, 2, 4}) {
    dist::InProcessSubstrate substrate;
    dist::DistributedCheckOptions options;
    options.base.reader.shard_rows = 64;
    options.workers = workers;
    Result<ShardedCheckResult> result =
        dist::DistributedCheckAll(path_, constraints_, substrate, options);
    ASSERT_TRUE(result.ok()) << result.status().message();
    std::string label = "workers=" + std::to_string(workers);
    EXPECT_EQ(result->violations, expected_.violations) << label;
    ExpectSameReports(expected_.reports, result->reports, label);
  }
}

}  // namespace
}  // namespace scoded
