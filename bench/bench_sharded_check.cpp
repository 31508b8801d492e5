// Out-of-core sharded checking bench — peak memory and runtime of
// core::ShardedCheckAll vs the in-memory read-then-check path.
//
// The claim under test: with a fixed shard size, peak RSS of the sharded
// path stays near-flat as the CSV grows 16x (ratio <= 2x, dominated by
// the O(shard_rows + distinct cells) working set), where the in-memory
// path's peak grows with the file because it materialises every row. The
// reports must stay identical to the in-memory ones at every size. The
// committed baseline JSON feeds the benchdiff regression gate.
//
// The constraints cover the compact-summary regime the sharded path is
// built for: categorical pairs and bounded-cardinality numerics, whose
// joint-cell count saturates. A τ test over two continuous columns keeps
// one cell per distinct (x, y) pair and so degrades to O(rows) memory —
// that documented limitation (docs/performance.md) is out of scope here.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#if defined(__GLIBC__) || defined(__linux__)
#include <malloc.h>
#endif

#include "bench_util.h"
#include "common/rng.h"
#include "core/scoded.h"
#include "core/sharded_check.h"
#include "core/violation.h"
#include "table/csv.h"
#include "table/table.h"

namespace {

using namespace scoded;

double Ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// Reads one "Vm...: <kB> kB" line from /proc/self/status. Returns -1 when
// unavailable (non-Linux), in which case the memory section is skipped.
double StatusMb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, std::strlen(key), key) == 0) {
      return std::strtod(line.c_str() + std::strlen(key), nullptr) / 1024.0;
    }
  }
  return -1.0;
}

// Resets the peak-RSS high-water mark to the current RSS (Linux >= 4.0),
// so VmHWM after a run measures that run alone. Returns false when the
// kernel interface is unavailable.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear.good()) {
    return false;
  }
  clear << "5";
  clear.close();
  return clear.good();
}

// Returns memory that free() retained to the OS between measurements, so
// an earlier large run does not pre-pay a later one's page faults.
void TrimHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

void GenerateCsv(const std::string& path, size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::ofstream out(path);
  out << "Model,Color,Price,Mileage\n";
  const char* models[] = {"civic", "corolla", "focus", "golf", "a4", "i3"};
  const char* colors[] = {"red", "blue", "white", "black"};
  for (size_t i = 0; i < rows; ++i) {
    int64_t m = rng.UniformInt(0, 5);
    int64_t c = rng.UniformInt(0, 9) < 4 ? m % 4 : rng.UniformInt(0, 3);
    out << models[m] << ',' << colors[c] << ',' << (1000 + m * 250 + rng.UniformInt(0, 400))
        << ',' << rng.UniformInt(0, 120000) << '\n';
  }
}

std::vector<ApproximateSc> Constraints() {
  return {
      {ParseConstraint("Model _||_ Color").value(), 0.05},
      {ParseConstraint("Model !_||_ Price").value(), 0.3},
      {ParseConstraint("Color _||_ Price | Model").value(), 0.05},
  };
}

// One formatted line per constraint; used to assert sharded == in-memory.
std::vector<std::string> Render(const std::vector<ViolationReport>& reports) {
  std::vector<std::string> lines;
  for (const ViolationReport& report : reports) {
    char line[128];
    std::snprintf(line, sizeof(line), "%d p=%.17g stat=%.17g n=%lld", report.violated ? 1 : 0,
                  report.p_value, report.test.statistic, static_cast<long long>(report.test.n));
    lines.push_back(line);
  }
  return lines;
}

struct RunStats {
  double ms = 0.0;
  double peak_mb = -1.0;
  std::vector<std::string> lines;
};

RunStats RunSharded(const std::string& path) {
  TrimHeap();
  bool have_peak = ResetPeakRss();
  double base_mb = StatusMb("VmHWM:");
  auto start = std::chrono::steady_clock::now();
  ShardedCheckOptions options;
  options.reader.shard_rows = 4096;
  ShardedCheckResult result = ShardedCheckAll(path, Constraints(), options).value();
  RunStats stats;
  stats.ms = Ms(start);
  stats.peak_mb = have_peak && base_mb >= 0.0 ? StatusMb("VmHWM:") - base_mb : -1.0;
  stats.lines = Render(result.reports);
  return stats;
}

RunStats RunInMemory(const std::string& path) {
  TrimHeap();
  bool have_peak = ResetPeakRss();
  double base_mb = StatusMb("VmHWM:");
  auto start = std::chrono::steady_clock::now();
  Scoded scoded(csv::ReadFile(path).value());
  std::vector<ViolationReport> reports;
  for (const ApproximateSc& asc : Constraints()) {
    reports.push_back(scoded.CheckViolation(asc).value());
  }
  RunStats stats;
  stats.ms = Ms(start);
  stats.peak_mb = have_peak && base_mb >= 0.0 ? StatusMb("VmHWM:") - base_mb : -1.0;
  stats.lines = Render(reports);
  return stats;
}

}  // namespace

int main() {
  bench::Init("sharded_check");
  const std::vector<size_t> kSizes = {20000, 80000, 320000};

  std::vector<std::string> paths;
  for (size_t rows : kSizes) {
    paths.push_back("sharded_bench_" + std::to_string(rows) + ".csv");
    GenerateCsv(paths.back(), rows, 1234 + rows);
  }

  // Sharded runs first, smallest to largest, so no earlier whole-file
  // materialisation can pre-fault pages that flatten its peak curve.
  bench::PrintTitle("sharded check peak RSS (shard_rows = 4096)");
  std::vector<RunStats> sharded;
  for (size_t i = 0; i < kSizes.size(); ++i) {
    sharded.push_back(RunSharded(paths[i]));
    std::printf("rows=%-7zu ms=%-9.1f peak_mb=%.2f\n", kSizes[i], sharded[i].ms,
                sharded[i].peak_mb);
    bench::RecordValue("sharded_ms_" + std::to_string(kSizes[i]), sharded[i].ms);
    if (sharded[i].peak_mb >= 0.0) {
      bench::RecordValue("sharded_peak_mb_" + std::to_string(kSizes[i]), sharded[i].peak_mb);
    }
  }
  if (sharded.front().peak_mb > 0.0 && sharded.back().peak_mb >= 0.0) {
    double growth = sharded.back().peak_mb / sharded.front().peak_mb;
    std::printf("sharded peak growth over 16x rows: %.2fx\n", growth);
    bench::RecordValue("sharded_peak_growth_16x_rows", growth);
  }

  bench::PrintTitle("in-memory check peak RSS (read whole file)");
  std::vector<RunStats> inmem;
  for (size_t i = 0; i < kSizes.size(); ++i) {
    inmem.push_back(RunInMemory(paths[i]));
    std::printf("rows=%-7zu ms=%-9.1f peak_mb=%.2f\n", kSizes[i], inmem[i].ms, inmem[i].peak_mb);
    bench::RecordValue("inmemory_ms_" + std::to_string(kSizes[i]), inmem[i].ms);
    if (inmem[i].peak_mb >= 0.0) {
      bench::RecordValue("inmemory_peak_mb_" + std::to_string(kSizes[i]), inmem[i].peak_mb);
    }
  }
  if (inmem.front().peak_mb > 0.0 && inmem.back().peak_mb >= 0.0) {
    double growth = inmem.back().peak_mb / inmem.front().peak_mb;
    std::printf("in-memory peak growth over 16x rows: %.2fx\n", growth);
    bench::RecordValue("inmemory_peak_growth_16x_rows", growth);
  }

  bench::PrintTitle("sharded vs in-memory result identity");
  bool identical = true;
  for (size_t i = 0; i < kSizes.size(); ++i) {
    identical = identical && sharded[i].lines == inmem[i].lines;
  }
  std::printf("reports identical at every size: %s\n", identical ? "yes" : "NO");
  bench::RecordValue("reports_identical", identical ? 1.0 : 0.0);
  bench::EndSection();

  for (const std::string& path : paths) {
    std::remove(path.c_str());
  }
  return identical ? 0 : 1;
}
