// Figure 14 — scalability of SCODED's drill-down (K strategy on the
// dependence SC N ⊥̸ D, Boston replicated to size), matching the paper's
// two sweeps:
//   (a) runtime vs number of records n at fixed k,
//   (b) runtime vs k at fixed n.
// Expected shape: near-linear in k and O(n log n)-ish in n (the segment-
// tree initialisation dominates; each of the k steps is linear in n).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "core/drilldown.h"
#include "core/scoded.h"
#include "datasets/boston.h"
#include "datasets/hosp.h"
#include "table/table.h"

namespace {

using namespace scoded;

Table ReplicateRows(const Table& base, size_t target_rows) {
  std::vector<size_t> rows;
  rows.reserve(target_rows);
  for (size_t i = 0; i < target_rows; ++i) {
    rows.push_back(i % base.NumRows());
  }
  return base.Gather(rows);
}

double TimeDrillDownMs(const Table& table, size_t k) {
  ApproximateSc asc{ParseConstraint("N !_||_ D").value(), 0.05};
  DrillDownOptions options;
  options.strategy = Strategy::kDirect;
  auto start = std::chrono::steady_clock::now();
  DrillDownResult result = DrillDown(table, asc, k, options).value();
  auto end = std::chrono::steady_clock::now();
  (void)result;
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

int main() {
  scoded::bench::Init("fig14_scalability");
  using namespace scoded;
  std::printf("=== Figure 14: scalability (K strategy, N !_||_ D) ===\n");
  BostonOptions options;
  options.rows = 506;
  Table base = GenerateBostonData(options).value();

  bench::PrintTitle("(a) runtime vs n (k = 50)");
  std::printf("%-12s %-12s\n", "#records", "time(ms)");
  for (size_t n : {10000, 50000, 100000, 250000, 500000, 1000000}) {
    Table big = ReplicateRows(base, n);
    double ms = TimeDrillDownMs(big, 50);
    bench::RecordValue("n=" + std::to_string(n), ms);
    std::printf("%-12zu %-12.1f\n", n, ms);
  }

  bench::PrintTitle("(b) runtime vs k (n = 100000)");
  std::printf("%-12s %-12s\n", "k", "time(ms)");
  Table fixed = ReplicateRows(base, 100000);
  for (size_t k : {10, 25, 50, 100, 200, 400}) {
    double ms = TimeDrillDownMs(fixed, k);
    bench::RecordValue("k=" + std::to_string(k), ms);
    std::printf("%-12zu %-12.1f\n", k, ms);
  }
  // (c) Extension panel: the categorical (G) engine scales in the number
  // of live contingency cells per step, not records.
  bench::PrintTitle("(c) categorical engine, runtime vs n (k = 50, Zip !_||_ City)");
  std::printf("%-12s %-12s\n", "#records", "time(ms)");
  for (size_t n : {20000, 50000, 100000, 200000}) {
    HospOptions options;
    options.rows = n;
    HospData data = GenerateHospData(options).value();
    ApproximateSc asc{ParseConstraint("Zip !_||_ City").value(), 0.05};
    DrillDownOptions drill;
    drill.strategy = Strategy::kDirect;
    auto start = std::chrono::steady_clock::now();
    (void)DrillDown(data.table, asc, 50, drill).value();
    auto end = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(end - start).count();
    bench::RecordValue("n=" + std::to_string(n), ms);
    std::printf("%-12zu %-12.1f\n", n, ms);
  }
  // (d) Extension panel: thread scaling of the parallel execution layer on
  // a composite workload (a four-constraint CheckAll batch plus one K-
  // strategy drill-down, n = 100000). Speedups are relative to threads=1
  // (the fully serial path) and only materialise on multi-core hardware;
  // on a single core the sweep doubles as an overhead regression check —
  // all entries should be within noise of each other.
  bench::PrintTitle("(d) thread scaling (CheckAll + drill-down, n = 100000)");
  std::printf("%-12s %-12s %-12s %-12s\n", "threads", "best(ms)", "max(ms)", "speedup");
  {
    Table big = ReplicateRows(base, 100000);
    std::vector<ApproximateSc> batch = {
        {ParseConstraint("N !_||_ D").value(), 0.05},
        {ParseConstraint("R _||_ B").value(), 0.05},
        {ParseConstraint("TX !_||_ B | C").value(), 0.05},
        {ParseConstraint("N _||_ B | TX").value(), 0.05},
    };
    ApproximateSc drill_target{ParseConstraint("N !_||_ D").value(), 0.05};
    DrillDownOptions drill;
    drill.strategy = Strategy::kDirect;
    std::vector<int> sweep = {1, 2, 4};
    if (parallel::HardwareThreads() > 4) {
      sweep.push_back(parallel::HardwareThreads());
    }
    double serial_ms = 0.0;
    for (int threads : sweep) {
      parallel::SetThreads(threads);
      // Best (min) of five after a discarded warm-up, with the slowest of
      // the five beside it.
      std::vector<double> runs;
      double ms = bench::BestOf(5, [&] {
        auto start = std::chrono::steady_clock::now();
        Scoded system(big);
        (void)system.CheckAll(batch).value();
        (void)DrillDown(big, drill_target, 50, drill).value();
        auto end = std::chrono::steady_clock::now();
        runs.push_back(std::chrono::duration<double, std::milli>(end - start).count());
        return runs.back();
      });
      double max_ms = *std::max_element(runs.begin() + 1, runs.end());
      if (threads == 1) {
        serial_ms = ms;
      }
      double speedup = serial_ms > 0.0 ? serial_ms / ms : 1.0;
      std::string label = "threads=" + std::to_string(threads);
      bench::RecordValue(label + "_ms", ms);
      bench::RecordValue(label + "_max_ms", max_ms);
      bench::RecordValue(label + "_speedup_vs_1", speedup);
      std::printf("%-12d %-12.1f %-12.1f %-12.2f\n", threads, ms, max_ms, speedup);
    }
    parallel::SetThreads(0);
  }

  std::printf("\nexpected shape: ~O(n log n) growth in (a); ~linear growth in (b)\n"
              "after the fixed O(n log n) initialisation cost; near-linear in (c)\n"
              "(per-step cost depends on live cells, not records); in (d),\n"
              "speedup tracks the core count (flat on a single-core host).\n");
  return 0;
}
