// Distributed sharded-check bench — per-worker peak memory and scale-out
// overhead of dist::DistributedCheckAll against the single-process
// ShardedCheckAll it must reproduce bit for bit.
//
// Claims under test: (1) with a fixed shard size, the *per-worker* peak
// RSS stays near-flat as the CSV grows 16x — each fork/exec child holds
// only its buffer + one shard + compact summaries, never the file; (2)
// the coordinator's dispatch/fold machinery costs bounded overhead over
// the single-process sharded run on one machine (the fleet shares one
// disk and one CPU here, so this measures coordination tax, not speedup);
// (3) reports are identical to the single-process run at every size and
// worker count. The committed baseline JSON feeds the benchdiff gate.
//
// Workers are real fork/exec children of the scoded CLI (SCODED_CLI_BIN),
// so each per-worker peak is a genuinely separate address space measured
// from its /proc/<pid>/status just before the fleet is dismissed.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/sharded_check.h"
#include "core/violation.h"
#include "distributed/coordinator.h"
#include "distributed/substrate.h"

#ifndef SCODED_CLI_BIN
#error "bench_distributed_check needs SCODED_CLI_BIN (the worker program)"
#endif

namespace {

using namespace scoded;

double Ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// Reads one "Vm...: <kB> kB" line from /proc/<pid>/status. Returns -1 when
// unavailable, in which case the memory section is skipped.
double StatusMb(int64_t pid, const char* key) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, std::strlen(key), key) == 0) {
      return std::strtod(line.c_str() + std::strlen(key), nullptr) / 1024.0;
    }
  }
  return -1.0;
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

// One formatted line per constraint; used to assert distributed == single.
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

// Fork/exec substrate that samples each worker's peak RSS after every
// response — while the child is demonstrably alive (a zombie's
// /proc/<pid>/status has no memory fields, so sampling at teardown is too
// late). Teardown is single-threaded, after the dispatch pumps join, so
// collecting the per-channel maxima there needs no locking.
class MeasuringSubstrate : public dist::Substrate {
 public:
  class Channel : public dist::WorkerChannel {
   public:
    Channel(std::unique_ptr<dist::WorkerChannel> inner, std::vector<double>* peaks)
        : inner_(std::move(inner)), peaks_(peaks) {}
    ~Channel() override {
      if (peak_ >= 0.0) {
        peaks_->push_back(peak_);
      }
    }
    Status Send(std::string_view payload) override { return inner_->Send(payload); }
    Result<std::string> Receive(int deadline_millis) override {
      Result<std::string> payload = inner_->Receive(deadline_millis);
      if (payload.ok() && inner_->pid() > 0) {
        peak_ = std::max(peak_, StatusMb(inner_->pid(), "VmHWM:"));
      }
      return payload;
    }
    void Kill() override { inner_->Kill(); }
    int64_t pid() const override { return inner_->pid(); }

   private:
    std::unique_ptr<dist::WorkerChannel> inner_;
    std::vector<double>* peaks_;
    double peak_ = -1.0;
  };

  MeasuringSubstrate() : inner_(SCODED_CLI_BIN, {"worker"}) {}

  Result<std::unique_ptr<dist::WorkerChannel>> Spawn(size_t worker_index) override {
    SCODED_ASSIGN_OR_RETURN(std::unique_ptr<dist::WorkerChannel> channel,
                            inner_.Spawn(worker_index));
    return std::unique_ptr<dist::WorkerChannel>(new Channel(std::move(channel), &peaks));
  }

  std::vector<double> peaks;

 private:
  dist::ForkExecSubstrate inner_;
};

struct RunStats {
  double ms = 0.0;
  double max_worker_peak_mb = -1.0;
  std::vector<std::string> lines;
};

RunStats RunDistributed(const std::string& path, int workers) {
  MeasuringSubstrate substrate;
  dist::DistributedCheckOptions options;
  options.base.reader.shard_rows = 4096;
  options.workers = workers;
  auto start = std::chrono::steady_clock::now();
  ShardedCheckResult result =
      dist::DistributedCheckAll(path, Constraints(), substrate, options).value();
  RunStats stats;
  stats.ms = Ms(start);
  for (double peak : substrate.peaks) {
    stats.max_worker_peak_mb = std::max(stats.max_worker_peak_mb, peak);
  }
  stats.lines = Render(result.reports);
  return stats;
}

RunStats RunSingle(const std::string& path) {
  ShardedCheckOptions options;
  options.reader.shard_rows = 4096;
  auto start = std::chrono::steady_clock::now();
  ShardedCheckResult result = ShardedCheckAll(path, Constraints(), options).value();
  RunStats stats;
  stats.ms = Ms(start);
  stats.lines = Render(result.reports);
  return stats;
}

}  // namespace

int main() {
  bench::Init("distributed_check");
  const std::vector<size_t> kSizes = {20000, 80000, 320000};
  const size_t kLargest = kSizes.back();

  std::vector<std::string> paths;
  for (size_t rows : kSizes) {
    paths.push_back("distributed_bench_" + std::to_string(rows) + ".csv");
    GenerateCsv(paths.back(), rows, 1234 + rows);
  }

  bool identical = true;

  // Per-worker peak RSS as the file grows 16x, 2 workers. Each worker's
  // peak comes from its own /proc/<pid>/status, so coordinator allocations
  // cannot pollute it.
  bench::PrintTitle("per-worker peak RSS (2 fork workers, shard_rows = 4096)");
  std::vector<RunStats> grows;
  for (size_t i = 0; i < kSizes.size(); ++i) {
    RunStats single = RunSingle(paths[i]);
    grows.push_back(RunDistributed(paths[i], 2));
    identical = identical && grows[i].lines == single.lines;
    std::printf("rows=%-7zu ms=%-9.1f worker_peak_mb=%.2f\n", kSizes[i], grows[i].ms,
                grows[i].max_worker_peak_mb);
    bench::RecordValue("dist_ms_" + std::to_string(kSizes[i]), grows[i].ms);
    if (grows[i].max_worker_peak_mb >= 0.0) {
      bench::RecordValue("worker_peak_mb_" + std::to_string(kSizes[i]),
                         grows[i].max_worker_peak_mb);
    }
  }
  if (grows.front().max_worker_peak_mb > 0.0 && grows.back().max_worker_peak_mb >= 0.0) {
    double growth = grows.back().max_worker_peak_mb / grows.front().max_worker_peak_mb;
    std::printf("per-worker peak growth over 16x rows: %.2fx\n", growth);
    bench::RecordValue("worker_peak_growth_16x_rows", growth);
  }

  // Scale-out overhead at the largest size: the coordination tax of the
  // wire round trips and fold vs the same work in one process.
  bench::PrintTitle("scale-out overhead vs single process (320k rows)");
  RunStats single = RunSingle(paths.back());
  std::printf("workers=0 ms=%-9.1f (single process)\n", single.ms);
  bench::RecordValue("single_ms_" + std::to_string(kLargest), single.ms);
  for (int workers : {1, 2, 4}) {
    RunStats dist = RunDistributed(paths.back(), workers);
    identical = identical && dist.lines == single.lines;
    double overhead = single.ms > 0.0 ? dist.ms / single.ms : -1.0;
    std::printf("workers=%d ms=%-9.1f overhead=%.2fx\n", workers, dist.ms, overhead);
    bench::RecordValue("dist_ms_" + std::to_string(kLargest) + "_w" + std::to_string(workers),
                       dist.ms);
    if (overhead >= 0.0) {
      bench::RecordValue("overhead_w" + std::to_string(workers), overhead);
    }
  }

  bench::PrintTitle("distributed vs single-process result identity");
  std::printf("reports identical at every size and worker count: %s\n", identical ? "yes" : "NO");
  bench::RecordValue("reports_identical", identical ? 1.0 : 0.0);
  bench::EndSection();

  for (const std::string& path : paths) {
    std::remove(path.c_str());
  }
  return identical ? 0 : 1;
}
