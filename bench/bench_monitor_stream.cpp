// Streaming-monitor scaling bench — per-append cost of the numeric (tau)
// monitor path.
//
// The claim under test: the logarithmic-block concordance index makes
// appends amortised O(log^2 n), so per-append cost is near-flat from 10k
// to 100k rows (ratio <= 2x), where the seed's pair-scan append grows
// linearly (~10x from 5k to 50k). The committed baseline JSON feeds the
// benchdiff regression gate; the scaling ratios are recorded as values.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/sc_monitor.h"
#include "core/stream_monitor.h"
#include "core/violation.h"
#include "stats/segment_tree.h"
#include "table/table.h"

namespace {

using namespace scoded;

double Ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

Table NumericPrototype() {
  TableBuilder builder;
  builder.AddNumeric("x", {});
  builder.AddNumeric("y", {});
  return std::move(builder).Build().value();
}

// One-shot timings at these stream lengths are dominated by scheduler and
// cache noise; each measurement runs through bench::BestOf — one discarded
// cold-cache warm-up, then kReps timed repeats keeping the minimum, the
// standard estimator for the true (noise-free) cost.
constexpr int kReps = 3;

// Appends `total` correlated rows one by one and returns ns per append.
double IndexedAppendNs(size_t total) {
  return bench::BestOf(kReps, [total] {
    Rng rng(7);
    ApproximateSc asc{ParseConstraint("x !_||_ y").value(), 0.3};
    ScMonitor monitor = ScMonitor::Create(NumericPrototype(), asc).value();
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < total; ++i) {
      double v = rng.Normal();
      (void)monitor.AppendNumeric(v, v + rng.Normal(0.0, 0.5));
    }
    return Ms(start) * 1e6 / static_cast<double>(total);
  });
}

// The seed's append: scan every previous point for its pair weight.
double NaiveAppendNs(size_t total) {
  int64_t s = 0;
  double best = bench::BestOf(kReps, [total, &s] {
    Rng rng(7);
    std::vector<double> xs;
    std::vector<double> ys;
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < total; ++i) {
      double v = rng.Normal();
      double x = v;
      double y = v + rng.Normal(0.0, 0.5);
      for (size_t j = 0; j < xs.size(); ++j) {
        double dx = (x > xs[j]) - (x < xs[j]);
        double dy = (y > ys[j]) - (y < ys[j]);
        s += static_cast<int64_t>(dx * dy);
      }
      xs.push_back(x);
      ys.push_back(y);
    }
    return Ms(start) * 1e6 / static_cast<double>(total);
  });
  if (s == 0x7fffffff) {
    std::printf("impossible\n");  // keep `s` observable
  }
  return best;
}

}  // namespace

int main() {
  scoded::bench::Init("monitor_stream");

  bench::PrintTitle("tau appends via concordance index (10k vs 100k)");
  {
    double ns_10k = IndexedAppendNs(10000);
    double ns_100k = IndexedAppendNs(100000);
    double ratio = ns_100k / ns_10k;
    std::printf("%-12s %-16s\n", "rows", "append(ns)");
    std::printf("%-12d %-16.0f\n", 10000, ns_10k);
    std::printf("%-12d %-16.0f\n", 100000, ns_100k);
    std::printf("per-append growth 10k -> 100k: %.2fx (flat target: <= 2x)\n", ratio);
    bench::RecordValue("index_append_ns_10k", ns_10k);
    bench::RecordValue("index_append_ns_100k", ns_100k);
    bench::RecordValue("index_append_ratio_10x_rows", ratio);
  }

  bench::PrintTitle("tau appends via pair scan, the seed behaviour (5k vs 50k)");
  {
    double ns_5k = NaiveAppendNs(5000);
    double ns_50k = NaiveAppendNs(50000);
    double ratio = ns_50k / ns_5k;
    std::printf("%-12s %-16s\n", "rows", "append(ns)");
    std::printf("%-12d %-16.0f\n", 5000, ns_5k);
    std::printf("%-12d %-16.0f\n", 50000, ns_50k);
    std::printf("per-append growth 5k -> 50k: %.2fx (linear appends grow ~10x)\n", ratio);
    bench::RecordValue("naive_append_ns_5k", ns_5k);
    bench::RecordValue("naive_append_ns_50k", ns_50k);
    bench::RecordValue("naive_append_ratio_10x_rows", ratio);
  }

  bench::PrintTitle("sliding window (W = 1024) at 100k rows");
  {
    Rng rng(9);
    ApproximateSc asc{ParseConstraint("x !_||_ y").value(), 0.3};
    MonitorOptions mopts;
    mopts.window = 1024;
    ScMonitor monitor = ScMonitor::Create(NumericPrototype(), asc, {}, mopts).value();
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < 100000; ++i) {
      double v = rng.Normal();
      (void)monitor.AppendNumeric(v, v + rng.Normal(0.0, 0.5));
    }
    double ns = Ms(start) * 1e6 / 100000.0;
    std::printf("append(ns) with bounded O(W) state: %.0f (occupancy %zu)\n", ns,
                monitor.WindowOccupancy());
    bench::RecordValue("window_append_ns_100k", ns);
  }

  bench::PrintTitle("memory: wavelet-level bytes per indexed point at 100k");
  {
    Rng rng(11);
    ConcordanceIndex index;
    for (size_t i = 0; i < 100000; ++i) {
      index.Insert(rng.Normal(), rng.Normal());
    }
    double bytes_per_point =
        static_cast<double>(index.IndexBytes()) / static_cast<double>(index.size());
    std::printf("wavelet bytes per point: %.1f, compactions: %lld\n", bytes_per_point,
                static_cast<long long>(index.compactions()));
    bench::RecordValue("index_bytes_per_point_100k", bytes_per_point);
    bench::RecordValue("compactions_100k", static_cast<double>(index.compactions()));
  }

  bench::PrintTitle("block query structure: wavelet matrix (64k)");
  {
    // The prefix-count workload a block answers: random (prefix, value)
    // probes against a 64k-element sequence, with the levels bit-packed
    // (~L2-resident).
    const size_t m = 65536;
    Rng rng(17);
    std::vector<uint32_t> codes(m);
    for (uint32_t& c : codes) {
      c = static_cast<uint32_t>(rng.UniformInt(0, static_cast<int64_t>(m) - 1));
    }
    WaveletMatrix wm(codes, m);
    const size_t probes = 200000;
    std::vector<std::pair<size_t, uint32_t>> queries(probes);
    for (auto& qp : queries) {
      qp.first = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(m)));
      qp.second = static_cast<uint32_t>(rng.UniformInt(0, static_cast<int64_t>(m) - 1));
    }
    int64_t sink = 0;
    auto start = std::chrono::steady_clock::now();
    for (const auto& qp : queries) {
      int64_t lt;
      int64_t eq;
      wm.PrefixCounts(qp.first, qp.second, &lt, &eq);
      sink += lt + eq;
    }
    double wm_ns = Ms(start) * 1e6 / static_cast<double>(probes);
    if (sink == 0x7fffffff) {
      std::printf("impossible\n");  // keep `sink` observable
    }
    std::printf("%-28s %-12s %-14s\n", "structure", "query(ns)", "memory(KB)");
    std::printf("%-28s %-12.0f %-14.0f\n", "wavelet matrix", wm_ns,
                static_cast<double>(wm.MemoryBytes()) / 1024.0);
    bench::RecordValue("wavelet_query_ns_64k", wm_ns);
  }

  bench::PrintTitle("stream fan-out: 4 constraints x 20 batches of 500 rows");
  {
    Rng rng(13);
    TableBuilder proto;
    proto.AddNumeric("a", {});
    proto.AddNumeric("b", {});
    proto.AddNumeric("c", {});
    Table prototype = std::move(proto).Build().value();
    std::vector<ApproximateSc> constraints = {
        {ParseConstraint("a !_||_ b").value(), 0.3},
        {ParseConstraint("a _||_ c").value(), 0.01},
        {ParseConstraint("b _||_ c").value(), 0.01},
        {ParseConstraint("a !_||_ b").value(), 0.1},
    };
    StreamMonitor stream = StreamMonitor::Create(prototype, constraints).value();
    auto start = std::chrono::steady_clock::now();
    for (int batch = 0; batch < 20; ++batch) {
      std::vector<double> a;
      std::vector<double> b;
      std::vector<double> c;
      for (int i = 0; i < 500; ++i) {
        double v = rng.Normal();
        a.push_back(v);
        b.push_back(v + rng.Normal(0.0, 0.5));
        c.push_back(rng.Normal());
      }
      TableBuilder builder;
      builder.AddNumeric("a", a);
      builder.AddNumeric("b", b);
      builder.AddNumeric("c", c);
      (void)stream.Append(std::move(builder).Build().value());
    }
    double ms = Ms(start);
    std::printf("%zu rows x %zu monitors in %.1f ms; any violated: %s\n", stream.NumRecords(),
                stream.NumMonitors(), ms, stream.AnyViolated() ? "yes" : "no");
    bench::RecordValue("stream_fanout_ms", ms);
  }

  return 0;
}
