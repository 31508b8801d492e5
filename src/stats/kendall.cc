#include "stats/kendall.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/math.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/ranks.h"
#include "stats/segment_tree.h"
#include "stats/simd.h"

namespace scoded {

namespace {

// Collects run lengths of equal values (for the tie-corrected variance).
std::vector<int64_t> TieGroupSizes(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  std::vector<int64_t> sizes;
  size_t i = 0;
  while (i < values.size()) {
    size_t j = i;
    while (j + 1 < values.size() && values[j + 1] == values[i]) {
      ++j;
    }
    int64_t t = static_cast<int64_t>(j - i + 1);
    if (t > 1) {
      sizes.push_back(t);
    }
    i = j + 1;
  }
  return sizes;
}

// NaN guard shared by every τ entry point: raw `<` is not a strict weak
// ordering once NaN appears (every comparison is false), so sorting on it
// is undefined behaviour and pair counts become arbitrary. When any
// coordinate is NaN, both vectors are replaced by their dense ranks, whose
// NanAwareLess order puts all NaNs in one tie group after every number —
// the same convention KendallTauFromCounts applies. Ranks preserve the
// ordering and tie structure the pair counts depend on, and every
// downstream float is a function of those counts alone, so NaN-free
// inputs are untouched bit for bit.
bool AnyNan(const std::vector<double>& values) {
  for (double v : values) {
    if (std::isnan(v)) {
      return true;
    }
  }
  return false;
}

std::vector<double> RanksAsDoubles(const std::vector<double>& values) {
  std::vector<size_t> ranks = DenseRanks(values);
  std::vector<double> out(ranks.size());
  for (size_t i = 0; i < ranks.size(); ++i) {
    out[i] = static_cast<double>(ranks[i]);
  }
  return out;
}

}  // namespace

void CompleteKendallResult(KendallResult& result, const std::vector<int64_t>& x_ties,
                           const std::vector<int64_t>& y_ties) {
  int64_t n = result.n;
  if (n < 2) {
    result.p_two_sided = 1.0;
    return;
  }
  double n0 = static_cast<double>(n) * (static_cast<double>(n) - 1.0) / 2.0;
  double n1 = 0.0;
  double n2 = 0.0;
  for (int64_t t : x_ties) {
    n1 += static_cast<double>(t) * (static_cast<double>(t) - 1.0) / 2.0;
  }
  for (int64_t u : y_ties) {
    n2 += static_cast<double>(u) * (static_cast<double>(u) - 1.0) / 2.0;
  }
  result.tau_a = static_cast<double>(result.s) / n0;
  double denom = std::sqrt((n0 - n1) * (n0 - n2));
  result.tau_b = denom > 0.0 ? static_cast<double>(result.s) / denom : 0.0;

  // Tie-corrected null variance of S (Kendall 1970, as in scipy.stats).
  double dn = static_cast<double>(n);
  double v0 = dn * (dn - 1.0) * (2.0 * dn + 5.0);
  double vt = 0.0;
  double vu = 0.0;
  double t1 = 0.0;
  double t2 = 0.0;
  double u1 = 0.0;
  double u2 = 0.0;
  for (int64_t ti : x_ties) {
    double t = static_cast<double>(ti);
    vt += t * (t - 1.0) * (2.0 * t + 5.0);
    t1 += t * (t - 1.0);
    t2 += t * (t - 1.0) * (t - 2.0);
  }
  for (int64_t ui : y_ties) {
    double u = static_cast<double>(ui);
    vu += u * (u - 1.0) * (2.0 * u + 5.0);
    u1 += u * (u - 1.0);
    u2 += u * (u - 1.0) * (u - 2.0);
  }
  double var = (v0 - vt - vu) / 18.0;
  var += t1 * u1 / (2.0 * dn * (dn - 1.0));
  if (n > 2) {
    var += t2 * u2 / (9.0 * dn * (dn - 1.0) * (dn - 2.0));
  }
  result.var_s = std::max(0.0, var);
  if (result.var_s > 0.0) {
    result.z = static_cast<double>(result.s) / std::sqrt(result.var_s);
    result.p_two_sided = NormalTwoSidedP(result.z);
  } else {
    result.z = 0.0;
    result.p_two_sided = 1.0;
  }
}

int PairWeight(double xi, double yi, double xj, double yj) {
  if ((xi > xj && yi > yj) || (xi < xj && yi < yj)) {
    return 1;
  }
  if ((xi > xj && yi < yj) || (xi < xj && yi > yj)) {
    return -1;
  }
  return 0;
}

KendallResult KendallTauNaive(const std::vector<double>& x, const std::vector<double>& y) {
  SCODED_CHECK(x.size() == y.size());
  if (AnyNan(x) || AnyNan(y)) {
    return KendallTauNaive(RanksAsDoubles(x), RanksAsDoubles(y));
  }
  KendallResult result;
  result.n = static_cast<int64_t>(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    for (size_t j = i + 1; j < x.size(); ++j) {
      bool tx = x[i] == x[j];
      bool ty = y[i] == y[j];
      if (tx && ty) {
        ++result.ties_xy;
      } else if (tx) {
        ++result.ties_x;
      } else if (ty) {
        ++result.ties_y;
      } else if (PairWeight(x[i], y[i], x[j], y[j]) > 0) {
        ++result.concordant;
      } else {
        ++result.discordant;
      }
    }
  }
  result.s = result.concordant - result.discordant;
  CompleteKendallResult(result, TieGroupSizes(x), TieGroupSizes(y));
  return result;
}

KendallResult KendallTau(const std::vector<double>& x, const std::vector<double>& y) {
  SCODED_CHECK(x.size() == y.size());
  if (AnyNan(x) || AnyNan(y)) {
    return KendallTau(RanksAsDoubles(x), RanksAsDoubles(y));
  }
  // KendallTau sits inside the permutation loops, so keep instrumentation to
  // one relaxed counter add — no span, no histogram.
  static obs::Counter* const tau_calls =
      obs::Metrics::Global().FindOrCreateCounter("stats.kendall_tau_calls");
  tau_calls->Add();
  size_t n = x.size();
  KendallResult result;
  result.n = static_cast<int64_t>(n);
  if (n < 2) {
    result.p_two_sided = 1.0;
    return result;
  }

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (x[a] != x[b]) {
      return x[a] < x[b];
    }
    return y[a] < y[b];
  });

  // Pairs tied on x and on (x, y) jointly, plus the x tie-group sizes for
  // the variance correction. The runs of the (x, y) sort visit equal x
  // values in ascending-x order — the same order a sort of x alone would —
  // so the collected group sizes match the historical TieGroupSizes(x)
  // element for element (CompleteKendallResult folds them in order).
  int64_t n1 = 0;
  int64_t n3 = 0;
  std::vector<int64_t> x_ties;
  {
    size_t i = 0;
    while (i < n) {
      size_t j = i;
      while (j + 1 < n && x[order[j + 1]] == x[order[i]]) {
        ++j;
      }
      int64_t t = static_cast<int64_t>(j - i + 1);
      n1 += t * (t - 1) / 2;
      if (t > 1) {
        x_ties.push_back(t);
      }
      // joint ties within this x-run
      size_t a = i;
      while (a <= j) {
        size_t b = a;
        while (b + 1 <= j && y[order[b + 1]] == y[order[a]]) {
          ++b;
        }
        int64_t u = static_cast<int64_t>(b - a + 1);
        n3 += u * (u - 1) / 2;
        a = b + 1;
      }
      i = j + 1;
    }
  }

  // Y marginal via the dense-rank kernel: dense ranks index the y tie
  // counts in ascending-y order (again matching TieGroupSizes(y)).
  std::vector<size_t> y_rank(n);
  size_t y_distinct = simd::DenseRanks(y.data(), n, y_rank.data());
  std::vector<int64_t> y_counts(y_distinct, 0);
  for (size_t i = 0; i < n; ++i) {
    y_counts[y_rank[i]] += 1;
  }
  int64_t n2 = 0;
  std::vector<int64_t> y_ties;
  for (int64_t count : y_counts) {
    n2 += count * (count - 1) / 2;
    if (count > 1) {
      y_ties.push_back(count);
    }
  }

  // Inversions of y in (x, y)-sorted order = discordant pairs: within an
  // x-run y ascends (no inversions); across runs equal y values do not
  // invert; everything counted has distinct x and strictly decreasing y.
  // Ranks replace the raw doubles (order-isomorphic, so the inversion
  // count is unchanged) to feed the u32 merge kernel.
  std::vector<uint32_t> y_seq(n);
  for (size_t i = 0; i < n; ++i) {
    y_seq[i] = static_cast<uint32_t>(y_rank[order[i]]);
  }
  std::vector<uint32_t> scratch(n);
  int64_t discordant = simd::CountInversions(y_seq.data(), scratch.data(), n);

  int64_t n0 = static_cast<int64_t>(n) * (static_cast<int64_t>(n) - 1) / 2;
  result.discordant = discordant;
  result.concordant = n0 - n1 - n2 + n3 - discordant;
  result.ties_xy = n3;
  result.ties_x = n1 - n3;
  result.ties_y = n2 - n3;
  result.s = result.concordant - result.discordant;
  CompleteKendallResult(result, x_ties, y_ties);
  return result;
}

KendallResult KendallTauFromCounts(std::vector<WeightedPoint> points) {
  // Canonical point order: (x, y) lexicographic with NaN after every
  // number, then duplicates merged in place so multiplicities are additive.
  NanAwareLess less;
  auto point_less = [&](const WeightedPoint& a, const WeightedPoint& b) {
    if (!NanAwareEqual(a.x, b.x)) {
      return less(a.x, b.x);
    }
    return less(a.y, b.y);
  };
  std::sort(points.begin(), points.end(), point_less);
  size_t m = 0;
  int64_t n = 0;
  for (const WeightedPoint& p : points) {
    SCODED_CHECK(p.count >= 0);
    if (p.count == 0) {
      continue;
    }
    n += p.count;
    if (m > 0 && NanAwareEqual(points[m - 1].x, p.x) && NanAwareEqual(points[m - 1].y, p.y)) {
      points[m - 1].count += p.count;
    } else {
      points[m++] = p;
    }
  }
  points.resize(m);
  KendallResult result;
  result.n = n;
  if (n < 2) {
    result.p_two_sided = 1.0;
    return result;
  }

  // Y marginal in ascending order from one sort of the points by y: dense
  // ranks, tie-pair count n2, and the tie-group sizes for the variance
  // correction.
  SCODED_CHECK(m < UINT32_MAX);
  std::vector<uint32_t> by_y(m);
  std::iota(by_y.begin(), by_y.end(), uint32_t{0});
  std::sort(by_y.begin(), by_y.end(),
            [&](uint32_t a, uint32_t b) { return less(points[a].y, points[b].y); });
  std::vector<uint32_t> y_rank(m);
  std::vector<int64_t> y_ties;
  int64_t n2 = 0;
  uint32_t num_ranks = 0;
  for (size_t i = 0; i < m;) {
    size_t j = i;
    int64_t count = 0;
    while (j < m && NanAwareEqual(points[by_y[j]].y, points[by_y[i]].y)) {
      y_rank[by_y[j]] = num_ranks;
      count += points[by_y[j]].count;
      ++j;
    }
    n2 += count * (count - 1) / 2;
    if (count > 1) {
      y_ties.push_back(count);
    }
    ++num_ranks;
    i = j;
  }

  // One ascending-x sweep: within an x-run query the tree first (points
  // already inserted all have strictly smaller x), then insert the whole
  // run — pairs between them have distinct x, and a discordant pair is one
  // where the earlier (smaller-x) point has the larger y.
  SegmentTree tree(num_ranks);
  std::vector<int64_t> x_ties;
  int64_t n1 = 0;
  int64_t n3 = 0;
  int64_t discordant = 0;
  size_t i = 0;
  while (i < m) {
    size_t j = i;
    int64_t run_total = 0;
    while (j < m && NanAwareEqual(points[j].x, points[i].x)) {
      run_total += points[j].count;
      n3 += points[j].count * (points[j].count - 1) / 2;
      ++j;
    }
    n1 += run_total * (run_total - 1) / 2;
    if (run_total > 1) {
      x_ties.push_back(run_total);
    }
    for (size_t k = i; k < j; ++k) {
      discordant += points[k].count * tree.SuffixSum(y_rank[k] + 1);
    }
    for (size_t k = i; k < j; ++k) {
      tree.Add(y_rank[k], points[k].count);
    }
    i = j;
  }

  int64_t n0 = n * (n - 1) / 2;
  result.discordant = discordant;
  result.concordant = n0 - n1 - n2 + n3 - discordant;
  result.ties_xy = n3;
  result.ties_x = n1 - n3;
  result.ties_y = n2 - n3;
  result.s = result.concordant - result.discordant;
  CompleteKendallResult(result, x_ties, y_ties);
  return result;
}

double KendallExactPValue(int64_t s, int64_t n) {
  SCODED_CHECK(n >= 0);
  if (n < 2) {
    return 1.0;
  }
  int64_t n0 = n * (n - 1) / 2;
  int64_t abs_s = std::llabs(s);
  if (abs_s > n0) {
    abs_s = n0;
  }
  // Null distribution of the inversion count D: P(D = d) via the Mahonian
  // recurrence, normalised at every stage to stay in [0, 1].
  std::vector<double> prob(static_cast<size_t>(n0) + 1, 0.0);
  prob[0] = 1.0;
  int64_t max_d = 0;
  for (int64_t i = 2; i <= n; ++i) {
    int64_t new_max = max_d + (i - 1);
    std::vector<double> next(static_cast<size_t>(new_max) + 1, 0.0);
    // next[d] = (1/i) * Σ_{j=0..i-1} prob[d-j]; use a sliding window.
    double window = 0.0;
    for (int64_t d = 0; d <= new_max; ++d) {
      if (d <= max_d) {
        window += prob[static_cast<size_t>(d)];
      }
      int64_t out = d - i;
      if (out >= 0 && out <= max_d) {
        window -= prob[static_cast<size_t>(out)];
      }
      next[static_cast<size_t>(d)] = window / static_cast<double>(i);
    }
    prob.swap(next);
    max_d = new_max;
  }
  // |S| >= |s|  <=>  D <= (n0 - |s|)/2  or  D >= (n0 + |s|)/2.
  // S = n0 - 2D and S has the same parity as n0.
  double p = 0.0;
  for (int64_t d = 0; d <= n0; ++d) {
    int64_t s_d = n0 - 2 * d;
    if (std::llabs(s_d) >= abs_s) {
      p += prob[static_cast<size_t>(d)];
    }
  }
  return std::min(1.0, p);
}

namespace {

// Inputs below this size run both benefit passes inline: a pool fork
// would cost more than the pass it saves.
constexpr size_t kParallelBenefitRows = 4096;

// One segment-tree pass of Algorithm 2 over the records in x order
// [first, last): each record is scored against the records of strictly
// earlier x-tie runs, and a run is inserted only after the whole run is
// queried (the tie-correct refinement of Algorithm 2). `sign` is +1 when
// the earlier records have smaller x (a smaller y is then concordant) and
// −1 when they have larger x.
template <typename It>
void BenefitPass(const std::vector<double>& x, const std::vector<size_t>& y_rank,
                 size_t num_ranks, It first, It last, int64_t sign,
                 std::vector<int64_t>& benefits) {
  SegmentTree tree(num_ranks);
  It i = first;
  while (i != last) {
    It j = i;
    while (j != last && x[*j] == x[*i]) {
      size_t rank = y_rank[*j];
      int64_t below = rank > 0 ? tree.Sum(0, rank - 1) : 0;
      int64_t above = tree.SuffixSum(rank + 1);
      benefits[*j] += sign * (below - above);
      ++j;
    }
    for (; i != j; ++i) {
      tree.Add(y_rank[*i], 1);
    }
  }
}

}  // namespace

std::vector<int64_t> ComputeTauBenefits(const std::vector<double>& x,
                                        const std::vector<double>& y) {
  SCODED_CHECK(x.size() == y.size());
  if (AnyNan(x) || AnyNan(y)) {
    return ComputeTauBenefits(RanksAsDoubles(x), RanksAsDoubles(y));
  }
  static obs::Counter* const benefit_calls =
      obs::Metrics::Global().FindOrCreateCounter("stats.tau_benefit_calls");
  benefit_calls->Add();
  obs::ScopedSpan span("stats/tau_benefits");
  if (span.active()) {
    span.Arg("n", static_cast<int64_t>(x.size()));
  }
  size_t n = x.size();
  std::vector<int64_t> benefits(n, 0);
  if (n < 2) {
    return benefits;
  }
  size_t num_ranks = 0;
  std::vector<size_t> y_rank = DenseRanks(y, &num_ranks);

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) { return x[a] < x[b]; });

  // Ascending x (tree T1): record i meets the records with strictly
  // smaller x, concordant when their y is smaller. Descending x (tree T2):
  // it meets those with strictly larger x, concordant when their y is
  // larger. The passes share only read-only inputs and each fills its own
  // array, so they run as two pool tasks; the integer sum is exact.
  std::vector<int64_t> descending(n, 0);
  auto pass = [&](size_t which) {
    if (which == 0) {
      BenefitPass(x, y_rank, num_ranks, order.begin(), order.end(), 1, benefits);
    } else {
      BenefitPass(x, y_rank, num_ranks, order.rbegin(), order.rend(), -1, descending);
    }
  };
  if (n >= kParallelBenefitRows) {
    parallel::ParallelFor(0, 2, 1, pass);
  } else {
    pass(0);
    pass(1);
  }
  for (size_t i = 0; i < n; ++i) {
    benefits[i] += descending[i];
  }
  return benefits;
}

std::vector<int64_t> ComputeTauBenefitsNaive(const std::vector<double>& x,
                                             const std::vector<double>& y) {
  SCODED_CHECK(x.size() == y.size());
  if (AnyNan(x) || AnyNan(y)) {
    return ComputeTauBenefitsNaive(RanksAsDoubles(x), RanksAsDoubles(y));
  }
  size_t n = x.size();
  std::vector<int64_t> benefits(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      int w = PairWeight(x[i], y[i], x[j], y[j]);
      benefits[i] += w;
      benefits[j] += w;
    }
  }
  return benefits;
}

}  // namespace scoded
