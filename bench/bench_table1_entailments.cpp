// Table 1 — Entailments between SCs and ICs, verified empirically.
//
// For each relationship in Table 1 we generate random relations and check
// the entailment direction (and, where the paper proves strictness, that
// the converse fails on a concrete counter-example):
//   FD X->Y      =>  MVD X->>Y  <=>  saturated ISC Y ⊥ (X∪Y)^c | X
//   ISC Y ⊥ Z|X  =>  EMVD X->>Y|Z          (Prop. 1; converse fails)
//   FD X->Y      =>  MI-maximal DSC X ⊥̸ Y  (Prop. 2)

#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "constraints/ic.h"
#include "table/table.h"

namespace {

using namespace scoded;

// Random 4-column categorical relation; `force_fd` rewrites Y := f(X).
Table RandomRelation(Rng& rng, bool force_fd) {
  size_t n = 40;
  std::vector<std::string> x(n);
  std::vector<std::string> y(n);
  std::vector<std::string> z(n);
  std::vector<std::string> w(n);
  for (size_t i = 0; i < n; ++i) {
    int xv = static_cast<int>(rng.UniformInt(0, 3));
    x[i] = std::string("x").append(std::to_string(xv));
    y[i] = std::string("y").append(
        std::to_string(force_fd ? xv % 3 : rng.UniformInt(0, 2)));
    z[i] = std::string("z").append(std::to_string(rng.UniformInt(0, 2)));
    w[i] = std::string("w").append(std::to_string(rng.UniformInt(0, 1)));
  }
  TableBuilder builder;
  builder.AddCategorical("X", x);
  builder.AddCategorical("Y", y);
  builder.AddCategorical("Z", z);
  builder.AddCategorical("W", w);
  return std::move(builder).Build().value();
}

// Table of the paper's Table 2: satisfies Z->>X|Y but not X ⊥ Y | Z.
Table PaperTable2() {
  TableBuilder builder;
  builder.AddCategorical("Z", {"z1", "z1", "z1", "z1", "z1", "z1"});
  builder.AddCategorical("X", {"x1", "x2", "x1", "x1", "x1", "x2"});
  builder.AddCategorical("Y", {"y1", "y2", "y2", "y2", "y2", "y1"});
  builder.AddCategorical("M", {"m1", "m1", "m1", "m2", "m3", "m1"});
  return std::move(builder).Build().value();
}

void Report(const char* name, int holds, int applicable) {
  std::printf("  %-46s %d/%d relations\n", name, holds, applicable);
}

}  // namespace

int main() {
  scoded::bench::Init("table1_entailments");
  using namespace scoded;
  std::printf("=== Table 1: entailments between SCs and ICs ===\n");
  Rng rng(7);
  const int kTrials = 200;

  int fd_cases = 0;
  int fd_implies_mvd = 0;
  int fd_implies_dsc_maximal = 0;
  int mvd_iff_saturated_isc = 0;
  int mvd_cases = 0;
  int isc_cases = 0;
  int isc_implies_emvd = 0;

  for (int t = 0; t < kTrials; ++t) {
    // FD row: force X -> Y and check the downstream entailments.
    Table fd_table = RandomRelation(rng, /*force_fd=*/true);
    if (SatisfiesFd(fd_table, {{"X"}, {"Y"}}).value()) {
      ++fd_cases;
      fd_implies_mvd += SatisfiesMvd(fd_table, {"X"}, {"Y"}).value() ? 1 : 0;
      fd_implies_dsc_maximal +=
          IsMiMaximalDependence(fd_table, {"X"}, {"Y"}).value() ? 1 : 0;
    }
    // MVD <=> saturated ISC on arbitrary relations.
    Table any_table = RandomRelation(rng, /*force_fd=*/false);
    bool mvd = SatisfiesMvd(any_table, {"X"}, {"Y"}).value();
    bool saturated_isc =
        SatisfiesScExactly(any_table, Independence({"Y"}, {"Z", "W"}, {"X"})).value();
    ++mvd_cases;
    mvd_iff_saturated_isc += (mvd == saturated_isc) ? 1 : 0;
    // Prop. 1: ISC => EMVD whenever the ISC happens to hold.
    StatisticalConstraint isc = Independence({"Y"}, {"Z"}, {"X"});
    if (SatisfiesScExactly(any_table, isc).value()) {
      ++isc_cases;
      isc_implies_emvd += SatisfiesEmvd(any_table, IscToEmvd(isc)).value() ? 1 : 0;
    }
  }

  Report("FD X->Y  =>  MVD X->>Y", fd_implies_mvd, fd_cases);
  Report("FD X->Y  =>  MI-maximal DSC X !_||_ Y (Prop. 2)", fd_implies_dsc_maximal, fd_cases);
  Report("MVD X->>Y  <=>  saturated ISC Y _||_ ZW | X", mvd_iff_saturated_isc, mvd_cases);
  Report("ISC Y _||_ Z | X  =>  EMVD X->>Y|Z (Prop. 1)", isc_implies_emvd,
         isc_cases > 0 ? isc_cases : 0);
  if (isc_cases == 0) {
    std::printf("  (no random relation satisfied the exact ISC; see the designed check below)\n");
    // Designed conditionally-independent relation.
    TableBuilder builder;
    builder.AddCategorical("X", {"a", "a", "a", "a", "b", "b", "b", "b"});
    builder.AddCategorical("Y", {"y1", "y1", "y2", "y2", "y1", "y1", "y2", "y2"});
    builder.AddCategorical("Z", {"z1", "z2", "z1", "z2", "z1", "z2", "z1", "z2"});
    Table designed = std::move(builder).Build().value();
    StatisticalConstraint isc = Independence({"Y"}, {"Z"}, {"X"});
    bool isc_holds = SatisfiesScExactly(designed, isc).value();
    bool emvd_holds = SatisfiesEmvd(designed, IscToEmvd(isc)).value();
    std::printf("  designed relation: ISC holds=%d => EMVD holds=%d\n", isc_holds, emvd_holds);
  }

  // Strictness of Prop. 1: the paper's Table 2 counter-example.
  Table t2 = PaperTable2();
  bool emvd = SatisfiesEmvd(t2, {{"Z"}, {"X"}, {"Y"}}).value();
  bool isc = SatisfiesScExactly(t2, Independence({"X"}, {"Y"}, {"Z"})).value();
  std::printf("  converse of Prop. 1 fails on Table 2: EMVD=%s, ISC=%s (expected yes/no)\n",
              emvd ? "yes" : "no", isc ? "yes" : "no");
  return 0;
}
