// Streaming SC enforcement (the paper's Sec. 1 deployment scenario and
// Sec. 8 "incremental on-line versions of SCODED"): new training data
// arrives in yearly batches; an ScMonitor maintains the dependence SC
// Wind ⊥̸ Weather incrementally and raises an alarm in the years whose
// measurements were mean-imputed.
//
// Build & run:  ./build/examples/streaming_monitor

#include <cstdio>
#include <vector>

#include "core/sc_monitor.h"
#include "datasets/nebraska.h"

int main() {
  using namespace scoded;

  NebraskaData data = GenerateNebraskaData().value();
  const Column& year_col = data.table.ColumnByName("Year");

  // The monitor enforces the SC the accepted model relies on; each year's
  // data is validated as its own stream before being accepted.
  ApproximateSc asc{ParseConstraint("Wind !_||_ Weather").value(), 0.3};

  TableBuilder proto_builder;
  proto_builder.AddNumeric("Wind", {});
  proto_builder.AddCategorical("Weather", {});
  Table prototype = std::move(proto_builder).Build().value();

  std::printf("streaming yearly batches through ScMonitor (alarm when p > %.1f):\n\n", asc.alpha);
  std::printf("%-6s %-10s %-10s %s\n", "year", "records", "p-value", "verdict");
  int alarms = 0;
  for (int year = 1970; year <= 1999; ++year) {
    // ScMonitor is categorical-or-numeric pairwise; Wind is numeric and
    // Weather categorical, so stream the pair through a numeric monitor
    // with Weather encoded ordinally? No — use a fresh monitor per year on
    // the categorical side by bucketing Wind into integer levels, the
    // standard gauge discretisation for wind reports.
    TableBuilder proto2;
    proto2.AddCategorical("WindLevel", {});
    proto2.AddCategorical("Weather", {});
    Table proto = std::move(proto2).Build().value();
    ApproximateSc level_sc{ParseConstraint("WindLevel !_||_ Weather").value(), asc.alpha};
    ScMonitor monitor = ScMonitor::Create(proto, level_sc).value();
    for (size_t i = 0; i < data.table.NumRows(); ++i) {
      if (year_col.NumericAt(i) != static_cast<double>(year)) {
        continue;
      }
      double wind = data.table.ColumnByName("Wind").NumericAt(i);
      int level = static_cast<int>(wind / 2.0);  // 2 m/s gauge buckets
      Status s = monitor.AppendCategorical(std::string("L").append(std::to_string(level)),
                                           data.table.ColumnByName("Weather").CategoryAt(i));
      if (!s.ok()) {
        std::fprintf(stderr, "append failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    bool alarm = monitor.Violated();
    alarms += alarm ? 1 : 0;
    std::printf("%-6d %-10zu %-10.3f %s\n", year, monitor.NumRecords(),
                monitor.CurrentPValue(), alarm ? "ALARM — reject batch" : "accept");
  }
  std::printf("\n%d alarms (expected: the mean-imputed years 1978 and 1989)\n", alarms);
  return 0;
}
