#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "constraints/sc.h"
#include "datasets/boston.h"
#include "datasets/hosp.h"

namespace scoded::e2e {

namespace {

size_t Scaled(size_t value, double scale, size_t floor) {
  return std::max(floor, static_cast<size_t>(std::llround(static_cast<double>(value) * scale)));
}

// gate_tall: a tall export of low-cardinality categoricals and two small
// integer columns. Region ⊥ Channel and Tier ⊥ Product | Region hold by
// construction; Product depends on Region; Band follows Qty (so the τ ISC
// is violated); Channel and Tier are independent (so the DSC is violated).
Result<Table> GenerateGateTall(size_t rows, uint64_t seed) {
  static const char* const kRegions[] = {"north", "south", "east",   "west",
                                         "centre", "coast", "alpine", "island"};
  static const char* const kChannels[] = {"web", "store", "phone", "partner", "kiosk"};
  static const char* const kProducts[] = {"P0", "P1", "P2", "P3", "P4",  "P5",
                                          "P6", "P7", "P8", "P9", "P10", "P11"};
  static const char* const kTiers[] = {"gold", "silver", "bronze"};
  Rng rng(seed);
  std::vector<std::string> region(rows);
  std::vector<std::string> channel(rows);
  std::vector<std::string> product(rows);
  std::vector<std::string> tier(rows);
  std::vector<double> qty(rows);
  std::vector<double> band(rows);
  for (size_t i = 0; i < rows; ++i) {
    int64_t r = rng.UniformInt(0, 7);
    int64_t p = rng.Bernoulli(0.3) ? (r + rng.UniformInt(0, 3)) % 12 : rng.UniformInt(0, 11);
    int64_t q = rng.UniformInt(1, 20);
    region[i] = kRegions[r];
    channel[i] = kChannels[rng.UniformInt(0, 4)];
    product[i] = kProducts[p];
    tier[i] = kTiers[rng.UniformInt(0, 2)];
    qty[i] = static_cast<double>(q);
    band[i] = static_cast<double>(std::clamp<int64_t>(q / 2 + rng.UniformInt(-1, 1), 0, 9));
  }
  TableBuilder builder;
  builder.AddCategorical("Region", region);
  builder.AddCategorical("Channel", channel);
  builder.AddCategorical("Product", product);
  builder.AddCategorical("Tier", tier);
  builder.AddNumeric("Qty", std::move(qty));
  builder.AddNumeric("Band", std::move(band));
  return std::move(builder).Build();
}

}  // namespace

Result<WorkloadSpec> GetWorkload(const std::string& name, double scale) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "gate_tall") {
    spec.rows = Scaled(150000, scale, 2000);
    spec.batch = {{"Region _||_ Channel", 0.01},
                  {"Product !_||_ Region", 0.05},
                  {"Tier _||_ Product | Region", 0.01},
                  {"Qty _||_ Band", 0.05},
                  {"Channel !_||_ Tier", 0.05}};
    spec.shard_rows = 32768;
    spec.drill_k = {"Channel !_||_ Tier", 0.05, Scaled(500, scale, 10), 0};
    spec.drill_kc = {"Region _||_ Channel", 0.01, Scaled(200, scale, 10),
                     Scaled(20000, scale, 200)};
    spec.stream = {{{"Region _||_ Channel", 0.01},
                    {"Tier _||_ Product | Region", 0.01},
                    {"Channel !_||_ Tier", 0.05}},
                   0,
                   8192,
                   Scaled(12, scale, 2),
                   0};
    spec.serve = {2048, Scaled(12, scale, 2), 2};
    spec.tau_x = "Qty";
    spec.tau_y = "Band";
  } else if (name == "tau_numeric") {
    spec.rows = Scaled(25000, scale, 1000);
    spec.batch = {{"N !_||_ D", 0.05},
                  {"R _||_ B", 0.05},
                  {"TX !_||_ B | C", 0.05},
                  {"N _||_ B | TX", 0.05}};
    spec.shard_rows = 8192;
    spec.drill_k = {"N !_||_ D", 0.05, Scaled(200, scale, 10), 0};
    spec.drill_kc = {"R _||_ B", 0.05, Scaled(100, scale, 10), Scaled(4000, scale, 200)};
    spec.stream = {{{"N !_||_ D", 0.05}, {"R _||_ B", 0.05}},
                   0,
                   1024,
                   Scaled(48, scale, 2),
                   8};
    spec.serve = {512, Scaled(16, scale, 2), 2};
    spec.tau_x = "N";
    spec.tau_y = "D";
  } else if (name == "fd_highcard") {
    spec.rows = Scaled(4000, scale, 600);
    spec.batch = {{"Zip !_||_ City", 0.05}, {"Zip !_||_ State", 0.05}, {"City !_||_ State", 0.05}};
    spec.shard_rows = 1024;
    spec.drill_k = {"Zip !_||_ City", 0.05, Scaled(1000, scale, 10), 0};
    spec.drill_kc = {"Zip !_||_ City", 0.05, Scaled(300, scale, 10), 0};
    spec.stream = {{{"Zip !_||_ City", 0.05}, {"Zip !_||_ State", 0.05}, {"City !_||_ State", 0.05}},
                   2000,
                   256,
                   Scaled(64, scale, 4),
                   1};
    spec.serve = {32, Scaled(64, scale, 4), 1};
  } else {
    return InvalidArgumentError("unknown workload '" + name +
                                "' (expected gate_tall, tau_numeric or fd_highcard)");
  }
  return spec;
}

Result<Table> GenerateTable(const WorkloadSpec& spec, uint64_t seed) {
  if (spec.name == "gate_tall") {
    return GenerateGateTall(spec.rows, seed);
  }
  if (spec.name == "tau_numeric") {
    BostonOptions options;
    options.rows = spec.rows;
    options.seed = seed;
    return GenerateBostonData(options);
  }
  HospOptions options;
  options.rows = spec.rows;
  options.num_zips = 400;
  options.error_rate = 0.25;
  options.seed = seed;
  SCODED_ASSIGN_OR_RETURN(HospData data, GenerateHospData(options));
  return std::move(data.table);
}

Result<std::vector<ApproximateSc>> ParseBatch(
    const std::vector<std::pair<std::string, double>>& constraints) {
  std::vector<ApproximateSc> out;
  for (const auto& [text, alpha] : constraints) {
    SCODED_ASSIGN_OR_RETURN(StatisticalConstraint sc, ParseConstraint(text));
    out.push_back(ApproximateSc{std::move(sc), alpha});
  }
  return out;
}

}  // namespace scoded::e2e
