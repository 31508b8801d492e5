#include "core/drilldown.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/partition.h"
#include "core/scoded.h"
#include "core/violation.h"
#include "datasets/boston.h"
#include "datasets/hosp.h"
#include "stats/kendall.h"
#include "table/table.h"

namespace scoded {
namespace {

// Figure 2's updated car table (16 records); the paper's drill-down returns
// five mutually correlated records (r8, r13-r16: all Toyota Prius, Black).
Table UpdatedCarTable() {
  TableBuilder builder;
  builder.AddCategorical(
      "Model", {"BMW X1", "BMW X1", "BMW X1", "BMW X1", "Toyota Prius", "Toyota Prius",
                "Toyota Prius", "Toyota Prius", "BMW X1", "BMW X1", "BMW X1", "BMW X1",
                "Toyota Prius", "Toyota Prius", "Toyota Prius", "Toyota Prius"});
  builder.AddCategorical("Color",
                         {"White", "Black", "White", "Black", "White", "White", "White", "Black",
                          "White", "White", "White", "Black", "Black", "Black", "Black", "Black"});
  return std::move(builder).Build().value();
}

// n_clean independent numeric records plus n_dirty strongly correlated
// ones; returns the table and the dirty row ids.
std::pair<Table, std::set<size_t>> PlantedCorrelationTable(size_t n_clean, size_t n_dirty,
                                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x;
  std::vector<double> y;
  std::set<size_t> dirty;
  for (size_t i = 0; i < n_clean; ++i) {
    x.push_back(rng.Normal(0.0, 1.0));
    y.push_back(rng.Normal(0.0, 1.0));
  }
  for (size_t i = 0; i < n_dirty; ++i) {
    // A tight monotone cluster far in the tail: unmistakably dependent.
    double v = 5.0 + 0.1 * static_cast<double>(i);
    dirty.insert(x.size());
    x.push_back(v);
    y.push_back(v * 2.0);
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  return {std::move(builder).Build().value(), dirty};
}

TEST(DrillDownTest, CarExampleReturnsMutuallyCorrelatedRecords) {
  ApproximateSc asc{ParseConstraint("Model _||_ Color").value(), 0.4};
  DrillDownResult result = DrillDown(UpdatedCarTable(), asc, 5).value();
  ASSERT_EQ(result.rows.size(), 5u);
  EXPECT_EQ(result.strategy_used, Strategy::kComplement);
  // All five returned records must come from the over-represented diagonal
  // cells (Model, Color) ∈ {(BMW, White), (Prius, Black)} — the pattern the
  // paper's analyst discovers.
  const Table t = UpdatedCarTable();
  for (size_t row : result.rows) {
    const std::string& model = t.ColumnByName("Model").CategoryAt(row);
    const std::string& color = t.ColumnByName("Color").CategoryAt(row);
    bool diagonal = (model == "BMW X1" && color == "White") ||
                    (model == "Toyota Prius" && color == "Black");
    EXPECT_TRUE(diagonal) << "row " << row << " = " << model << "/" << color;
  }
}

TEST(DrillDownTest, TauComplementRecoversPlantedCluster) {
  auto [table, dirty] = PlantedCorrelationTable(200, 30, 1);
  ApproximateSc asc{ParseConstraint("x _||_ y").value(), 0.05};
  ASSERT_TRUE(DetectViolation(table, asc).value().violated);
  DrillDownResult result = DrillDown(table, asc, 30).value();
  ASSERT_EQ(result.rows.size(), 30u);
  size_t hits = 0;
  for (size_t row : result.rows) {
    hits += dirty.count(row);
  }
  EXPECT_GE(hits, 24u);  // >= 80% precision on an easy planted cluster
}

TEST(DrillDownTest, TauDirectStrategyReducesStatistic) {
  auto [table, dirty] = PlantedCorrelationTable(200, 30, 2);
  ApproximateSc asc{ParseConstraint("x _||_ y").value(), 0.05};
  DrillDownResult result = DrillDown(table, asc, 30, {Strategy::kDirect, {}}).value();
  EXPECT_EQ(result.strategy_used, Strategy::kDirect);
  EXPECT_LT(result.final_statistic, result.initial_statistic);
  size_t hits = 0;
  for (size_t row : result.rows) {
    hits += dirty.count(row);
  }
  EXPECT_GE(hits, 20u);
}

TEST(DrillDownTest, DependenceScFindsImputedRows) {
  // y tracks x except for 40 "imputed" rows where y is a constant.
  Rng rng(3);
  std::vector<double> x;
  std::vector<double> y;
  std::set<size_t> dirty;
  for (size_t i = 0; i < 200; ++i) {
    double v = rng.Normal();
    x.push_back(v);
    y.push_back(2.0 * v + rng.Normal(0.0, 0.05));
  }
  for (size_t i = 0; i < 40; ++i) {
    dirty.insert(x.size());
    x.push_back(rng.Normal());
    y.push_back(0.123);  // mean-imputation artefact
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  Table table = std::move(builder).Build().value();
  ApproximateSc asc{ParseConstraint("x !_||_ y").value(), 0.05};
  // K strategy (the paper's default for DSCs): removing imputed rows
  // restores the dependence fastest.
  DrillDownResult result = DrillDown(table, asc, 40).value();
  EXPECT_EQ(result.strategy_used, Strategy::kDirect);
  size_t hits = 0;
  for (size_t row : result.rows) {
    hits += dirty.count(row);
  }
  EXPECT_GE(hits, 30u);
  // The raw S statistic shrinks with n; dependence strength is S divided by
  // the number of pairs, which must grow as the imputed rows leave.
  double n0 = 240.0 * 239.0 / 2.0;
  double n1 = 200.0 * 199.0 / 2.0;
  EXPECT_GT(result.final_statistic / n1, result.initial_statistic / n0);
}

TEST(DrillDownTest, CategoricalPlantedErrors) {
  // x,y independent uniform over 3x3, plus 90 planted rows that follow the
  // deterministic mapping a_i -> b_i (a sorting-error-like pattern; note a
  // single-cell plant would mostly be absorbed by the marginals).
  Rng rng(4);
  std::vector<std::string> x;
  std::vector<std::string> y;
  std::set<size_t> dirty;
  for (size_t i = 0; i < 300; ++i) {
    x.emplace_back("a").append(std::to_string(rng.UniformInt(0, 2)));
    y.emplace_back("b").append(std::to_string(rng.UniformInt(0, 2)));
  }
  for (size_t i = 0; i < 90; ++i) {
    dirty.insert(x.size());
    x.emplace_back("a").append(std::to_string(i % 3));
    y.emplace_back("b").append(std::to_string(i % 3));
  }
  TableBuilder builder;
  builder.AddCategorical("x", x);
  builder.AddCategorical("y", y);
  Table table = std::move(builder).Build().value();
  ApproximateSc asc{ParseConstraint("x _||_ y").value(), 0.05};
  ASSERT_TRUE(DetectViolation(table, asc).value().violated);

  // Kᶜ returns a *mutually correlated* subset (Sec. 5.2): within the
  // returned records the X -> Y mapping must be functional (each x category
  // pairs with exactly one y), and here the over-represented mapping is the
  // planted diagonal a_i -> b_i.
  DrillDownResult kc = DrillDown(table, asc, 90).value();
  std::map<std::string, std::set<std::string>> mapping;
  size_t on_diagonal = 0;
  for (size_t row : kc.rows) {
    const std::string& xv = table.column(0).CategoryAt(row);
    const std::string& yv = table.column(1).CategoryAt(row);
    mapping[xv].insert(yv);
    on_diagonal += (xv.back() == yv.back()) ? 1 : 0;
  }
  for (const auto& [xv, ys] : mapping) {
    EXPECT_EQ(ys.size(), 1u) << "x=" << xv << " maps to multiple y values";
  }
  EXPECT_EQ(on_diagonal, kc.rows.size());

  // The K strategy removes records that most reduce the dependence; they
  // must come (almost) exclusively from the over-represented diagonal.
  DrillDownResult k = DrillDown(table, asc, 90, {Strategy::kDirect, {}}).value();
  size_t removed_diagonal = 0;
  for (size_t row : k.rows) {
    const std::string& xv = table.column(0).CategoryAt(row);
    const std::string& yv = table.column(1).CategoryAt(row);
    removed_diagonal += (xv.back() == yv.back()) ? 1 : 0;
  }
  EXPECT_GE(removed_diagonal, 70u);
  EXPECT_LT(k.final_statistic, k.initial_statistic);
}

TEST(DrillDownTest, ConditionalConstraintDrillsWithinStrata) {
  // Two strata; dependence planted only inside stratum "s1".
  Rng rng(5);
  std::vector<double> x;
  std::vector<double> y;
  std::vector<std::string> z;
  std::set<size_t> dirty;
  for (size_t i = 0; i < 150; ++i) {
    x.push_back(rng.Normal());
    y.push_back(rng.Normal());
    z.push_back(i % 2 == 0 ? "s0" : "s1");
  }
  for (size_t i = 0; i < 25; ++i) {
    double v = 4.0 + 0.1 * static_cast<double>(i);
    dirty.insert(x.size());
    x.push_back(v);
    y.push_back(2.0 * v);
    z.push_back("s1");
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  builder.AddCategorical("z", z);
  Table table = std::move(builder).Build().value();
  ApproximateSc asc{ParseConstraint("x _||_ y | z").value(), 0.05};
  DrillDownResult result = DrillDown(table, asc, 25).value();
  size_t hits = 0;
  for (size_t row : result.rows) {
    hits += dirty.count(row);
  }
  EXPECT_GE(hits, 20u);
}

// The G engine's greedy removal order on a sparse high-cardinality FD
// (600 HOSP rows over up to 400 Zips), unconditional and per State
// stratum, pinned to the rows and final statistics the engine produced
// before its bracket terms were cached. Any drift in a single score bit
// can reorder ties and shows up here.
TEST(DrillDownTest, HighCardinalityGRemovalOrderIsPinned) {
  HospOptions options;
  options.rows = 600;
  Table table = GenerateHospData(options).value().table;
  struct Pinned {
    const char* sc;
    Strategy strategy;
    size_t k;
    const char* final_statistic;
    std::vector<size_t> rows;
  };
  const Pinned pinned[] = {
      {"Zip !_||_ City", Strategy::kDirect, 100, "4346.6522083260306",
       {156, 502, 489, 1,   6,   182, 351, 532, 577, 597, 19,  69,  180, 203, 253, 279, 416,
        469, 547, 3,   38,  80,  115, 154, 173, 306, 361, 464, 510, 585, 16,  17,  46,  89,
        231, 249, 327, 465, 527, 567, 572, 594, 30,  56,  76,  83,  98,  108, 118, 121, 128,
        130, 133, 149, 181, 196, 227, 244, 316, 320, 323, 363, 387, 535, 556, 8,   25,  51,
        52,  95,  132, 139, 141, 142, 147, 162, 185, 213, 229, 268, 293, 298, 299, 321, 339,
        340, 362, 391, 393, 396, 408, 423, 472, 598, 43,  63,  68,  75,  84,  86}},
      {"Zip !_||_ City", Strategy::kComplement, 50, "391.20230054281814",
       {598, 597, 596, 595, 594, 588, 587, 586, 585, 584, 582, 577, 576, 573, 572, 568, 567,
        564, 563, 556, 555, 551, 550, 542, 541, 537, 536, 535, 530, 526, 519, 518, 513, 511,
        509, 505, 502, 495, 494, 493, 491, 489, 488, 482, 472, 468, 466, 465, 463, 454}},
      {"Zip !_||_ City | State", Strategy::kDirect, 100, "2045.7638130124365",
       {597, 46,  156, 298, 50,  553, 133, 130, 598, 95,  451, 198, 249, 321, 258, 167, 105,
        518, 447, 31,  129, 477, 354, 390, 558, 26,  502, 61,  338, 512, 136, 77,  470, 90,
        211, 206, 404, 489, 28,  172, 366, 285, 381, 332, 549, 449, 203, 69,  118, 572, 38,
        289, 323, 89,  279, 76,  247, 577, 182, 98,  306, 5,   43,  295, 423, 15,  154, 253,
        52,  340, 17,  393, 437, 361, 180, 465, 8,   68,  160, 162, 503, 527, 6,   3,   464,
        25,  75,  134, 185, 196, 363, 56,  132, 403, 65,  174, 355, 440, 587, 351}},
      {"Zip !_||_ City | State", Strategy::kComplement, 50, "259.81889722352173",
       {588, 587, 576, 572, 555, 495, 440, 404, 366, 295, 272, 206, 203, 136, 133, 549, 496,
        494, 472, 449, 447, 385, 321, 299, 296, 286, 264, 198, 148, 130, 598, 550, 542, 536,
        526, 470, 400, 337, 298, 245, 243, 188, 104, 77,  46,  597, 577, 567, 537, 518}},
  };
  for (const Pinned& want : pinned) {
    std::string label = std::string(want.sc) +
                        (want.strategy == Strategy::kDirect ? " K" : " Kc");
    ApproximateSc asc{ParseConstraint(want.sc).value(), 0.05};
    DrillDownOptions drill;
    drill.strategy = want.strategy;
    DrillDownResult got = DrillDown(table, asc, want.k, drill).value();
    EXPECT_EQ(got.rows, want.rows) << label;
    char final_statistic[32];
    std::snprintf(final_statistic, sizeof(final_statistic), "%.17g", got.final_statistic);
    EXPECT_EQ(std::string(final_statistic), want.final_statistic) << label;
  }
}

// FNV-1a over the row ids' little-endian bytes.
uint64_t RowDigest(const std::vector<size_t>& rows) {
  uint64_t hash = 14695981039346656037ull;
  for (size_t row : rows) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (static_cast<uint64_t>(row) >> (8 * byte)) & 0xff;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

// The τ engine's output pinned to what the engine produced before it
// moved to packed slots and one pass per removal: K and Kᶜ on Boston data,
// unconditional and stratified, on the table as generated and on a copy
// where every row appears four times (equal benefits everywhere, so the
// row-id tie-break decides). Each case pins DrillDown's rows at k = 100,
// its final statistic and p-value, and a digest of the complete
// RankSuspiciousRecords order.
TEST(DrillDownTest, TauDrillOutputIsPinned) {
  BostonOptions options;
  options.rows = 6000;
  Table generated = GenerateBostonData(options).value();
  std::vector<size_t> every_row_four_times;
  for (size_t i = 0; i < 4 * generated.NumRows(); ++i) {
    every_row_four_times.push_back(i % generated.NumRows());
  }
  Table quadrupled = generated.Gather(every_row_four_times);
  struct Pinned {
    const char* sc;
    int copies;
    Strategy strategy;
    const char* final_statistic;
    const char* final_p;
    uint64_t ranking_digest;
    std::vector<size_t> rows;
  };
  const Pinned pinned[] = {
      {"N !_||_ D", 1, Strategy::kDirect,
       "12955281", "0", 0x972f48ab40c63e25ull,
       {2452, 729, 5339, 1193, 1621, 5790, 4581, 2155, 2316, 1686, 4234, 2186, 798, 75, 5661, 252,
        3788, 2964, 3727, 461, 2573, 2601, 2168, 5204, 1023, 4395, 4600, 2930, 5051, 867, 3039,
        2909, 4537, 1270, 2679, 1379, 101, 4917, 4926, 1167, 2372, 1832, 3952, 3501, 5688, 5746,
        4859, 524, 4794, 2441, 542, 1492, 2801, 4540, 3830, 547, 388, 1876, 3287, 153, 1915, 2449,
        855, 4514, 570, 2739, 4032, 3056, 465, 3273, 1061, 2065, 2595, 3973, 4742, 1828, 1013,
        4439, 2657, 2564, 2859, 4862, 5458, 4233, 5621, 1917, 333, 2043, 5088, 455, 2419, 4943,
        857, 4505, 3915, 5196, 5814, 3124, 2481, 4614}},
      {"N !_||_ D", 1, Strategy::kComplement,
       "8", "0.980992250996092", 0x65f536783bab8971ull,
       {5964, 5260, 1686, 4441, 5504, 5953, 4917, 1017, 5894, 5885, 4026, 4750, 4300, 5447, 3974,
        4664, 3784, 5006, 3760, 3408, 3282, 4571, 2034, 2573, 2901, 3159, 2572, 2407, 2874, 5238,
        2826, 2209, 2804, 4815, 2476, 83, 1193, 3846, 5790, 2886, 798, 5070, 1973, 1892, 1557,
        3501, 1107, 729, 617, 1613, 5597, 262, 5549, 5204, 4392, 2182, 2461, 1132, 1903, 4809,
        1201, 3492, 449, 4032, 4148, 412, 2948, 2601, 1997, 4487, 1828, 2971, 524, 1421, 1621, 916,
        219, 1876, 4864, 4684, 4214, 309, 1270, 3468, 3544, 353, 855, 4048, 744, 3072, 4589, 3830,
        3179, 1608, 259, 2177, 4990, 2970, 307, 4813}},
      {"R _||_ B", 1, Strategy::kDirect,
       "6", "0.99996831312835144", 0xb1b5fa588df906f1ull,
       {530, 5190, 2117, 1039, 4656, 5825, 4406, 932, 5220, 5724, 3680, 5054, 5710, 2938, 5659,
        1048, 5324, 3269, 1606, 2683, 3883, 4955, 5949, 432, 2919, 5343, 5808, 2998, 3423, 4225,
        589, 2131, 1098, 2385, 5558, 30, 1386, 4081, 3569, 3936, 4588, 1848, 3437, 3435, 5582,
        1563, 5733, 648, 1799, 5472, 3921, 1719, 180, 1607, 1655, 3656, 1689, 2664, 2603, 3398,
        2419, 941, 4345, 5379, 2430, 5686, 5880, 5957, 2964, 4916, 241, 4475, 2656, 1599, 130,
        2493, 3828, 376, 4011, 5585, 515, 1537, 5384, 3313, 3579, 4693, 5018, 5076, 3028, 809,
        3140, 4080, 2310, 4499, 5539, 2319, 5644, 255, 986, 2210}},
      {"R _||_ B", 1, Strategy::kComplement,
       "4950", "3.4802811924582451e-49", 0x81e158c9a7cf2fd9ull,
       {5977, 5968, 5841, 5831, 5807, 5803, 5788, 5783, 5660, 5659, 5615, 5609, 5583, 5558, 5544,
        5511, 5507, 5445, 5376, 5352, 5344, 5325, 5298, 5294, 5268, 5257, 5225, 5214, 5190, 5177,
        5174, 5151, 5136, 5081, 5058, 5056, 4999, 4980, 4977, 4975, 4955, 4931, 4890, 4825, 4819,
        4793, 4784, 4721, 4656, 4653, 4625, 4588, 4585, 4526, 4503, 4459, 4389, 4287, 4283, 4184,
        4065, 3961, 3946, 3872, 3837, 3787, 3784, 3739, 3680, 3625, 3616, 3529, 3435, 3423, 3378,
        3374, 3331, 3262, 3230, 3210, 3199, 3112, 3014, 2976, 2922, 2672, 2477, 2461, 2409, 2343,
        2336, 2301, 2240, 2226, 2224, 2196, 2189, 2167, 2142, 2117}},
      {"N _||_ B | TX", 1, Strategy::kDirect,
       "0", "1", 0xc7938e2a794e70e1ull,
       {4240, 1390, 4426, 5568, 2501, 1221, 3337, 4444, 3800, 932, 1775, 394, 3251, 4952, 1571,
        4420, 3968, 5843, 2689, 3465, 2335, 5672, 3183, 4298, 3175, 2358, 66, 1118, 667, 4336,
        1641, 3416, 3442, 4644, 4489, 4459, 1516, 2859, 413, 3435, 1821, 2996, 1580, 5325, 498,
        2135, 2749, 778, 350, 365, 659, 670, 1047, 1774, 3, 997, 895, 1598, 438, 1074, 2788, 569,
        1190, 1041, 1956, 720, 1514, 1048, 2629, 1483, 1596, 3301, 4242, 1588, 1800, 1896, 1921,
        1990, 2456, 2313, 2944, 2876, 1508, 1741, 2761, 3154, 2020, 2846, 3298, 4385, 1307, 3155,
        2496, 1664, 3332, 2246, 2841, 382, 906, 3231}},
      {"N _||_ B | TX", 1, Strategy::kComplement,
       "4726", "5.4427331094975682e-45", 0xb20f4647ffc908f1ull,
       {5749, 5714, 5659, 5624, 5556, 5509, 5462, 5414, 5268, 5198, 5066, 4872, 4661, 4644, 4624,
        4563, 4481, 4313, 4240, 4237, 4123, 3924, 3908, 3904, 3880, 3831, 3828, 3803, 3697, 3635,
        3552, 3442, 3251, 3223, 2974, 2768, 2569, 2448, 2330, 2285, 2091, 2081, 2070, 1940, 1683,
        1511, 1482, 1221, 1208, 1035, 998, 948, 688, 552, 394, 5091, 4634, 4413, 4371, 3481, 3413,
        2541, 1968, 1790, 1496, 1431, 667, 4659, 3683, 3136, 2957, 2101, 1988, 1962, 1898, 1887,
        1615, 5918, 5335, 4940, 4504, 3691, 3476, 3416, 2040, 1995, 1446, 1410, 1256, 994, 330,
        5981, 5808, 5135, 4670, 3823, 2747, 2054, 4444, 3899}},
      {"TX !_||_ B | C", 1, Strategy::kDirect,
       "746479", "0", 0xeb430742e2702459ull,
       {3721, 3383, 3317, 5568, 1273, 467, 3615, 3337, 366, 172, 1672, 1796, 2749, 4439, 4048,
        4410, 1549, 4702, 1390, 3594, 1375, 803, 3283, 5733, 5754, 2740, 1093, 3414, 49, 4260,
        1788, 4610, 1221, 1070, 2383, 3107, 3894, 2376, 2951, 3416, 2512, 4047, 2558, 2766, 2100,
        2280, 574, 934, 3405, 1322, 5174, 66, 903, 5049, 2135, 3951, 1641, 3465, 1381, 4254, 4630,
        2381, 131, 4677, 5291, 5713, 4406, 3015, 3673, 5578, 865, 1527, 5348, 900, 2933, 413, 5694,
        2552, 3220, 3608, 4544, 3097, 3446, 456, 746, 4278, 4464, 208, 2812, 5843, 3542, 1973,
        4489, 860, 2859, 848, 8, 4053, 932, 1206}},
      {"TX !_||_ B | C", 1, Strategy::kComplement,
       "6", "0.98574359822875757", 0x02256f1022459659ull,
       {5752, 5711, 5436, 5426, 4624, 1390, 4609, 4215, 4575, 4195, 3595, 1258, 4165, 3697, 3887,
        3622, 1063, 3615, 5901, 3254, 3834, 3003, 2888, 1875, 1809, 3392, 5200, 2285, 3398, 2084,
        2977, 4459, 2001, 1146, 2651, 1902, 2474, 4039, 1424, 1992, 4865, 815, 4740, 528, 518,
        3465, 3855, 2078, 4225, 152, 621, 1442, 5358, 1821, 1832, 390, 3795, 1046, 2730, 994, 4190,
        1970, 5725, 1325, 555, 1423, 1790, 188, 714, 5130, 4199, 1693, 2234, 5029, 368, 717, 3360,
        4779, 1829, 2933, 1178, 1551, 5128, 1368, 836, 1546, 485, 1101, 40, 5984, 2698, 165, 3223,
        5973, 1764, 1698, 4068, 1304, 740, 3088}},
      {"N !_||_ D", 4, Strategy::kDirect,
       "209393984", "0", 0x162172813c35e98dull,
       {2452, 8452, 14452, 20452, 729, 6729, 12729, 18729, 5339, 11339, 17339, 23339, 1193, 7193,
        13193, 19193, 1621, 7621, 13621, 19621, 5790, 11790, 17790, 23790, 4581, 10581, 16581,
        22581, 2155, 8155, 14155, 20155, 2316, 8316, 14316, 20316, 1686, 7686, 13686, 19686, 4234,
        10234, 16234, 22234, 2186, 8186, 14186, 20186, 798, 6798, 12798, 18798, 75, 6075, 12075,
        18075, 5661, 11661, 17661, 23661, 252, 6252, 12252, 18252, 3788, 9788, 15788, 21788, 2964,
        8964, 14964, 20964, 3727, 9727, 15727, 21727, 461, 6461, 12461, 18461, 2573, 8573, 14573,
        20573, 2601, 8601, 14601, 20601, 2168, 8168, 14168, 20168, 5204, 11204, 17204, 23204, 1023,
        7023, 13023, 19023}},
      {"N !_||_ D", 4, Strategy::kComplement,
       "19", "0.95487640584350164", 0x144298a8684e0badull,
       {23504, 23260, 19686, 22441, 22026, 13686, 22917, 19017, 22750, 13017, 7686, 7017, 1686,
        1017, 23964, 23953, 23006, 21974, 22684, 21760, 22571, 20901, 21159, 20572, 22664, 20407,
        21408, 22392, 22300, 20476, 20209, 20874, 21784, 20461, 18083, 20804, 21282, 20038, 17260,
        19973, 20034, 19903, 16441, 19613, 17953, 16300, 19201, 16026, 18412, 15974, 19193, 15784,
        17006, 15760, 18798, 14034, 16684, 14901, 17504, 11953, 16571, 14572, 16917, 10300, 15159,
        14407, 16750, 9784, 14476, 14209, 16664, 8034, 14461, 12083, 15408, 5953, 14038, 4300,
        13903, 11260, 20573, 10441, 14874, 10026, 9974, 14804, 18262, 3784, 2034, 14573, 17964,
        8573, 16392, 13201, 9760, 2573, 8901, 13973, 15282, 12412}},
      {"R _||_ B", 4, Strategy::kDirect,
       "2135696", "0.082917291640658794", 0x5c8e0594e5a76351ull,
       {530, 6530, 12530, 18530, 5190, 11190, 17190, 23190, 2117, 8117, 14117, 20117, 1039, 7039,
        13039, 19039, 4656, 10656, 16656, 22656, 5825, 11825, 17825, 23825, 4406, 10406, 16406,
        22406, 932, 6932, 12932, 18932, 5220, 11220, 17220, 23220, 5724, 11724, 17724, 23724, 3680,
        9680, 15680, 21680, 5054, 11054, 17054, 23054, 5710, 11710, 17710, 23710, 2938, 5659, 8938,
        11659, 14938, 17659, 20938, 23659, 1048, 7048, 13048, 19048, 5324, 11324, 17324, 23324,
        3269, 9269, 15269, 21269, 1606, 2683, 7606, 8683, 13606, 14683, 19606, 20683, 3883, 9883,
        15883, 21883, 4955, 10955, 16955, 22955, 5949, 11949, 17949, 23949, 432, 6432, 12432,
        18432, 2919, 8919, 14919, 20919}},
      {"R _||_ B", 4, Strategy::kComplement,
       "4950", "3.4802811924582451e-49", 0xbf7c8bb9989d8dc1ull,
       {23977, 23968, 23841, 23831, 23807, 23803, 23788, 23783, 23660, 23659, 23615, 23609, 23583,
        23558, 23544, 23511, 23507, 23445, 23376, 23352, 23344, 23325, 23298, 23294, 23268, 23257,
        23225, 23214, 23190, 23177, 23174, 23151, 23136, 23081, 23058, 23056, 22999, 22980, 22977,
        22975, 22955, 22931, 22890, 22825, 22819, 22793, 22784, 22721, 22656, 22653, 22625, 22588,
        22585, 22526, 22503, 22459, 22389, 22287, 22283, 22184, 22065, 21961, 21946, 21872, 21837,
        21787, 21784, 21739, 21680, 21625, 21616, 21529, 21435, 21423, 21378, 21374, 21331, 21262,
        21230, 21210, 21199, 21112, 21014, 20976, 20922, 20672, 20477, 20461, 20409, 20343, 20336,
        20301, 20240, 20226, 20224, 20196, 20189, 20167, 20142, 20117}},
      {"N _||_ B | TX", 4, Strategy::kDirect,
       "233888", "0.12880631136273049", 0x0fcb31df11186701ull,
       {4240, 10240, 16240, 22240, 1390, 7390, 13390, 19390, 4426, 10426, 16426, 22426, 5568,
        11568, 17568, 23568, 2501, 8501, 14501, 20501, 1221, 7221, 13221, 19221, 3337, 9337, 15337,
        21337, 4444, 10444, 16444, 22444, 3800, 9800, 15800, 21800, 932, 6932, 12932, 18932, 1775,
        7775, 13775, 19775, 394, 6394, 12394, 18394, 3251, 9251, 15251, 21251, 4952, 10952, 16952,
        22952, 1571, 7571, 13571, 19571, 4420, 10420, 16420, 22420, 3968, 9968, 15968, 21968, 5843,
        11843, 17843, 23843, 2689, 8689, 14689, 20689, 3465, 9465, 15465, 21465, 2335, 5672, 8335,
        11672, 14335, 17672, 20335, 23672, 3183, 4298, 9183, 10298, 15183, 16298, 21183, 22298,
        3175, 9175, 15175, 21175}},
      {"N _||_ B | TX", 4, Strategy::kComplement,
       "4905", "2.5098105699053966e-48", 0x4d8ed9956b526565ull,
       {23749, 23714, 23659, 23624, 23556, 23509, 23462, 23414, 23268, 23198, 23066, 22872, 22661,
        22644, 22624, 22563, 22481, 22313, 22240, 22237, 22123, 21924, 21908, 21904, 21880, 21831,
        21828, 21803, 21697, 21635, 21552, 21442, 21251, 21223, 20974, 20768, 20569, 20448, 20330,
        20285, 20091, 20081, 20070, 19940, 19683, 19511, 19482, 19221, 19208, 19035, 18998, 18948,
        18688, 18552, 18394, 17749, 17714, 17659, 17624, 17556, 17509, 17462, 17414, 17268, 17198,
        17066, 16872, 16661, 16644, 16624, 16563, 16481, 16313, 16240, 16237, 16123, 15924, 15908,
        15904, 15880, 15831, 15828, 15803, 15697, 15635, 15552, 15442, 15251, 15223, 14974, 14768,
        14569, 14448, 14330, 14285, 14091, 14081, 14070, 13940, 13683}},
      {"TX !_||_ B | C", 4, Strategy::kDirect,
       "11487856", "0", 0x166fd560e81ebca5ull,
       {3721, 9721, 15721, 21721, 3383, 9383, 15383, 21383, 3317, 9317, 15317, 21317, 5568, 11568,
        17568, 23568, 1273, 7273, 13273, 19273, 467, 6467, 12467, 18467, 3615, 9615, 15615, 21615,
        3337, 9337, 15337, 21337, 366, 6366, 12366, 18366, 172, 1672, 6172, 7672, 12172, 13672,
        18172, 19672, 1796, 7796, 13796, 19796, 2749, 8749, 14749, 20749, 4439, 10439, 16439,
        22439, 4048, 10048, 16048, 22048, 4410, 10410, 16410, 22410, 1549, 7549, 13549, 19549,
        4702, 10702, 16702, 22702, 1390, 3594, 7390, 9594, 13390, 15594, 19390, 21594, 1375, 7375,
        13375, 19375, 803, 3283, 6803, 9283, 12803, 15283, 18803, 21283, 5733, 5754, 11733, 11754,
        17733, 17754, 23733, 23754}},
      {"TX !_||_ B | C", 4, Strategy::kComplement,
       "31", "0.92644251111648079", 0x952b1e7d2a64691dull,
       {23819, 23711, 23595, 21392, 15392, 23200, 23536, 22575, 21595, 19390, 23426, 15595, 19258,
        23286, 23194, 17711, 22738, 22624, 22159, 17200, 21622, 17819, 13258, 17595, 17536, 21003,
        11711, 17426, 9392, 16575, 17286, 20799, 13390, 17194, 9595, 7258, 16738, 20655, 5711,
        16624, 3392, 1258, 16159, 20587, 10575, 15622, 15003, 7390, 14799, 14655, 20524, 4575,
        14587, 20084, 1390, 14524, 3595, 21887, 11819, 14084, 15887, 23901, 11595, 21834, 11536,
        19809, 9887, 11426, 20001, 3887, 11286, 13809, 21615, 17901, 19832, 15834, 11194, 14001,
        9834, 10624, 7809, 15615, 10159, 11901, 9615, 9622, 20977, 3834, 9003, 14977, 3615, 18815,
        8977, 11200, 8799, 13832, 19875, 8655, 19698, 13875}},
  };
  for (const Pinned& want : pinned) {
    const Table& table = want.copies == 1 ? generated : quadrupled;
    std::string label = std::string(want.sc) + " x" + std::to_string(want.copies) +
                        (want.strategy == Strategy::kDirect ? " K" : " Kc");
    ApproximateSc asc{ParseConstraint(want.sc).value(), 0.05};
    DrillDownOptions drill;
    drill.strategy = want.strategy;
    DrillDownResult got = DrillDown(table, asc, 100, drill).value();
    EXPECT_EQ(got.rows, want.rows) << label;
    char text[32];
    std::snprintf(text, sizeof(text), "%.17g", got.final_statistic);
    EXPECT_EQ(std::string(text), want.final_statistic) << label;
    std::snprintf(text, sizeof(text), "%.17g", got.final_p);
    EXPECT_EQ(std::string(text), want.final_p) << label;
    std::vector<size_t> ranking =
        RankSuspiciousRecords(table, asc, table.NumRows(), drill).value();
    EXPECT_EQ(ranking.size(), table.NumRows()) << label;
    EXPECT_EQ(RowDigest(ranking), want.ranking_digest) << label;
  }
}

// The τ engine against an O(n²)-per-step reference greedy that recomputes
// every alive record's benefit from its stratum's alive pairs. Tie-heavy
// integer data, three strata, candidate rows in shuffled order (so slot
// order and row ids disagree) and a goal that switches every three steps.
TEST(DrillDownTest, TauEngineMatchesReferenceGreedyAsGoalsSwitch) {
  Rng rng(2020);
  std::vector<double> x;
  std::vector<double> y;
  std::vector<std::string> z;
  for (int i = 0; i < 300; ++i) {
    int stratum = static_cast<int>(rng.UniformInt(0, 2));
    double v = static_cast<double>(rng.UniformInt(0, 5));
    x.push_back(v);
    y.push_back(stratum == 0 ? v + static_cast<double>(rng.UniformInt(0, 1))
                             : static_cast<double>(rng.UniformInt(0, 5)));
    z.emplace_back("z").append(std::to_string(stratum));
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  builder.AddCategorical("z", z);
  Table table = std::move(builder).Build().value();
  std::vector<size_t> rows;
  for (size_t i = 0; i < 300; ++i) {
    if (i % 11 != 4) {
      rows.push_back(i);
    }
  }
  rng.Shuffle(rows);
  std::unique_ptr<internal::DrilldownEngine> engine =
      internal::MakeEngine(table, 0, 1, {2}, rows, TestOptions{}).value();
  ASSERT_EQ(engine->AliveCount(), rows.size());

  std::vector<bool> alive(table.NumRows(), false);
  for (size_t row : rows) {
    alive[row] = true;
  }
  auto benefit = [&](size_t row) {
    int64_t sum = 0;
    for (size_t other : rows) {
      if (alive[other] && other != row && z[other] == z[row]) {
        sum += PairWeight(x[row], y[row], x[other], y[other]);
      }
    }
    return sum;
  };
  int64_t total = 0;
  for (size_t row : rows) {
    total += benefit(row);
  }
  total /= 2;
  ASSERT_EQ(engine->CurrentStatistic(), std::fabs(static_cast<double>(total)));

  for (size_t step = 0; step < rows.size(); ++step) {
    internal::RemovalGoal goal = (step / 3) % 2 == 0
                                     ? internal::RemovalGoal::kReduceDependence
                                     : internal::RemovalGoal::kIncreaseDependence;
    double current_abs = std::fabs(static_cast<double>(total));
    double best_improvement = -std::numeric_limits<double>::infinity();
    size_t best_row = SIZE_MAX;
    int64_t best_benefit = 0;
    for (size_t row : rows) {
      if (!alive[row]) {
        continue;
      }
      int64_t b = benefit(row);
      double after_abs = std::fabs(static_cast<double>(total - b));
      double improvement = goal == internal::RemovalGoal::kReduceDependence
                               ? current_abs - after_abs
                               : after_abs - current_abs;
      if (improvement > best_improvement ||
          (improvement == best_improvement && row < best_row)) {
        best_improvement = improvement;
        best_row = row;
        best_benefit = b;
      }
    }
    alive[best_row] = false;
    total -= best_benefit;
    size_t removed = SIZE_MAX;
    ASSERT_TRUE(engine->SelectAndRemove(goal, &removed)) << "step " << step;
    ASSERT_EQ(removed, best_row) << "step " << step;
    ASSERT_EQ(engine->CurrentStatistic(), std::fabs(static_cast<double>(total)))
        << "step " << step;
    ASSERT_EQ(engine->AliveCount(), rows.size() - step - 1);
  }
  size_t removed = 0;
  EXPECT_FALSE(engine->SelectAndRemove(internal::RemovalGoal::kReduceDependence, &removed));
}

// The G engine's cell key must keep every (stratum, x, y) apart whatever
// the code values: a y code of 2^20 + 5 once shared the cell of (x + 1, 5)
// and the greedy optimised the wrong table. Its initial statistic must
// equal the G-test's over the same rows, unconditional and stratified.
TEST(DrillDownTest, GEngineSeparatesCategoriesBeyondTwentyBits) {
  const int32_t far_code = (1 << 20) + 5;
  std::vector<std::string> dictionary(static_cast<size_t>(1 << 20) + 64);
  for (size_t i = 0; i < dictionary.size(); ++i) {
    dictionary[i] = std::string("y").append(std::to_string(i));
  }
  // (x, y code, copies): x = a0 leans to the far code, x = a1 to code 5.
  struct Block {
    const char* x;
    int32_t y;
    int copies;
  };
  const Block blocks[] = {{"a0", far_code, 8}, {"a0", 5, 1}, {"a0", 7, 2},
                          {"a1", 5, 8},        {"a1", 7, 2}, {"a1", far_code, 1}};
  std::vector<std::string> x;
  std::vector<int32_t> y;
  std::vector<std::string> z;
  for (const Block& block : blocks) {
    for (int c = 0; c < block.copies; ++c) {
      x.push_back(block.x);
      y.push_back(block.y);
      z.push_back(c % 2 == 0 ? "even" : "odd");
    }
  }
  TableBuilder builder;
  builder.AddCategorical("x", x);
  builder.AddColumn("y", Column::CategoricalFromCodes(y, dictionary));
  builder.AddCategorical("z", z);
  Table table = std::move(builder).Build().value();
  ASSERT_EQ(table.NumRows(), 22u);
  for (const char* sc : {"x !_||_ y", "x !_||_ y | z"}) {
    ApproximateSc asc{ParseConstraint(sc).value(), 0.05};
    BoundConstraint bound = BindConstraint(asc.sc, table).value();
    double g = IndependenceTest(table, bound.x[0], bound.y[0], bound.z).value().statistic;
    ASSERT_GT(g, 1.0) << sc;
    DrillDownOptions drill;
    drill.strategy = Strategy::kDirect;
    DrillDownResult got = DrillDown(table, asc, 1, drill).value();
    EXPECT_NEAR(got.initial_statistic, g, 1e-9 * g) << sc;
  }
}

TEST(DrillDownTest, KLargerThanDataReturnsEverything) {
  auto [table, dirty] = PlantedCorrelationTable(20, 5, 6);
  ApproximateSc asc{ParseConstraint("x _||_ y").value(), 0.05};
  DrillDownResult result = DrillDown(table, asc, 1000).value();
  EXPECT_EQ(result.rows.size(), 25u);
}

TEST(RankingTest, DirectRankingPrefixesMatchDrillDown) {
  auto [table, dirty] = PlantedCorrelationTable(100, 20, 7);
  ApproximateSc asc{ParseConstraint("x _||_ y").value(), 0.05};
  DrillDownOptions options;
  options.strategy = Strategy::kDirect;
  std::vector<size_t> ranking = RankSuspiciousRecords(table, asc, 120, options).value();
  DrillDownResult top10 = DrillDown(table, asc, 10, options).value();
  ASSERT_GE(ranking.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(ranking[i], top10.rows[i]);
  }
}

TEST(RankingTest, ComplementRankingPrefixesMatchDrillDown) {
  auto [table, dirty] = PlantedCorrelationTable(100, 20, 8);
  ApproximateSc asc{ParseConstraint("x _||_ y").value(), 0.05};
  DrillDownOptions options;
  options.strategy = Strategy::kComplement;
  std::vector<size_t> ranking = RankSuspiciousRecords(table, asc, 120, options).value();
  DrillDownResult top10 = DrillDown(table, asc, 10, options).value();
  ASSERT_GE(ranking.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(ranking[i], top10.rows[i]);
  }
}

TEST(RankingTest, RankingHasNoDuplicates) {
  auto [table, dirty] = PlantedCorrelationTable(80, 10, 9);
  ApproximateSc asc{ParseConstraint("x _||_ y").value(), 0.05};
  std::vector<size_t> ranking = RankSuspiciousRecords(table, asc, 90).value();
  std::set<size_t> unique(ranking.begin(), ranking.end());
  EXPECT_EQ(unique.size(), ranking.size());
}

TEST(PartitionTest, RestoresIndependenceConstraint) {
  auto [table, dirty] = PlantedCorrelationTable(200, 30, 10);
  ApproximateSc asc{ParseConstraint("x _||_ y").value(), 0.05};
  PartitionResult result = PartitionDataset(table, asc).value();
  EXPECT_TRUE(result.satisfied);
  EXPECT_LT(result.initial_p, 0.05);
  EXPECT_GE(result.final_p, 0.05);
  EXPECT_LE(result.removed_rows.size(), 60u);  // near-minimal, not half the data
  // Verify against the real test: removing ΔD restores the constraint.
  Table cleaned = table.WithoutRows(result.removed_rows);
  EXPECT_FALSE(DetectViolation(cleaned, asc).value().violated);
}

TEST(PartitionTest, AlreadySatisfiedRemovesNothing) {
  Rng rng(11);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back(rng.Normal());
    y.push_back(rng.Normal());
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  Table table = std::move(builder).Build().value();
  ApproximateSc asc{ParseConstraint("x _||_ y").value(), 0.05};
  PartitionResult result = PartitionDataset(table, asc).value();
  EXPECT_TRUE(result.satisfied);
  EXPECT_TRUE(result.removed_rows.empty());
}

TEST(PartitionTest, BudgetLimitsRemovals) {
  auto [table, dirty] = PlantedCorrelationTable(50, 50, 12);
  ApproximateSc asc{ParseConstraint("x _||_ y").value(), 0.05};
  PartitionOptions options;
  options.max_removal_fraction = 0.05;
  PartitionResult result = PartitionDataset(table, asc, options).value();
  EXPECT_LE(result.removed_rows.size(), 5u);
}

TEST(PartitionTest, SetValuedConstraintUnimplemented) {
  auto [table, dirty] = PlantedCorrelationTable(20, 5, 13);
  StatisticalConstraint sc = Independence({"x"}, {"y"});
  sc.y.push_back("x2");  // fake second variable: binding will fail anyway
  ApproximateSc asc{sc, 0.05};
  EXPECT_FALSE(PartitionDataset(table, asc).ok());
}

// The greedy K strategy vs the exhaustive optimum (Definition 7/8) on
// instances small enough to enumerate: the greedy objective value must be
// close to optimal (and often exactly optimal).
class GreedyVsBruteForceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GreedyVsBruteForceTest, GreedyNearOptimalOnTinyInstances) {
  Rng rng(GetParam());
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 14; ++i) {
    double v = rng.Normal();
    x.push_back(v);
    y.push_back(rng.Bernoulli(0.5) ? v + rng.Normal(0.0, 0.3) : rng.Normal());
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  Table table = std::move(builder).Build().value();
  ApproximateSc asc{ParseConstraint("x _||_ y").value(), 0.05};
  const size_t k = 3;

  DrillDownOptions options;
  options.strategy = Strategy::kDirect;
  DrillDownResult greedy = DrillDown(table, asc, k, options).value();
  DrillDownResult optimal = internal::BruteForceTopK(table, asc, k).value();
  // Compare on a common scale: the |z| statistic of the data remaining
  // after each removal set (the engine itself reports raw |S|).
  Table after_greedy = table.WithoutRows(greedy.rows);
  double greedy_stat = IndependenceTest(after_greedy, 0, 1, {}).value().statistic;
  // ISC: both minimise the remaining dependence statistic. The greedy may
  // be suboptimal, but must be within a modest additive slack of optimal
  // (statistics here are |z| values, typically 0-4).
  EXPECT_GE(greedy_stat + 1e-9, optimal.final_statistic);
  EXPECT_LE(greedy_stat, optimal.final_statistic + 0.75);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyVsBruteForceTest,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

TEST(BruteForceTopKTest, RejectsOversizedEnumerations) {
  Rng rng(1);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    x.push_back(rng.Normal());
    y.push_back(rng.Normal());
  }
  TableBuilder builder;
  builder.AddNumeric("x", x);
  builder.AddNumeric("y", y);
  Table table = std::move(builder).Build().value();
  ApproximateSc asc{ParseConstraint("x _||_ y").value(), 0.05};
  EXPECT_FALSE(internal::BruteForceTopK(table, asc, 50).ok());
}

TEST(Theorem1Test, TopKViaPartitionOracleMatchesGreedyPrefix) {
  // The other direction of the Theorem 1 reduction: the partition oracle,
  // driven by a binary search over alpha, reproduces the greedy top-k set.
  auto [table, dirty] = PlantedCorrelationTable(150, 25, 77);
  StatisticalConstraint sc = Independence({"x"}, {"y"});
  for (size_t k : {5u, 15u, 25u}) {
    DrillDownResult via_oracle = TopKViaPartitionOracle(table, {sc, 0.05}, k).value();
    DrillDownOptions options;
    options.strategy = Strategy::kDirect;
    DrillDownResult direct = DrillDown(table, {sc, 0.05}, k, options).value();
    EXPECT_EQ(via_oracle.rows, direct.rows) << "k=" << k;
  }
}

TEST(Theorem1Test, OraclePropagatesCallerAlphaAndOptionsIntoFallback) {
  // Regression: the greedy fallback used to run with a hardcoded
  // ApproximateSc{sc, 0.05}, ignoring the caller's significance level and
  // PartitionOptions. The reduction must hold at any alpha.
  auto [table, dirty] = PlantedCorrelationTable(150, 25, 79);
  StatisticalConstraint sc = Independence({"x"}, {"y"});
  for (double alpha : {0.01, 0.3}) {
    for (size_t k : {5u, 20u}) {
      DrillDownResult via_oracle = TopKViaPartitionOracle(table, {sc, alpha}, k).value();
      DrillDownOptions options;
      options.strategy = Strategy::kDirect;
      DrillDownResult direct = DrillDown(table, {sc, alpha}, k, options).value();
      EXPECT_EQ(via_oracle.rows, direct.rows) << "alpha=" << alpha << " k=" << k;
    }
  }
}

TEST(Theorem1Test, OracleRejectsDependenceScAndOversizedK) {
  auto [table, dirty] = PlantedCorrelationTable(30, 5, 78);
  EXPECT_FALSE(TopKViaPartitionOracle(table, {Dependence({"x"}, {"y"}), 0.05}, 3).ok());
  EXPECT_FALSE(TopKViaPartitionOracle(table, {Independence({"x"}, {"y"}), 0.05}, 999).ok());
}

TEST(ScodedFacadeTest, DrillDownAndRankDelegate) {
  auto [table, dirty] = PlantedCorrelationTable(100, 20, 14);
  Scoded system(std::move(table));
  ApproximateSc asc{ParseConstraint("x _||_ y").value(), 0.05};
  DrillDownResult dd = system.DrillDown(asc, 20).value();
  EXPECT_EQ(dd.rows.size(), 20u);
  std::vector<size_t> ranking = system.RankRecords(asc, 50).value();
  EXPECT_EQ(ranking.size(), 50u);
  PartitionResult part = system.Partition(asc).value();
  EXPECT_TRUE(part.satisfied);
}

}  // namespace
}  // namespace scoded
