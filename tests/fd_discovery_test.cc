#include "discovery/fd_discovery.h"

#include <gtest/gtest.h>

#include "datasets/hosp.h"
#include "table/table.h"

namespace scoded {
namespace {

bool Contains(const std::vector<DiscoveredFd>& fds, const std::string& lhs,
              const std::string& rhs, const DiscoveredFd** found = nullptr) {
  for (const DiscoveredFd& fd : fds) {
    if (fd.fd.lhs == std::vector<std::string>{lhs} &&
        fd.fd.rhs == std::vector<std::string>{rhs}) {
      if (found != nullptr) {
        *found = &fd;
      }
      return true;
    }
  }
  return false;
}

TEST(FdDiscoveryTest, FindsExactAndApproximateFds) {
  TableBuilder builder;
  builder.AddCategorical("zip", {"1", "1", "1", "2", "2", "2", "3", "3", "3"});
  builder.AddCategorical("city", {"a", "a", "a", "b", "b", "b", "a", "a", "WRONG"});
  builder.AddCategorical("noise", {"p", "q", "r", "p", "q", "r", "p", "q", "r"});
  Table t = std::move(builder).Build().value();
  std::vector<DiscoveredFd> fds = DiscoverApproximateFds(t).value();
  const DiscoveredFd* found = nullptr;
  ASSERT_TRUE(Contains(fds, "zip", "city", &found));
  EXPECT_NEAR(found->g3_ratio, 1.0 / 9.0, 1e-12);
  // noise determines nothing: zip -> noise has g3 = 6/9, above the cap.
  EXPECT_FALSE(Contains(fds, "zip", "noise"));
}

TEST(FdDiscoveryTest, NearKeyLhsPruned) {
  // An id column (all distinct) trivially determines everything — pruned.
  TableBuilder builder;
  builder.AddCategorical("id", {"r1", "r2", "r3", "r4"});
  builder.AddCategorical("v", {"a", "a", "b", "b"});
  Table t = std::move(builder).Build().value();
  std::vector<DiscoveredFd> fds = DiscoverApproximateFds(t).value();
  EXPECT_FALSE(Contains(fds, "id", "v"));
}

TEST(FdDiscoveryTest, SortedByQuality) {
  HospOptions options;
  options.rows = 2000;
  options.error_rate = 0.1;
  HospData data = GenerateHospData(options).value();
  FdDiscoveryOptions discovery;
  discovery.max_g3_ratio = 0.5;
  std::vector<DiscoveredFd> fds = DiscoverApproximateFds(data.table, discovery).value();
  ASSERT_FALSE(fds.empty());
  for (size_t i = 1; i < fds.size(); ++i) {
    EXPECT_LE(fds[i - 1].g3_ratio, fds[i].g3_ratio);
  }
  // City -> State is exact by construction (cities nest in states).
  const DiscoveredFd* found = nullptr;
  ASSERT_TRUE(Contains(fds, "City", "State", &found));
  EXPECT_LT(found->g3_ratio, 0.06);  // only typo'd cities break it
}

TEST(FdDiscoveryTest, HighCardinalityNumericSkipped) {
  TableBuilder builder;
  std::vector<double> v;
  std::vector<std::string> c;
  for (int i = 0; i < 200; ++i) {
    v.push_back(i * 0.37);
    c.push_back(i % 2 == 0 ? "even" : "odd");
  }
  builder.AddNumeric("v", v);
  builder.AddCategorical("c", c);
  Table t = std::move(builder).Build().value();
  std::vector<DiscoveredFd> fds = DiscoverApproximateFds(t).value();
  EXPECT_TRUE(fds.empty());  // v is skipped (200 distinct numerics)
}

TEST(FdDiscoveryTest, DegenerateInputs) {
  TableBuilder builder;
  builder.AddCategorical("only", {"a", "b"});
  Table one_col = std::move(builder).Build().value();
  EXPECT_TRUE(DiscoverApproximateFds(one_col).value().empty());
}

}  // namespace
}  // namespace scoded
