#include "datasets/hosp.h"

#include <algorithm>
#include <string>

#include "common/rng.h"

namespace scoded {

namespace {

std::string ZipName(size_t index) {
  std::string digits = std::to_string(10000 + index);
  return digits;
}

std::string CityName(size_t index) { return "CITY_" + std::to_string(index); }

std::string StateName(size_t index) { return "ST" + std::to_string(index); }

// A deterministic "typo": append a marker so the value is unique-ish and
// clearly off-dictionary, like a digit swap or stray character would be.
std::string Typo(const std::string& value, size_t salt) {
  std::string out = value;
  out += '~';
  out += std::to_string(salt % 97);
  return out;
}

}  // namespace

Result<HospData> GenerateHospData(const HospOptions& options) {
  if (options.rows == 0 || options.num_zips == 0 || options.zips_per_city == 0 ||
      options.cities_per_state == 0) {
    return InvalidArgumentError("GenerateHospData: sizes must be positive");
  }
  if (options.error_rate < 0.0 || options.error_rate > 1.0 ||
      options.lhs_error_fraction < 0.0 || options.lhs_error_fraction > 1.0) {
    return InvalidArgumentError("GenerateHospData: rates must lie in [0, 1]");
  }
  Rng rng(options.seed);
  size_t n = options.rows;
  std::vector<std::string> zip(n);
  std::vector<std::string> city(n);
  std::vector<std::string> state(n);
  std::vector<double> provider(n);
  for (size_t i = 0; i < n; ++i) {
    size_t z = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(options.num_zips) - 1));
    size_t c = z / options.zips_per_city;
    size_t s = c / options.cities_per_state;
    zip[i] = ZipName(z);
    city[i] = CityName(c);
    state[i] = StateName(s);
    provider[i] = static_cast<double>(10000 + i);
  }

  HospData out;
  size_t dirty_count =
      static_cast<size_t>(options.error_rate * static_cast<double>(n) + 0.5);
  std::vector<size_t> dirty = rng.SampleWithoutReplacement(n, dirty_count);
  for (size_t row : dirty) {
    bool lhs = rng.Bernoulli(options.lhs_error_fraction);
    if (lhs) {
      // Mangle the Zip: a fresh singleton LHS value (no violating pairs).
      zip[row] = Typo(zip[row], row);
      out.lhs_dirty_rows.push_back(row);
    } else {
      // Wrong City (and consistent-with-nothing State half the time):
      // classic RHS FD violations.
      size_t wrong_city = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(options.num_zips / options.zips_per_city)));
      city[row] = CityName(wrong_city) == city[row] ? Typo(city[row], row)
                                                    : CityName(wrong_city);
      if (rng.Bernoulli(0.5)) {
        state[row] = Typo(state[row], row);
      }
      out.rhs_dirty_rows.push_back(row);
    }
    out.dirty_rows.push_back(row);
  }
  std::sort(out.dirty_rows.begin(), out.dirty_rows.end());
  std::sort(out.lhs_dirty_rows.begin(), out.lhs_dirty_rows.end());
  std::sort(out.rhs_dirty_rows.begin(), out.rhs_dirty_rows.end());

  TableBuilder builder;
  builder.AddCategorical("Zip", zip);
  builder.AddCategorical("City", city);
  builder.AddCategorical("State", state);
  builder.AddNumeric("Provider", std::move(provider));
  SCODED_ASSIGN_OR_RETURN(out.table, std::move(builder).Build());
  return out;
}

}  // namespace scoded
