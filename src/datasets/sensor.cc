#include "datasets/sensor.h"

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"

namespace scoded {

Result<Table> GenerateSensorData(const SensorOptions& options) {
  if (options.epochs == 0 || options.num_sensors <= 0) {
    return InvalidArgumentError("GenerateSensorData: epochs and num_sensors must be positive");
  }
  Rng rng(options.seed);
  size_t n = options.epochs;
  int sensors = options.num_sensors;

  // Regional signal: daily cycle + AR(1) weather drift.
  std::vector<double> regional(n);
  double weather = 0.0;
  for (size_t t = 0; t < n; ++t) {
    weather = 0.97 * weather + rng.Normal(0.0, 0.4);
    double daily = 3.0 * std::sin(2.0 * M_PI * static_cast<double>(t % 24) / 24.0);
    regional[t] = 21.0 + daily + weather;
  }

  // Local micro-climate fields form a spatial AR(1) chain across sensor
  // positions, so correlation decays with distance: corr(T7, T8) >
  // corr(T7, T9), as in the real Intel Lab deployment.
  std::vector<std::vector<double>> readings(static_cast<size_t>(sensors),
                                            std::vector<double>(n));
  constexpr double kSpatialMixing = 0.75;
  std::vector<double> local(n, 0.0);
  for (int s = 0; s < sensors; ++s) {
    double offset = rng.Normal(0.0, 0.8);
    double fresh_scale = s == 0 ? 1.0 : std::sqrt(1.0 - kSpatialMixing * kSpatialMixing);
    for (size_t t = 0; t < n; ++t) {
      double fresh = rng.Normal(0.0, 1.0);
      local[t] = s == 0 ? fresh : kSpatialMixing * local[t] + fresh_scale * fresh;
      readings[static_cast<size_t>(s)][t] =
          regional[t] + offset + 0.9 * local[t] +
          rng.Normal(0.0, options.idiosyncratic_noise);
    }
  }

  // Humidity tracks the weather state inversely (hot spells are dry),
  // with its own per-sensor noise.
  std::vector<std::vector<double>> humidity;
  if (options.include_humidity) {
    humidity.assign(static_cast<size_t>(sensors), std::vector<double>(n));
    for (int s = 0; s < sensors; ++s) {
      double offset = rng.Normal(0.0, 2.0);
      for (size_t t = 0; t < n; ++t) {
        humidity[static_cast<size_t>(s)][t] =
            45.0 - 1.8 * (readings[static_cast<size_t>(s)][t] - 21.0) + offset +
            rng.Normal(0.0, 1.2);
      }
    }
  }

  std::vector<double> epoch(n);
  for (size_t t = 0; t < n; ++t) {
    epoch[t] = static_cast<double>(t);
  }
  TableBuilder builder;
  builder.AddNumeric("Epoch", std::move(epoch));
  for (int s = 0; s < sensors; ++s) {
    builder.AddNumeric(std::string("T").append(std::to_string(options.first_sensor + s)),
                       std::move(readings[static_cast<size_t>(s)]));
  }
  if (options.include_humidity) {
    for (int s = 0; s < sensors; ++s) {
      builder.AddNumeric(std::string("H").append(std::to_string(options.first_sensor + s)),
                         std::move(humidity[static_cast<size_t>(s)]));
    }
  }
  return std::move(builder).Build();
}

}  // namespace scoded
