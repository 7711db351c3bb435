#include "sensjoin/data/field_model.h"

#include <cmath>

namespace sensjoin::data {
namespace {

/// Stateless hash-based standard-normal deviate for (salt, node, epoch).
/// Two independent uniforms from SplitMix64 feed a Box-Muller transform.
double HashGaussian(uint64_t salt, uint64_t a, uint64_t b) {
  auto mix = [](uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  const uint64_t h1 = mix(salt ^ mix(a * 0x9e3779b97f4a7c15ULL + b));
  const uint64_t h2 = mix(h1 + 0x9e3779b97f4a7c15ULL);
  double u1 = static_cast<double>(h1 >> 11) * 0x1.0p-53;
  const double u2 = static_cast<double>(h2 >> 11) * 0x1.0p-53;
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

}  // namespace

ScalarField::ScalarField(const FieldParams& params, double area_width_m,
                         double area_height_m, Rng& rng)
    : params_(params) {
  // Random gradient direction with the configured magnitude.
  const double angle = rng.UniformDouble(0, 2.0 * M_PI);
  gradient_x_ = params.gradient_per_m * std::cos(angle);
  gradient_y_ = params.gradient_per_m * std::sin(angle);
  bumps_.reserve(params.num_bumps);
  for (int i = 0; i < params.num_bumps; ++i) {
    Bump b;
    b.center = {rng.UniformDouble(0, area_width_m),
                rng.UniformDouble(0, area_height_m)};
    b.amplitude = rng.UniformDouble(-params.bump_amplitude,
                                    params.bump_amplitude);
    b.sigma = params.bump_sigma_m * rng.UniformDouble(0.6, 1.4);
    bumps_.push_back(b);
  }
  noise_salt_ = rng.NextUint64();
}

double ScalarField::ValueAt(const Point& p) const {
  double v = params_.base + gradient_x_ * p.x + gradient_y_ * p.y;
  for (const Bump& b : bumps_) {
    const double d = Distance(p, b.center);
    v += b.amplitude * std::exp(-(d * d) / (2.0 * b.sigma * b.sigma));
  }
  return v;
}

double ScalarField::DriftAt(uint64_t epoch) const {
  // A random walk over epochs, summed from epoch 1 in order.
  double drift = 0.0;
  if (params_.drift_sigma > 0) {
    for (uint64_t e = 1; e <= epoch; ++e) {
      drift += params_.drift_sigma * HashGaussian(noise_salt_ ^ 0xdeadbeefULL,
                                                  0xffffffffULL, e);
    }
  }
  return drift;
}

double ScalarField::Measure(const Point& p, int32_t node, uint64_t epoch,
                            double drift) const {
  double v = ValueAt(p);
  if (params_.noise_sigma > 0) {
    // Calibration offset: fixed per node, so consecutive epochs stay
    // temporally correlated (the property the continuous-query delta
    // collection exploits).
    v += params_.noise_sigma *
         HashGaussian(noise_salt_, static_cast<uint64_t>(node), 0);
  }
  if (params_.temporal_noise_sigma > 0) {
    v += params_.temporal_noise_sigma *
         HashGaussian(noise_salt_ ^ 0x5ca1ab1eULL,
                      static_cast<uint64_t>(node), epoch);
  }
  // Added last and only when a walk exists, so that a -0.0 reading is not
  // turned into +0.0 by a zero drift.
  if (params_.drift_sigma > 0 && epoch > 0) v += drift;
  return v;
}

}  // namespace sensjoin::data
