#ifndef SENSJOIN_DATA_FIELD_MODEL_H_
#define SENSJOIN_DATA_FIELD_MODEL_H_

#include <cstdint>
#include <vector>

#include "sensjoin/common/geometry.h"
#include "sensjoin/common/rng.h"

namespace sensjoin::data {

/// Parameters of a synthetic spatially auto-correlated scalar field. The
/// field replaces the real-deployment data the paper uses (Intel Lab traces):
/// it is smooth in space (large-scale gradient plus Gaussian bumps), so that
/// nearby nodes observe similar values — the property the quadtree encoding
/// exploits (Sec. V-A) — with small per-node noise and slow per-epoch drift
/// for continuous queries.
struct FieldParams {
  double base = 20.0;          ///< Mean value across the area.
  double gradient_per_m = 0.0; ///< Large-scale trend magnitude (units per m).
  int num_bumps = 8;           ///< Local hot/cold spots.
  double bump_amplitude = 3.0; ///< Max |amplitude| of a bump.
  double bump_sigma_m = 150.0; ///< Spatial extent of a bump.
  double noise_sigma = 0.05;   ///< Fixed per-node calibration offset (std
                               ///< dev); constant across epochs.
  double temporal_noise_sigma = 0.01;  ///< Per-(node, epoch) jitter (std
                                       ///< dev); models slow local change.
  double drift_sigma = 0.02;   ///< Per-epoch network-wide drift (std dev).
};

/// A deterministic scalar field over the deployment area. The spatial shape
/// is fixed at construction (from `rng`); measurement noise and drift are
/// hash-derived from (node, epoch) so that re-reading the same snapshot
/// yields identical values — the ONCE semantics of snapshot queries.
///
/// Cost model: the network-wide drift of snapshot `epoch` is a random walk
/// over epochs 1..epoch, so DriftAt costs O(epoch) hash draws. A reader of a
/// whole snapshot computes it once per field and passes it to the four-
/// argument Measure, which then costs O(bumps) per node. The field is
/// stateless after construction (no caches), so concurrent readers are safe.
class ScalarField {
 public:
  ScalarField(const FieldParams& params, double area_width_m,
              double area_height_m, Rng& rng);

  /// Noise-free field value at `p`.
  double ValueAt(const Point& p) const;

  /// Network-wide drift of snapshot `epoch`, identical for all nodes (so
  /// spatial correlation is preserved). 0 at epoch 0 and without drift.
  double DriftAt(uint64_t epoch) const;

  /// The value node `node` measures at position `p` in snapshot `epoch`,
  /// given that snapshot's `drift` (= DriftAt(epoch)).
  double Measure(const Point& p, int32_t node, uint64_t epoch,
                 double drift) const;

  /// Measure with the drift computed here: O(epoch), for one-off reads.
  double Measure(const Point& p, int32_t node, uint64_t epoch) const {
    return Measure(p, node, epoch, DriftAt(epoch));
  }

  const FieldParams& params() const { return params_; }

  /// Salt of the hash-derived noise and drift streams (drawn from the
  /// construction `rng`).
  uint64_t noise_salt() const { return noise_salt_; }

 private:
  struct Bump {
    Point center;
    double amplitude;
    double sigma;
  };

  FieldParams params_;
  double gradient_x_;
  double gradient_y_;
  std::vector<Bump> bumps_;
  uint64_t noise_salt_;
};

}  // namespace sensjoin::data

#endif  // SENSJOIN_DATA_FIELD_MODEL_H_
