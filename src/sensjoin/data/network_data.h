#ifndef SENSJOIN_DATA_NETWORK_DATA_H_
#define SENSJOIN_DATA_NETWORK_DATA_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sensjoin/common/geometry.h"
#include "sensjoin/common/rng.h"
#include "sensjoin/data/field_model.h"
#include "sensjoin/data/relation.h"
#include "sensjoin/data/schema.h"
#include "sensjoin/data/tuple.h"
#include "sensjoin/sim/time.h"

namespace sensjoin::data {

/// The measurable environment of a deployment: node positions plus one
/// ScalarField per sensor type. Presents the network as sensor relations
/// (Sec. III): each node contributes one tuple whose first two attributes
/// are its coordinates ("x", "y"), followed by one attribute per field.
///
/// Supports heterogeneous networks: nodes can be assigned to named relation
/// groups; by default every node belongs to every relation (homogeneous
/// network / self-join).
///
/// Cost model: a snapshot's network-wide part, every field's drift, costs
/// O(epoch) per field and is computed once per snapshot (DriftOf); each
/// node's read then costs O(bumps) per field. Reading all n nodes of a
/// snapshot is thus O(fields × (epoch + n × bumps)). The class holds no
/// caches: it is immutable once its fields are added, and safe to share
/// across threads.
class NetworkData {
 public:
  /// Creates an environment over `positions` (node id = index). Fields are
  /// added with AddField before first use.
  NetworkData(std::vector<Point> positions, double area_width_m,
              double area_height_m);

  /// Adds a sensor type `name` with field shape `params`; its spatial
  /// realization is drawn from `rng`. Must not be called after Sense().
  void AddField(const std::string& name, const FieldParams& params, Rng& rng);

  /// Schema of the tuples each node contributes: x, y, then fields in
  /// AddField order, two wire bytes per attribute.
  const Schema& schema() const { return schema_; }

  int num_nodes() const { return static_cast<int>(positions_.size()); }
  const Point& position(sim::NodeId id) const { return positions_[id]; }

  /// The part of snapshot `epoch` shared by all nodes: each field's drift,
  /// in AddField order.
  struct SnapshotDrift {
    uint64_t epoch = 0;
    std::vector<double> per_field;
  };

  /// Computes snapshot `epoch`'s drift, O(epoch) per field. Readers of many
  /// nodes of one snapshot compute it once and pass it to Sense.
  SnapshotDrift DriftOf(uint64_t epoch) const;

  /// The snapshot tuple of node `id` in the snapshot of `drift`.
  /// Deterministic: re-sensing the same (id, epoch) returns the same values
  /// (ONCE reads the sensors exactly once; Sec. IV-D).
  Tuple Sense(sim::NodeId id, const SnapshotDrift& drift) const;

  /// Sense(id, DriftOf(epoch)): O(epoch), for one-off reads.
  Tuple Sense(sim::NodeId id, uint64_t epoch) const {
    return Sense(id, DriftOf(epoch));
  }

  /// Restricts relation `relation_name` to `members`. Unassigned relation
  /// names cover all nodes.
  void AssignRelation(const std::string& relation_name,
                      std::vector<sim::NodeId> members);

  /// True if node `id` contributes a tuple to `relation_name`.
  bool BelongsTo(sim::NodeId id, const std::string& relation_name) const;

  /// Materializes the full relation `relation_name` at `epoch` (ground truth
  /// for tests; the base station never sees this directly).
  Relation Materialize(const std::string& relation_name,
                       uint64_t epoch) const;

 private:
  std::vector<Point> positions_;
  double area_width_m_;
  double area_height_m_;
  Schema schema_;
  std::vector<std::string> field_names_;
  std::vector<std::unique_ptr<ScalarField>> fields_;
  std::map<std::string, std::vector<char>> membership_;  // name -> bitmap
};

}  // namespace sensjoin::data

#endif  // SENSJOIN_DATA_NETWORK_DATA_H_
