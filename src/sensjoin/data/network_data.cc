#include "sensjoin/data/network_data.h"

#include <utility>

#include "sensjoin/common/logging.h"

namespace sensjoin::data {

NetworkData::NetworkData(std::vector<Point> positions, double area_width_m,
                         double area_height_m)
    : positions_(std::move(positions)),
      area_width_m_(area_width_m),
      area_height_m_(area_height_m),
      schema_({{"x", 2}, {"y", 2}}) {}

void NetworkData::AddField(const std::string& name, const FieldParams& params,
                           Rng& rng) {
  SENSJOIN_CHECK(schema_.IndexOf(name) < 0) << "duplicate field" << name;
  field_names_.push_back(name);
  fields_.push_back(
      std::make_unique<ScalarField>(params, area_width_m_, area_height_m_, rng));
  std::vector<AttributeDef> attrs = schema_.attributes();
  attrs.push_back({name, 2});
  schema_ = Schema(std::move(attrs));
}

NetworkData::SnapshotDrift NetworkData::DriftOf(uint64_t epoch) const {
  SnapshotDrift drift;
  drift.epoch = epoch;
  drift.per_field.reserve(fields_.size());
  for (const auto& field : fields_) {
    drift.per_field.push_back(field->DriftAt(epoch));
  }
  return drift;
}

Tuple NetworkData::Sense(sim::NodeId id, const SnapshotDrift& drift) const {
  SENSJOIN_CHECK(id >= 0 && id < num_nodes());
  SENSJOIN_CHECK_EQ(drift.per_field.size(), fields_.size());
  Tuple t;
  t.node = id;
  const Point& p = positions_[id];
  t.values.reserve(2 + fields_.size());
  t.values.push_back(p.x);
  t.values.push_back(p.y);
  for (size_t f = 0; f < fields_.size(); ++f) {
    t.values.push_back(
        fields_[f]->Measure(p, id, drift.epoch, drift.per_field[f]));
  }
  return t;
}

void NetworkData::AssignRelation(const std::string& relation_name,
                                 std::vector<sim::NodeId> members) {
  std::vector<char> bitmap(num_nodes(), 0);
  for (sim::NodeId id : members) {
    SENSJOIN_CHECK(id >= 0 && id < num_nodes());
    bitmap[id] = 1;
  }
  membership_[relation_name] = std::move(bitmap);
}

bool NetworkData::BelongsTo(sim::NodeId id,
                            const std::string& relation_name) const {
  auto it = membership_.find(relation_name);
  if (it == membership_.end()) return true;  // homogeneous default
  return it->second[id] != 0;
}

Relation NetworkData::Materialize(const std::string& relation_name,
                                  uint64_t epoch) const {
  Relation r(relation_name, schema_);
  const SnapshotDrift drift = DriftOf(epoch);
  for (sim::NodeId id = 0; id < num_nodes(); ++id) {
    if (BelongsTo(id, relation_name)) r.Add(Sense(id, drift));
  }
  return r;
}

}  // namespace sensjoin::data
