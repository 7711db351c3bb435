#include "sensjoin/testbed/testbed.h"

#include <utility>

#include "sensjoin/net/flooding.h"

namespace sensjoin::testbed {
namespace {
sim::SimConfig g_default_sim_config;
}  // namespace

const sim::SimConfig& DefaultSimConfig() { return g_default_sim_config; }

void SetDefaultSimConfig(const sim::SimConfig& config) {
  g_default_sim_config = config;
}

std::vector<NamedField> DefaultFields() {
  data::FieldParams temp;
  temp.base = 20.0;
  temp.gradient_per_m = 0.004;
  temp.num_bumps = 10;
  temp.bump_amplitude = 4.0;
  temp.bump_sigma_m = 180.0;
  temp.noise_sigma = 0.05;

  data::FieldParams hum;
  hum.base = 50.0;
  hum.gradient_per_m = 0.01;
  hum.num_bumps = 8;
  hum.bump_amplitude = 8.0;
  hum.bump_sigma_m = 200.0;
  hum.noise_sigma = 0.2;

  data::FieldParams pres;
  pres.base = 1010.0;
  pres.gradient_per_m = 0.005;
  pres.num_bumps = 4;
  pres.bump_amplitude = 6.0;
  pres.bump_sigma_m = 400.0;
  pres.noise_sigma = 0.1;

  data::FieldParams light;
  light.base = 500.0;
  light.gradient_per_m = 0.2;
  light.num_bumps = 12;
  light.bump_amplitude = 150.0;
  light.bump_sigma_m = 120.0;
  light.noise_sigma = 5.0;

  return {{"temp", temp}, {"hum", hum}, {"pres", pres}, {"light", light}};
}

StatusOr<std::unique_ptr<Testbed>> Testbed::Create(
    const TestbedParams& params) {
  Rng rng(params.seed);
  SENSJOIN_ASSIGN_OR_RETURN(
      net::Placement placement,
      net::GenerateConnectedPlacement(params.placement, rng));

  auto simulator = std::make_unique<sim::Simulator>(
      sim::Radio(placement.positions, params.placement.range_m,
                 sim::RadioOptions{.materialize_threshold =
                                       params.sim
                                           .neighbor_materialize_threshold}),
      params.packets, params.energy);
  simulator->ConfigureEngine(params.sim.engine);

  auto env = std::make_unique<data::NetworkData>(
      placement.positions, params.placement.area_width_m,
      params.placement.area_height_m);
  if (params.default_fields) {
    for (const NamedField& field : DefaultFields()) {
      env->AddField(field.name, field.params, rng);
    }
  }

  net::RoutingTree tree =
      net::RoutingTree::Build(*simulator, placement.base_station_id());

  auto testbed = std::unique_ptr<Testbed>(
      new Testbed(params, std::move(placement), std::move(simulator),
                  std::move(env), std::move(tree), rng.Fork()));
  return testbed;
}

Testbed::Testbed(TestbedParams params, net::Placement placement,
                 std::unique_ptr<sim::Simulator> sim,
                 std::unique_ptr<data::NetworkData> data,
                 net::RoutingTree tree, Rng rng)
    : params_(std::move(params)),
      placement_(std::move(placement)),
      sim_(std::move(sim)),
      data_(std::move(data)),
      tree_(std::move(tree)),
      rng_(rng) {
  flooder_.emplace(*sim_);
  // Environment quantization (Sec. V-B: 0.1 degC temperature steps, 1 m
  // coordinate steps; other sensors at sensible environment resolutions).
  quantization_.by_attr["x"] = {0.0, params_.placement.area_width_m, 1.0};
  quantization_.by_attr["y"] = {0.0, params_.placement.area_height_m, 1.0};
  quantization_.by_attr["temp"] = {0.0, 50.0, 0.1};
  quantization_.by_attr["hum"] = {0.0, 100.0, 0.25};
  quantization_.by_attr["pres"] = {950.0, 1060.0, 0.25};
  quantization_.by_attr["light"] = {0.0, 1500.0, 2.0};
}

StatusOr<query::AnalyzedQuery> Testbed::ParseQuery(
    const std::string& sql) const {
  return query::AnalyzedQuery::FromString(sql, data_->schema());
}

int Testbed::DisseminateQuery(const query::AnalyzedQuery& q) {
  // A re-disseminated query is a new epoch: suppression memory from the
  // previous flood must not mute the re-flood.
  flooder_->ResetSuppression();
  return flooder_->Flood(tree_.root(), q.QueryWireBytes(),
                         sim::MessageKind::kQuery);
}

join::SensJoinExecutor Testbed::MakeSensJoin(join::ProtocolConfig config) {
  return join::SensJoinExecutor(*sim_, tree_, *data_, quantization_, config);
}

join::ExternalJoinExecutor Testbed::MakeExternalJoin(
    join::ProtocolConfig config) {
  return join::ExternalJoinExecutor(*sim_, tree_, *data_, config);
}

void Testbed::RebuildTree() {
  tree_ = net::RoutingTree::Build(*sim_, placement_.base_station_id());
}

void Testbed::InjectFaults(const sim::FaultPlan& plan) {
  sim::ApplyFaultPlan(*sim_, plan);
}

}  // namespace sensjoin::testbed
