#include "core/o2siterec.h"

#include "common/check.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace o2sr::core {

const char* VariantName(O2SiteRecVariant variant) {
  switch (variant) {
    case O2SiteRecVariant::kFull: return "O2-SiteRec";
    case O2SiteRecVariant::kNoCapacity: return "O2-SiteRec w/o Co";
    case O2SiteRecVariant::kNoCapacityNoCustomer:
      return "O2-SiteRec w/o CoCu";
    case O2SiteRecVariant::kMeanNodeAggregation: return "O2-SiteRec w/o NA";
    case O2SiteRecVariant::kMeanTimeAggregation: return "O2-SiteRec w/o SA";
  }
  O2SR_CHECK(false);
  return "";
}

O2SiteRec::O2SiteRec(const sim::Dataset& data,
                     const std::vector<sim::Order>& visible_orders,
                     const O2SiteRecConfig& config)
    : config_(config), rng_(config.seed) {
  // Variant -> structural switches.
  graphs::HeteroGraphOptions graph_options = config_.graph_options;
  bool use_capacity = true;
  switch (config_.variant) {
    case O2SiteRecVariant::kFull:
      break;
    case O2SiteRecVariant::kNoCapacity:
      use_capacity = false;
      graph_options.capacity_aware_scope = false;
      break;
    case O2SiteRecVariant::kNoCapacityNoCustomer:
      use_capacity = false;
      graph_options.capacity_aware_scope = false;
      graph_options.include_customer_edges = false;
      break;
    case O2SiteRecVariant::kMeanNodeAggregation:
      config_.rec.node_attention = false;
      break;
    case O2SiteRecVariant::kMeanTimeAggregation:
      config_.rec.time_attention = false;
      break;
  }

  O2SR_TRACE_SCOPE("model.build");
  stats_ = std::make_unique<features::OrderStats>(data, visible_orders);
  geo_ = std::make_unique<graphs::GeoGraph>(data.city.grid);
  mobility_ = std::make_unique<graphs::MobilityMultiGraph>(
      *stats_, config_.mobility_min_transactions);
  hetero_ =
      std::make_unique<graphs::HeteroMultiGraph>(data, *stats_, graph_options);

  if (use_capacity) {
    capacity_model_ = std::make_unique<CourierCapacityModel>(
        *geo_, *mobility_, config_.capacity, &store_, rng_);
  }
  const int capacity_dim =
      capacity_model_ ? capacity_model_->edge_embedding_dim() : 0;
  rec_model_ = std::make_unique<HeteroRecModel>(hetero_.get(), config_.rec,
                                                capacity_dim, &store_, rng_);

  // Cache the S-U edge region pairs per period (src = store region: the
  // courier travels store -> customer).
  su_src_regions_.resize(sim::kNumPeriods);
  su_dst_regions_.resize(sim::kNumPeriods);
  for (int p = 0; p < sim::kNumPeriods; ++p) {
    for (const graphs::SuEdge& e : hetero_->Subgraph(p).su_edges) {
      su_src_regions_[p].push_back(e.s_region);
      su_dst_regions_[p].push_back(e.u_region);
    }
  }
}

std::vector<HeteroRecModel::PeriodEmbeddings> O2SiteRec::ForwardAllPeriods(
    nn::Tape& tape, Rng& dropout_rng,
    std::vector<nn::Value>* capacity_region_embs) const {
  std::vector<HeteroRecModel::PeriodEmbeddings> periods;
  periods.reserve(sim::kNumPeriods);
  for (int p = 0; p < sim::kNumPeriods; ++p) {
    nn::Value su_capacity;
    if (capacity_model_ != nullptr) {
      nn::Value region_emb = capacity_model_->RegionEmbeddings(tape, p);
      if (capacity_region_embs != nullptr) {
        (*capacity_region_embs)[p] = region_emb;
      }
      if (!su_src_regions_[p].empty()) {
        su_capacity = capacity_model_->EdgeEmbeddings(
            tape, region_emb, su_src_regions_[p], su_dst_regions_[p]);
      }
    }
    periods.push_back(rec_model_->ForwardPeriod(tape, p, su_capacity,
                                                dropout_rng));
  }
  return periods;
}

common::Status O2SiteRec::Train(const InteractionList& train,
                                const nn::TrainHooks& hooks,
                                nn::TrainReport* report) {
  if (train.empty()) {
    return common::InvalidArgumentError(
        "empty training interaction list");
  }
  std::vector<int> pair_nodes;
  std::vector<int> pair_types;
  std::vector<float> targets;
  for (const Interaction& it : train) {
    const int node = hetero_->StoreNodeOfRegion(it.region);
    if (node < 0) continue;  // region without stores cannot be trained on
    pair_nodes.push_back(node);
    pair_types.push_back(it.type);
    targets.push_back(static_cast<float>(it.target));
  }
  if (pair_nodes.empty()) {
    return common::FailedPreconditionError(
        "no training interaction falls in a region with a store node");
  }
  const nn::Tensor target_tensor = nn::Tensor::FromVector(
      static_cast<int>(targets.size()), 1, targets);

  nn::AdamOptimizer::Options opt;
  opt.learning_rate = config_.learning_rate;
  nn::AdamOptimizer adam(&store_, opt);
  Rng dropout_rng = rng_.Fork();

  const auto epoch_fn = [&](int epoch) {
    nn::Tape tape(/*training=*/true);
    std::vector<nn::Value> capacity_embs(sim::kNumPeriods);
    const auto periods = ForwardAllPeriods(tape, dropout_rng,
                                           &capacity_embs);
    nn::Value pred =
        rec_model_->PredictPairs(tape, periods, pair_nodes, pair_types);
    nn::Value loss = tape.MseLoss(pred, tape.Input(target_tensor));  // O2
    if (capacity_model_ != nullptr && config_.beta > 0.0) {
      nn::Value o1 = capacity_model_->ReconstructionLossFromEmbeddings(
          tape, capacity_embs);
      loss = tape.Add(loss, tape.Scale(o1, static_cast<float>(config_.beta)));
    }
    final_loss_ = tape.value(loss).at(0, 0);
    tape.Backward(loss);
    if (epoch % 10 == 0 || epoch + 1 == config_.epochs) {
      O2SR_LOG(DEBUG) << "[" << VariantName(config_.variant) << "] epoch "
                      << epoch << " loss " << final_loss_;
    }
    return final_loss_;
  };
  return nn::RunGuardedTraining(&store_, &adam, &dropout_rng,
                                config_.epochs, epoch_fn, config_.guard,
                                hooks, report)
      .WithContext(VariantName(config_.variant));
}

common::StatusOr<std::vector<double>> O2SiteRec::Predict(
    const InteractionList& pairs) const {
  O2SR_TRACE_SCOPE("model.predict");
  std::vector<int> pair_nodes;
  std::vector<int> pair_types;
  for (const Interaction& it : pairs) {
    const int node = hetero_->StoreNodeOfRegion(it.region);
    if (node < 0) {
      return common::InvalidArgumentError(
          std::string(VariantName(config_.variant)) +
          " cannot score pair (region=" + std::to_string(it.region) +
          ", type=" + std::to_string(it.type) +
          "): the region has no store node");
    }
    pair_nodes.push_back(node);
    pair_types.push_back(it.type);
  }
  std::vector<double> out(pairs.size(), 0.0);
  if (pair_nodes.empty()) return out;

  nn::Tape tape(/*training=*/false);
  Rng dropout_rng(0);  // unused in inference mode
  const auto periods = ForwardAllPeriods(tape, dropout_rng, nullptr);
  nn::Value pred =
      rec_model_->PredictPairs(tape, periods, pair_nodes, pair_types);
  const nn::Tensor& values = tape.value(pred);
  for (size_t k = 0; k < pairs.size(); ++k) {
    out[k] = values.at(static_cast<int>(k), 0);
  }
  return out;
}

O2SiteRec::ServingTable O2SiteRec::BuildServingTable() const {
  O2SR_TRACE_SCOPE("model.build_serving_table");
  nn::Tape tape(/*training=*/false);
  Rng dropout_rng(0);  // unused in inference mode
  const auto periods = ForwardAllPeriods(tape, dropout_rng, nullptr);
  ServingTable table;
  table.store_emb.reserve(periods.size());
  table.type_emb.reserve(periods.size());
  for (const HeteroRecModel::PeriodEmbeddings& pe : periods) {
    table.store_emb.push_back(tape.value(pe.h));
    table.type_emb.push_back(tape.value(pe.q));
  }
  return table;
}

common::StatusOr<std::vector<double>> O2SiteRec::PredictWithTable(
    const ServingTable& table, const InteractionList& pairs) const {
  O2SR_CHECK_EQ(table.store_emb.size(),
                static_cast<size_t>(sim::kNumPeriods));
  O2SR_CHECK_EQ(table.type_emb.size(), static_cast<size_t>(sim::kNumPeriods));
  std::vector<int> pair_nodes;
  std::vector<int> pair_types;
  for (const Interaction& it : pairs) {
    const int node = hetero_->StoreNodeOfRegion(it.region);
    if (node < 0) {
      return common::InvalidArgumentError(
          std::string(VariantName(config_.variant)) +
          " cannot score pair (region=" + std::to_string(it.region) +
          ", type=" + std::to_string(it.type) +
          "): the region has no store node");
    }
    pair_nodes.push_back(node);
    pair_types.push_back(it.type);
  }
  std::vector<double> out(pairs.size(), 0.0);
  if (pair_nodes.empty()) return out;

  // The cached tensors are the exact values Predict's ForwardAllPeriods
  // would produce, so feeding them back as inputs keeps the remaining
  // computation (time attention + head) bit-identical.
  nn::Tape tape(/*training=*/false);
  std::vector<HeteroRecModel::PeriodEmbeddings> periods(sim::kNumPeriods);
  for (int p = 0; p < sim::kNumPeriods; ++p) {
    periods[p].h = tape.Input(table.store_emb[p]);
    periods[p].q = tape.Input(table.type_emb[p]);
  }
  nn::Value pred =
      rec_model_->PredictPairs(tape, periods, pair_nodes, pair_types);
  const nn::Tensor& values = tape.value(pred);
  for (size_t k = 0; k < pairs.size(); ++k) {
    out[k] = values.at(static_cast<int>(k), 0);
  }
  return out;
}

double O2SiteRec::PredictDeliveryMinutes(int period, int src_region,
                                         int dst_region) const {
  O2SR_CHECK(capacity_model_ != nullptr);
  return capacity_model_->PredictDeliveryMinutes(period, src_region,
                                                 dst_region);
}

}  // namespace o2sr::core
