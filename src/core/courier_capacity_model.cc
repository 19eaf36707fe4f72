#include "core/courier_capacity_model.h"

#include <cmath>

#include "common/check.h"

namespace o2sr::core {

CourierCapacityModel::CourierCapacityModel(
    const graphs::GeoGraph& geo_graph,
    const graphs::MobilityMultiGraph& mobility_graph,
    const CourierCapacityConfig& config, nn::ParameterStore* store, Rng& rng)
    : config_(config),
      num_regions_(geo_graph.num_regions()),
      max_delivery_minutes_(
          std::max(mobility_graph.max_delivery_minutes(), 1.0)) {
  O2SR_CHECK_EQ(geo_graph.num_regions(), mobility_graph.num_regions());
  const int d1 = config_.embedding_dim;

  // Precompute the fixed geographic attention weights (Eq. 2, with the sign
  // fix): alpha(i, j) = softmax_j(-dis(i, j) / scale) over j in N_i^geo.
  for (int i = 0; i < num_regions_; ++i) {
    const auto& neighbors = geo_graph.Neighbors(i);
    const auto& distances = geo_graph.Distances(i);
    if (neighbors.empty()) continue;
    double max_logit = -1e30;
    std::vector<double> logits(neighbors.size());
    for (size_t k = 0; k < neighbors.size(); ++k) {
      logits[k] = -distances[k] / config_.geo_distance_scale_m;
      max_logit = std::max(max_logit, logits[k]);
    }
    double sum = 0.0;
    for (double& l : logits) {
      l = std::exp(l - max_logit);
      sum += l;
    }
    for (size_t k = 0; k < neighbors.size(); ++k) {
      geo_src_.push_back(neighbors[k]);
      geo_dst_.push_back(i);
      geo_weight_.push_back(static_cast<float>(logits[k] / sum));
    }
  }

  // Mobility edges per period: symmetrize for aggregation (a delivery from
  // i to j makes the capacities of both regions related) and keep the
  // directed observations for the reconstruction loss.
  period_edges_.resize(sim::kNumPeriods);
  for (int p = 0; p < sim::kNumPeriods; ++p) {
    PeriodEdges& pe = period_edges_[p];
    for (const graphs::MobilityEdge& e : mobility_graph.EdgesInPeriod(p)) {
      pe.obs_src.push_back(e.src);
      pe.obs_dst.push_back(e.dst);
      pe.obs_delivery_norm.push_back(
          static_cast<float>(e.delivery_minutes / max_delivery_minutes_));
      pe.src.push_back(e.src);
      pe.dst.push_back(e.dst);
      if (e.src != e.dst) {
        pe.src.push_back(e.dst);
        pe.dst.push_back(e.src);
      }
    }
  }

  region_embedding_ = nn::Embedding(store, "capacity.region", num_regions_,
                                    d1, rng);
  attention_ = nn::Linear(store, "capacity.psi", 2 * d1, 1, rng,
                          /*with_bias=*/false);
  combine_ = nn::Linear(store, "capacity.Wb", 2 * d1, d1, rng);
  delivery_mlp_ = nn::Linear(store, "capacity.W1", 2 * d1, 1, rng);
}

nn::Value CourierCapacityModel::GeoAggregate(nn::Tape& tape,
                                             nn::Value b) const {
  // b_g^l = sigma(sum_j alpha_geo(i,j) b_g^{l-1}[j]) + b_g^{l-1} (Eq. 3).
  nn::Value messages = tape.GatherRows(b, geo_src_);
  nn::Value weights = tape.Input(nn::Tensor::FromVector(
      static_cast<int>(geo_weight_.size()), 1, geo_weight_));
  nn::Value aggregated =
      tape.WeightedSegmentSum(messages, weights, geo_dst_, num_regions_);
  return tape.Add(tape.Relu(aggregated), b);
}

nn::Value CourierCapacityModel::MobilityAggregate(nn::Tape& tape,
                                                  nn::Value b0,
                                                  int period) const {
  const PeriodEdges& pe = period_edges_[period];
  if (pe.src.empty()) return b0;  // no mobility this period: residual only
  // alpha_mob(i,j) = softmax(sigma(psi^T [b_i^0, b_j^0])) (Eq. 4); GAT uses
  // LeakyReLU as the score nonlinearity.
  nn::Value b_dst = tape.GatherRows(b0, pe.dst);
  nn::Value b_src = tape.GatherRows(b0, pe.src);
  nn::Value scores = tape.LeakyRelu(
      attention_.Apply(tape, tape.ConcatCols({b_dst, b_src})));
  nn::Value alpha = tape.SegmentSoftmax(scores, pe.dst, num_regions_);
  nn::Value aggregated =
      tape.WeightedSegmentSum(b_src, alpha, pe.dst, num_regions_);
  return tape.Add(tape.Relu(aggregated), b0);
}

nn::Value CourierCapacityModel::RegionEmbeddings(nn::Tape& tape,
                                                 int period) const {
  O2SR_CHECK(period >= 0 && period < sim::kNumPeriods);
  nn::Value b0 = region_embedding_.Full(tape);
  nn::Value b_geo = b0;
  for (int l = 0; l < config_.geo_layers; ++l) {
    b_geo = GeoAggregate(tape, b_geo);
  }
  nn::Value b_mob = MobilityAggregate(tape, b0, period);
  // b_i = sigma(W_b [b_g^l, b_s,i]) (Eq. 5).
  return tape.Relu(
      combine_.Apply(tape, tape.ConcatCols({b_geo, b_mob})));
}

nn::Value CourierCapacityModel::EdgeEmbeddings(
    nn::Tape& tape, nn::Value region_emb, const std::vector<int>& src_regions,
    const std::vector<int>& dst_regions) const {
  O2SR_CHECK_EQ(src_regions.size(), dst_regions.size());
  // em^c_{i,j} = [b_j, b_i] with i = src, j = dst.
  nn::Value b_j = tape.GatherRows(region_emb, dst_regions);
  nn::Value b_i = tape.GatherRows(region_emb, src_regions);
  return tape.ConcatCols({b_j, b_i});
}

nn::Value CourierCapacityModel::PredictDeliveryNorm(nn::Tape& tape,
                                                    nn::Value edge_emb) const {
  return tape.Sigmoid(delivery_mlp_.Apply(tape, edge_emb));
}

nn::Value CourierCapacityModel::ReconstructionLoss(nn::Tape& tape,
                                                   int period) const {
  std::vector<nn::Value> region_embs(sim::kNumPeriods);
  const int first = period < 0 ? 0 : period;
  const int last = period < 0 ? sim::kNumPeriods - 1 : period;
  std::vector<nn::Value> losses;
  for (int p = first; p <= last; ++p) {
    const PeriodEdges& pe = period_edges_[p];
    if (pe.obs_src.empty()) continue;
    nn::Value region_emb = RegionEmbeddings(tape, p);
    losses.push_back(PeriodLoss(tape, p, region_emb));
  }
  O2SR_CHECK(!losses.empty());
  nn::Value total = tape.AddN(losses);
  return tape.Scale(total, 1.0f / static_cast<float>(losses.size()));
}

nn::Value CourierCapacityModel::ReconstructionLossFromEmbeddings(
    nn::Tape& tape, const std::vector<nn::Value>& region_embs) const {
  O2SR_CHECK_EQ(region_embs.size(), static_cast<size_t>(sim::kNumPeriods));
  std::vector<nn::Value> losses;
  for (int p = 0; p < sim::kNumPeriods; ++p) {
    if (period_edges_[p].obs_src.empty()) continue;
    losses.push_back(PeriodLoss(tape, p, region_embs[p]));
  }
  O2SR_CHECK(!losses.empty());
  nn::Value total = tape.AddN(losses);
  return tape.Scale(total, 1.0f / static_cast<float>(losses.size()));
}

nn::Value CourierCapacityModel::PeriodLoss(nn::Tape& tape, int period,
                                           nn::Value region_emb) const {
  const PeriodEdges& pe = period_edges_[period];
  nn::Value edge_emb =
      EdgeEmbeddings(tape, region_emb, pe.obs_src, pe.obs_dst);
  nn::Value pred = PredictDeliveryNorm(tape, edge_emb);
  nn::Value target = tape.Input(nn::Tensor::FromVector(
      static_cast<int>(pe.obs_delivery_norm.size()), 1,
      pe.obs_delivery_norm));
  return tape.MaeLoss(pred, target);
}

double CourierCapacityModel::PredictDeliveryMinutes(int period,
                                                    int src_region,
                                                    int dst_region) const {
  nn::Tape tape(/*training=*/false);
  nn::Value region_emb = RegionEmbeddings(tape, period);
  nn::Value edge_emb =
      EdgeEmbeddings(tape, region_emb, {src_region}, {dst_region});
  nn::Value pred = PredictDeliveryNorm(tape, edge_emb);
  return tape.value(pred).at(0, 0) * max_delivery_minutes_;
}

}  // namespace o2sr::core
