#include "baselines/graph_baselines.h"

#include <set>

#include "common/check.h"

namespace o2sr::baselines {

// ---- GC-MC -----------------------------------------------------------------

void GcMc::Prepare(const sim::Dataset& data,
                   const std::vector<sim::Order>& visible_orders,
                   const core::InteractionList& train) {
  index_ = std::make_unique<RegionIndex>(data);
  const features::OrderStats stats(data, visible_orders);
  if (config_.setting == FeatureSetting::kAdaption) {
    features_ = std::make_unique<PairFeatureBuilder>(data, stats,
                                                     config_.setting);
    region_features_ = features::RegionFeatureExtractor::Compute(data);
  }
  edge_s_.clear();
  edge_a_.clear();
  edge_w_.clear();
  for (const core::Interaction& it : train) {
    const int node = index_->NodeOf(it.region);
    if (node < 0) continue;
    edge_s_.push_back(node);
    edge_a_.push_back(it.type);
    edge_w_.push_back(static_cast<float>(it.target));
  }
  const int d = config_.embedding_dim;
  const int fdim =
      region_features_.empty() ? 0 : region_features_.cols();
  region_embedding_ = nn::Embedding(&store_, "gcmc.s", index_->num_nodes(),
                                    d, rng_);
  type_embedding_ = nn::Embedding(&store_, "gcmc.a", data.num_types(), d,
                                  rng_);
  conv_s_ = nn::Linear(&store_, "gcmc.conv_s", 2 * d + fdim, d, rng_);
  conv_a_ = nn::Linear(&store_, "gcmc.conv_a", 2 * d, d, rng_);
  const int dec_extra = features_ ? features_->dim() : 0;
  decoder_ = nn::Mlp(&store_, "gcmc.dec", {2 * d + dec_extra, d, 1}, rng_,
                     nn::Activation::kRelu, nn::Activation::kSigmoid);
}

nn::Value GcMc::BuildPredictions(nn::Tape& tape,
                                 const core::InteractionList& pairs,
                                 Rng& dropout_rng) const {
  const int S = index_->num_nodes();
  const int A = type_embedding_.num_entities();
  nn::Value s0 = region_embedding_.Full(tape);
  nn::Value a0 = type_embedding_.Full(tape);

  // One weighted graph-convolution layer per side: messages scaled by the
  // observed (normalized) interaction strength.
  nn::Value w = tape.Input(nn::Tensor::FromVector(
      static_cast<int>(edge_w_.size()), 1, edge_w_));
  nn::Value msg_to_s = tape.SegmentMean(
      tape.MulColBroadcast(tape.GatherRows(a0, edge_a_), w), edge_s_, S);
  nn::Value msg_to_a = tape.SegmentMean(
      tape.MulColBroadcast(tape.GatherRows(s0, edge_s_), w), edge_a_, A);
  std::vector<nn::Value> s_in = {s0, msg_to_s};
  if (!region_features_.empty()) {
    nn::Tensor node_features(S, region_features_.cols());
    for (int i = 0; i < S; ++i) {
      const int r = index_->regions()[i];
      std::copy(region_features_.row(r),
                region_features_.row(r) + region_features_.cols(),
                node_features.row(i));
    }
    s_in.push_back(tape.Input(std::move(node_features)));
  }
  nn::Value h_s = tape.Dropout(
      tape.Relu(conv_s_.Apply(tape, tape.ConcatCols(s_in))),
      config_.dropout, dropout_rng);
  nn::Value h_a = tape.Relu(conv_a_.Apply(tape, tape.ConcatCols({a0,
                                                                 msg_to_a})));

  std::vector<int> s_idx, a_idx;
  for (const core::Interaction& it : pairs) {
    const int node = index_->NodeOf(it.region);
    s_idx.push_back(node < 0 ? 0 : node);
    a_idx.push_back(it.type);
  }
  std::vector<nn::Value> dec_in = {tape.GatherRows(h_s, s_idx),
                                   tape.GatherRows(h_a, a_idx)};
  if (features_ != nullptr) {
    dec_in.push_back(tape.Input(features_->Build(pairs)));
  }
  return decoder_.Apply(tape, tape.ConcatCols(dec_in));
}

// ---- GraphRec ----------------------------------------------------------------

void GraphRec::Prepare(const sim::Dataset& data,
                       const std::vector<sim::Order>& visible_orders,
                       const core::InteractionList& /*train*/) {
  const features::OrderStats stats(data, visible_orders);
  graph_ = std::make_unique<graphs::HeteroMultiGraph>(data, stats);
  if (config_.setting == FeatureSetting::kAdaption) {
    features_ = std::make_unique<PairFeatureBuilder>(data, stats,
                                                     config_.setting);
  }
  // Union of per-period edge sets: GraphRec has no notion of time.
  std::set<std::pair<int, int>> su_seen, ua_seen;
  su_src_u_.clear();
  su_dst_s_.clear();
  ua_src_a_.clear();
  ua_dst_u_.clear();
  for (int p = 0; p < sim::kNumPeriods; ++p) {
    for (const graphs::SuEdge& e : graph_->Subgraph(p).su_edges) {
      if (su_seen.insert({e.s, e.u}).second) {
        su_src_u_.push_back(e.u);
        su_dst_s_.push_back(e.s);
      }
    }
    for (const graphs::UaEdge& e : graph_->Subgraph(p).ua_edges) {
      if (ua_seen.insert({e.u, e.a}).second) {
        ua_src_a_.push_back(e.a);
        ua_dst_u_.push_back(e.u);
      }
    }
  }
  const int d = config_.embedding_dim;
  store_embedding_ = nn::Embedding(&store_, "grec.s",
                                   graph_->num_store_nodes(), d, rng_);
  customer_embedding_ = nn::Embedding(&store_, "grec.u",
                                      graph_->num_customer_nodes(), d, rng_);
  type_embedding_ = nn::Embedding(&store_, "grec.a", graph_->num_types(), d,
                                  rng_);
  customer_agg_ = nn::Linear(&store_, "grec.uagg", 2 * d, d, rng_);
  attention_ = nn::Linear(&store_, "grec.att", 2 * d, 1, rng_);
  store_agg_ = nn::Linear(&store_, "grec.sagg", 2 * d, d, rng_);
  const int dec_extra = features_ ? features_->dim() : 0;
  decoder_ = nn::Mlp(&store_, "grec.dec", {2 * d + dec_extra, d, 1}, rng_,
                     nn::Activation::kRelu, nn::Activation::kSigmoid);
}

nn::Value GraphRec::BuildPredictions(nn::Tape& tape,
                                     const core::InteractionList& pairs,
                                     Rng& dropout_rng) const {
  const int S = graph_->num_store_nodes();
  const int U = graph_->num_customer_nodes();
  nn::Value s0 = store_embedding_.Full(tape);
  nn::Value u0 = customer_embedding_.Full(tape);
  nn::Value a0 = type_embedding_.Full(tape);

  // Customer modeling: aggregate the types each customer-region orders.
  nn::Value ua_msg = tape.SegmentMean(tape.GatherRows(a0, ua_src_a_),
                                      ua_dst_u_, U);
  nn::Value z_u = tape.Dropout(
      tape.Relu(customer_agg_.Apply(tape, tape.ConcatCols({u0, ua_msg}))),
      config_.dropout, dropout_rng);

  // Store-region modeling with single-head attention over its customers
  // (GraphRec's opinion aggregation).
  nn::Value h_s;
  if (su_src_u_.empty()) {
    h_s = tape.Relu(store_agg_.Apply(tape, tape.ConcatCols({s0, s0})));
  } else {
    nn::Value z_per_edge = tape.GatherRows(z_u, su_src_u_);
    nn::Value s_per_edge = tape.GatherRows(s0, su_dst_s_);
    nn::Value score = tape.LeakyRelu(attention_.Apply(
        tape, tape.ConcatCols({z_per_edge, s_per_edge})));
    nn::Value alpha = tape.SegmentSoftmax(score, su_dst_s_, S);
    nn::Value opinions =
        tape.WeightedSegmentSum(z_per_edge, alpha, su_dst_s_, S);
    h_s = tape.Relu(store_agg_.Apply(tape, tape.ConcatCols({s0, opinions})));
  }
  h_s = tape.Dropout(h_s, config_.dropout, dropout_rng);

  std::vector<int> s_idx, a_idx;
  for (const core::Interaction& it : pairs) {
    const int node = graph_->StoreNodeOfRegion(it.region);
    s_idx.push_back(node < 0 ? 0 : node);
    a_idx.push_back(it.type);
  }
  std::vector<nn::Value> dec_in = {tape.GatherRows(h_s, s_idx),
                                   tape.GatherRows(a0, a_idx)};
  if (features_ != nullptr) {
    dec_in.push_back(tape.Input(features_->Build(pairs)));
  }
  return decoder_.Apply(tape, tape.ConcatCols(dec_in));
}

}  // namespace o2sr::baselines
