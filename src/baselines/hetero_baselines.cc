#include "baselines/hetero_baselines.h"

#include <cmath>
#include <set>

#include "common/check.h"
#include "features/region_features.h"

namespace o2sr::baselines {

void HeteroGraphBaseline::Prepare(const sim::Dataset& data,
                                  const std::vector<sim::Order>& visible_orders,
                                  const core::InteractionList& /*train*/) {
  const features::OrderStats stats(data, visible_orders);
  graph_ = std::make_unique<graphs::HeteroMultiGraph>(data, stats);
  if (config_.setting == FeatureSetting::kAdaption) {
    features_ = std::make_unique<PairFeatureBuilder>(data, stats,
                                                     config_.setting);
  }
  // Union of edges across periods: these baselines have no time dimension.
  std::set<std::pair<int, int>> su_seen, ua_seen;
  su_u_.clear();
  su_s_.clear();
  ua_a_.clear();
  ua_u_.clear();
  sa_a_.clear();
  sa_s_.clear();
  for (int p = 0; p < sim::kNumPeriods; ++p) {
    for (const graphs::SuEdge& e : graph_->Subgraph(p).su_edges) {
      if (su_seen.insert({e.s, e.u}).second) {
        su_u_.push_back(e.u);
        su_s_.push_back(e.s);
      }
    }
    for (const graphs::UaEdge& e : graph_->Subgraph(p).ua_edges) {
      if (ua_seen.insert({e.u, e.a}).second) {
        ua_a_.push_back(e.a);
        ua_u_.push_back(e.u);
      }
    }
  }
  for (const graphs::SaEdge& e : graph_->sa_edges()) {
    sa_a_.push_back(e.a);
    sa_s_.push_back(e.s);
  }

  const int d = config_.embedding_dim;
  store_embedding_ = nn::Embedding(&store_, "hb.s",
                                   graph_->num_store_nodes(), d, rng_);
  customer_embedding_ = nn::Embedding(&store_, "hb.u",
                                      graph_->num_customer_nodes(), d, rng_);
  type_embedding_ = nn::Embedding(&store_, "hb.a", graph_->num_types(), d,
                                  rng_);
  if (config_.setting == FeatureSetting::kAdaption) {
    const int fdim = graph_->store_features().cols();
    store_fuse_ = nn::Linear(&store_, "hb.sfuse", d + fdim, d, rng_);
    customer_fuse_ = nn::Linear(&store_, "hb.ufuse", d + fdim, d, rng_);
  }
  const int dec_extra = features_ ? features_->dim() : 0;
  decoder_ = nn::Mlp(&store_, "hb.dec", {2 * d + dec_extra, d, 1}, rng_,
                     nn::Activation::kRelu, nn::Activation::kSigmoid);
  CreateParameters(data);
}

nn::Value HeteroGraphBaseline::StoreInput(nn::Tape& tape) const {
  nn::Value s0 = store_embedding_.Full(tape);
  if (config_.setting != FeatureSetting::kAdaption) return s0;
  return tape.Relu(store_fuse_.Apply(
      tape, tape.ConcatCols({s0, tape.Input(graph_->store_features())})));
}

nn::Value HeteroGraphBaseline::CustomerInput(nn::Tape& tape) const {
  nn::Value u0 = customer_embedding_.Full(tape);
  if (config_.setting != FeatureSetting::kAdaption) return u0;
  return tape.Relu(customer_fuse_.Apply(
      tape, tape.ConcatCols({u0, tape.Input(graph_->customer_features())})));
}

namespace {

// Gathers decoder inputs for (region, type) pairs and applies the decoder.
nn::Value Decode(nn::Tape& tape, const graphs::HeteroMultiGraph& graph,
                 const nn::Mlp& decoder, const PairFeatureBuilder* features,
                 nn::Value h_s, nn::Value h_a,
                 const core::InteractionList& pairs) {
  std::vector<int> s_idx, a_idx;
  for (const core::Interaction& it : pairs) {
    const int node = graph.StoreNodeOfRegion(it.region);
    s_idx.push_back(node < 0 ? 0 : node);
    a_idx.push_back(it.type);
  }
  std::vector<nn::Value> dec_in = {tape.GatherRows(h_s, s_idx),
                                   tape.GatherRows(h_a, a_idx)};
  if (features != nullptr) {
    dec_in.push_back(tape.Input(features->Build(pairs)));
  }
  return decoder.Apply(tape, tape.ConcatCols(dec_in));
}

}  // namespace

// ---- RGCN --------------------------------------------------------------------

void Rgcn::CreateParameters(const sim::Dataset& /*data*/) {
  const int d = config_.embedding_dim;
  layers_.clear();
  for (int l = 0; l < 2; ++l) {
    const std::string p = "rgcn.l" + std::to_string(l);
    Layer layer;
    layer.w_su = nn::Linear(&store_, p + ".su", d, d, rng_);
    layer.w_sa = nn::Linear(&store_, p + ".sa", d, d, rng_);
    layer.w_ua = nn::Linear(&store_, p + ".ua", d, d, rng_);
    layer.w_as = nn::Linear(&store_, p + ".as", d, d, rng_);
    layer.self_s = nn::Linear(&store_, p + ".self_s", d, d, rng_);
    layer.self_u = nn::Linear(&store_, p + ".self_u", d, d, rng_);
    layer.self_a = nn::Linear(&store_, p + ".self_a", d, d, rng_);
    layers_.push_back(std::move(layer));
  }
}

nn::Value Rgcn::BuildPredictions(nn::Tape& tape,
                                 const core::InteractionList& pairs,
                                 Rng& dropout_rng) const {
  const int S = graph_->num_store_nodes();
  const int U = graph_->num_customer_nodes();
  const int A = graph_->num_types();
  nn::Value h = StoreInput(tape);
  nn::Value z = CustomerInput(tape);
  nn::Value q = type_embedding_.Full(tape);

  for (const Layer& layer : layers_) {
    // h_dst^{l+1} = ReLU(W_self h_dst + sum_rel W_rel mean(neighbors)).
    nn::Value su = tape.SegmentMean(tape.GatherRows(z, su_u_), su_s_, S);
    nn::Value sa = tape.SegmentMean(tape.GatherRows(q, sa_a_), sa_s_, S);
    nn::Value ua = tape.SegmentMean(tape.GatherRows(q, ua_a_), ua_u_, U);
    nn::Value as = tape.SegmentMean(tape.GatherRows(h, sa_s_), sa_a_, A);
    nn::Value h_next = tape.Relu(
        tape.AddN({layer.self_s.Apply(tape, h), layer.w_su.Apply(tape, su),
                   layer.w_sa.Apply(tape, sa)}));
    nn::Value z_next = tape.Relu(tape.Add(layer.self_u.Apply(tape, z),
                                          layer.w_ua.Apply(tape, ua)));
    nn::Value q_next = tape.Relu(tape.Add(layer.self_a.Apply(tape, q),
                                          layer.w_as.Apply(tape, as)));
    h = tape.Dropout(h_next, config_.dropout, dropout_rng);
    z = tape.Dropout(z_next, config_.dropout, dropout_rng);
    q = q_next;
  }
  return Decode(tape, *graph_, decoder_, features_.get(), h, q, pairs);
}

// ---- HGT ---------------------------------------------------------------------

Hgt::Relation Hgt::MakeRelation(const std::string& name, Rng& rng) {
  const int d = config_.embedding_dim;
  const int heads = 4;
  const int dk = d / heads;
  Relation rel;
  for (int i = 0; i < heads; ++i) {
    const std::string h = name + ".h" + std::to_string(i);
    rel.w_key.emplace_back(&store_, h + ".k", d, dk, rng, false);
    rel.w_query.emplace_back(&store_, h + ".q", d, dk, rng, false);
    rel.w_value.emplace_back(&store_, h + ".v", d, dk, rng, false);
  }
  rel.w_edge = store_.CreateXavier(name + ".we", dk, dk, rng);
  return rel;
}

void Hgt::CreateParameters(const sim::Dataset& /*data*/) {
  const int d = config_.embedding_dim;
  O2SR_CHECK_EQ(d % 4, 0);
  layers_.clear();
  for (int l = 0; l < 2; ++l) {
    const std::string p = "hgt.l" + std::to_string(l);
    Layer layer;
    layer.su = MakeRelation(p + ".su", rng_);
    layer.sa = MakeRelation(p + ".sa", rng_);
    layer.ua = MakeRelation(p + ".ua", rng_);
    layer.as = MakeRelation(p + ".as", rng_);
    layer.out_s = nn::Linear(&store_, p + ".out_s", d, d, rng_);
    layer.out_u = nn::Linear(&store_, p + ".out_u", d, d, rng_);
    layer.out_a = nn::Linear(&store_, p + ".out_a", d, d, rng_);
    layers_.push_back(std::move(layer));
  }
}

nn::Value Hgt::Attend(nn::Tape& tape, const Relation& rel, nn::Value src_emb,
                      nn::Value dst_emb, const std::vector<int>& src_idx,
                      const std::vector<int>& dst_idx, int num_dst) const {
  const int d = config_.embedding_dim;
  if (src_idx.empty()) return tape.Input(nn::Tensor(num_dst, d));
  nn::Value src_rows = tape.GatherRows(src_emb, src_idx);
  nn::Value dst_rows = tape.GatherRows(dst_emb, dst_idx);
  const int heads = static_cast<int>(rel.w_key.size());
  const int dk = d / heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
  std::vector<nn::Value> outs;
  for (int i = 0; i < heads; ++i) {
    nn::Value key = rel.w_key[i].Apply(tape, src_rows);
    nn::Value query = rel.w_query[i].Apply(tape, dst_rows);
    nn::Value value = rel.w_value[i].Apply(tape, src_rows);
    nn::Value score = tape.Scale(
        tape.RowwiseDot(tape.MatMul(key, tape.Param(rel.w_edge)), query),
        scale);
    nn::Value alpha = tape.SegmentSoftmax(score, dst_idx, num_dst);
    outs.push_back(tape.WeightedSegmentSum(value, alpha, dst_idx, num_dst));
  }
  return tape.ConcatCols(outs);
}

nn::Value Hgt::BuildPredictions(nn::Tape& tape,
                                const core::InteractionList& pairs,
                                Rng& dropout_rng) const {
  const int S = graph_->num_store_nodes();
  const int U = graph_->num_customer_nodes();
  const int A = graph_->num_types();
  nn::Value h = StoreInput(tape);
  nn::Value z = CustomerInput(tape);
  nn::Value q = type_embedding_.Full(tape);

  for (const Layer& layer : layers_) {
    nn::Value su = Attend(tape, layer.su, z, h, su_u_, su_s_, S);
    nn::Value sa = Attend(tape, layer.sa, q, h, sa_a_, sa_s_, S);
    nn::Value ua = Attend(tape, layer.ua, q, z, ua_a_, ua_u_, U);
    nn::Value as = Attend(tape, layer.as, h, q, sa_s_, sa_a_, A);
    // Target-specific aggregation + residual (HGT's update step).
    nn::Value h_next = tape.Relu(
        tape.Add(layer.out_s.Apply(tape, tape.Add(su, sa)), h));
    nn::Value z_next = tape.Relu(tape.Add(layer.out_u.Apply(tape, ua), z));
    nn::Value q_next = tape.Relu(tape.Add(layer.out_a.Apply(tape, as), q));
    h = tape.Dropout(h_next, config_.dropout, dropout_rng);
    z = tape.Dropout(z_next, config_.dropout, dropout_rng);
    q = q_next;
  }
  return Decode(tape, *graph_, decoder_, features_.get(), h, q, pairs);
}

}  // namespace o2sr::baselines
