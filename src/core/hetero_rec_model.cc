#include "core/hetero_rec_model.h"

#include <cmath>

#include "common/check.h"

namespace o2sr::core {

namespace {

// Packs per-edge attribute columns into a tensor: columns[k][e].
nn::Tensor PackAttrs(const std::vector<std::vector<float>>& columns) {
  const int cols = static_cast<int>(columns.size());
  const int rows = cols > 0 ? static_cast<int>(columns[0].size()) : 0;
  nn::Tensor out(rows, cols);
  for (int c = 0; c < cols; ++c) {
    for (int r = 0; r < rows; ++r) out.at(r, c) = columns[c][r];
  }
  return out;
}

}  // namespace

HeteroRecModel::RelationAttention HeteroRecModel::MakeRelation(
    const std::string& name, int attr_dim, nn::ParameterStore* store,
    Rng& rng) {
  const int d2 = config_.embedding_dim;
  const int dk = d2 / config_.node_heads;
  RelationAttention rel;
  rel.fuse = nn::Linear(store, name + ".fuse", d2 + attr_dim, d2, rng);
  for (int i = 0; i < config_.node_heads; ++i) {
    rel.w_key.emplace_back(store, name + ".k" + std::to_string(i), d2, dk,
                           rng, /*with_bias=*/false);
    rel.w_query.emplace_back(store, name + ".q" + std::to_string(i), d2, dk,
                             rng, /*with_bias=*/false);
  }
  rel.w_edge = store->CreateXavier(name + ".We", dk, dk, rng);
  return rel;
}

HeteroRecModel::HeteroRecModel(const graphs::HeteroMultiGraph* graph,
                               const HeteroRecConfig& config,
                               int capacity_edge_dim,
                               nn::ParameterStore* store, Rng& rng)
    : config_(config), graph_(graph), capacity_edge_dim_(capacity_edge_dim) {
  O2SR_CHECK(graph != nullptr);
  O2SR_CHECK(store != nullptr);
  const int d2 = config_.embedding_dim;
  O2SR_CHECK_GT(d2, 0);
  O2SR_CHECK_EQ(d2 % config_.node_heads, 0);
  O2SR_CHECK_EQ((2 * d2) % config_.time_heads, 0);

  const int fdim = graph->store_features().cols();
  // phi_su,t = [distance, transactions] plus the fused courier-capacity
  // edge embedding em^c (paper §III-E step 2).
  su_attr_dim_ = 2 + capacity_edge_dim_;

  store_embedding_ = nn::Embedding(store, "rec.h", graph->num_store_nodes(),
                                   d2, rng);
  customer_embedding_ = nn::Embedding(store, "rec.z",
                                      graph->num_customer_nodes(), d2, rng);
  type_embedding_ = nn::Embedding(store, "rec.q", graph->num_types(), d2,
                                  rng);
  store_fuse_ = nn::Linear(store, "rec.Ws_fuse", d2 + fdim, d2, rng);
  customer_fuse_ = nn::Linear(store, "rec.Wu_fuse", d2 + fdim, d2, rng);

  for (int l = 0; l < config_.layers; ++l) {
    const std::string prefix = "rec.l" + std::to_string(l);
    Layer layer;
    layer.su = MakeRelation(prefix + ".su", su_attr_dim_, store, rng);
    layer.sa = MakeRelation(prefix + ".sa", 3, store, rng);
    layer.ua = MakeRelation(prefix + ".ua", 1, store, rng);
    layer.as = MakeRelation(prefix + ".as", 3, store, rng);
    layer.w_s = nn::Linear(store, prefix + ".Ws", d2, d2, rng);
    layer.w_u = nn::Linear(store, prefix + ".Wu", d2, d2, rng);
    layer.w_a = nn::Linear(store, prefix + ".Wa", d2, d2, rng);
    layers_.push_back(std::move(layer));
  }

  const int dk2 = 2 * d2 / config_.time_heads;
  for (int i = 0; i < config_.time_heads; ++i) {
    time_key_.emplace_back(store, "rec.time.k" + std::to_string(i), 2 * d2,
                           dk2, rng, /*with_bias=*/false);
    time_query_.emplace_back(store, "rec.time.q" + std::to_string(i), 2 * d2,
                             dk2, rng, /*with_bias=*/false);
  }
  predict_ = nn::Linear(store, "rec.W2", 2 * d2, 1, rng);
}

nn::Value HeteroRecModel::Aggregate(nn::Tape& tape,
                                    const RelationAttention& rel,
                                    nn::Value src_emb, nn::Value dst_emb,
                                    const std::vector<int>& src_idx,
                                    const std::vector<int>& dst_idx,
                                    nn::Value attrs, int num_dst) const {
  O2SR_CHECK_EQ(src_idx.size(), dst_idx.size());
  const int d2 = config_.embedding_dim;
  if (src_idx.empty()) {
    // No edges: contribute nothing.
    return tape.Input(nn::Tensor(num_dst, d2));
  }
  nn::Value src_rows = tape.GatherRows(src_emb, src_idx);

  if (!config_.node_attention) {
    // w/o NA ablation: plain mean aggregation of source embeddings.
    return tape.SegmentMean(src_rows, dst_idx, num_dst);
  }

  // Fused message: sigma(W [z_u, phi]) (Eq. 10).
  nn::Value fused = attrs.valid()
                        ? tape.ConcatCols({src_rows, attrs})
                        : src_rows;
  fused = tape.Relu(rel.fuse.Apply(tape, fused));

  nn::Value dst_rows = tape.GatherRows(dst_emb, dst_idx);
  const int dk = d2 / config_.node_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dk));
  std::vector<nn::Value> heads;
  heads.reserve(config_.node_heads);
  for (int i = 0; i < config_.node_heads; ++i) {
    nn::Value key = rel.w_key[i].Apply(tape, fused);          // K^i (Eq. 10)
    nn::Value query = rel.w_query[i].Apply(tape, dst_rows);   // Q^i
    // alpha^i = softmax(sigma(K^i W_e Q^i^T)) (Eq. 11), per destination.
    nn::Value key_we = tape.MatMul(key, tape.Param(rel.w_edge));
    nn::Value scores =
        tape.Scale(tape.LeakyRelu(tape.RowwiseDot(key_we, query)), scale);
    nn::Value alpha = tape.SegmentSoftmax(scores, dst_idx, num_dst);
    // sigma(sum K^i alpha) per destination (Eq. 12).
    heads.push_back(
        tape.Relu(tape.WeightedSegmentSum(key, alpha, dst_idx, num_dst)));
  }
  return tape.ConcatCols(heads);
}

HeteroRecModel::PeriodEmbeddings HeteroRecModel::ForwardPeriod(
    nn::Tape& tape, int period, nn::Value su_capacity_emb,
    Rng& dropout_rng) const {
  const graphs::HeteroSubgraph& sub = graph_->Subgraph(period);
  const int num_s = graph_->num_store_nodes();
  const int num_u = graph_->num_customer_nodes();
  const int num_a = graph_->num_types();

  // ---- Node attribute fusion (Eq. in §III-E step 1) -----------------------
  nn::Value h = tape.Relu(store_fuse_.Apply(
      tape, tape.ConcatCols({store_embedding_.Full(tape),
                             tape.Input(graph_->store_features())})));
  nn::Value z = tape.Relu(customer_fuse_.Apply(
      tape, tape.ConcatCols({customer_embedding_.Full(tape),
                             tape.Input(graph_->customer_features())})));
  nn::Value q = type_embedding_.Full(tape);
  h = tape.Dropout(h, config_.dropout, dropout_rng);
  z = tape.Dropout(z, config_.dropout, dropout_rng);

  // ---- Edge index/attribute tensors ---------------------------------------
  std::vector<int> su_src, su_dst;
  std::vector<std::vector<float>> su_cols(2);
  for (const graphs::SuEdge& e : sub.su_edges) {
    su_src.push_back(e.u);
    su_dst.push_back(e.s);
    su_cols[0].push_back(e.distance_norm);
    su_cols[1].push_back(e.transactions_norm);
  }
  nn::Value su_attrs;
  if (!sub.su_edges.empty()) {
    su_attrs = tape.Input(PackAttrs(su_cols));
    if (capacity_edge_dim_ > 0) {
      // Edge attribute fusion phi' = [phi, em^c] (§III-E step 2).
      O2SR_CHECK(su_capacity_emb.valid());
      O2SR_CHECK_EQ(tape.rows(su_capacity_emb),
                    static_cast<int>(sub.su_edges.size()));
      su_attrs = tape.ConcatCols({su_attrs, su_capacity_emb});
    }
  }

  std::vector<int> sa_src_a, sa_dst_s;
  std::vector<std::vector<float>> sa_cols(3);
  for (const graphs::SaEdge& e : graph_->sa_edges()) {
    sa_src_a.push_back(e.a);
    sa_dst_s.push_back(e.s);
    sa_cols[0].push_back(e.competitiveness);
    sa_cols[1].push_back(e.complementarity);
    sa_cols[2].push_back(e.orders_norm);
  }
  nn::Value sa_attrs = sa_src_a.empty() ? nn::Value{}
                                        : tape.Input(PackAttrs(sa_cols));

  std::vector<int> ua_src_a, ua_dst_u;
  std::vector<std::vector<float>> ua_cols(1);
  for (const graphs::UaEdge& e : sub.ua_edges) {
    ua_src_a.push_back(e.a);
    ua_dst_u.push_back(e.u);
    ua_cols[0].push_back(e.transactions_norm);
  }
  nn::Value ua_attrs = ua_src_a.empty() ? nn::Value{}
                                        : tape.Input(PackAttrs(ua_cols));

  // ---- Node-level aggregation, `layers` rounds (Eq. 7-9) ------------------
  for (const Layer& layer : layers_) {
    nn::Value aggre_su = Aggregate(tape, layer.su, z, h, su_src, su_dst,
                                   su_attrs, num_s);
    nn::Value aggre_sa = Aggregate(tape, layer.sa, q, h, sa_src_a, sa_dst_s,
                                   sa_attrs, num_s);
    nn::Value aggre_ua = Aggregate(tape, layer.ua, q, z, ua_src_a, ua_dst_u,
                                   ua_attrs, num_u);
    nn::Value aggre_as = Aggregate(tape, layer.as, h, q, sa_dst_s, sa_src_a,
                                   sa_attrs, num_a);
    // h^l = sigma(W_S^l(Aggre_SU + Aggre_SA + h^{l-1})) (Eq. 7), etc.
    nn::Value h_next = tape.Relu(
        layer.w_s.Apply(tape, tape.AddN({aggre_su, aggre_sa, h})));
    nn::Value z_next =
        tape.Relu(layer.w_u.Apply(tape, tape.AddN({aggre_ua, z})));
    nn::Value q_next =
        tape.Relu(layer.w_a.Apply(tape, tape.AddN({aggre_as, q})));
    h = tape.Dropout(h_next, config_.dropout, dropout_rng);
    z = tape.Dropout(z_next, config_.dropout, dropout_rng);
    q = q_next;
  }
  return {h, q};
}

nn::Value HeteroRecModel::PredictPairs(
    nn::Tape& tape, const std::vector<PeriodEmbeddings>& periods,
    const std::vector<int>& pair_store_nodes,
    const std::vector<int>& pair_types) const {
  O2SR_CHECK_EQ(periods.size(), static_cast<size_t>(sim::kNumPeriods));
  O2SR_CHECK_EQ(pair_store_nodes.size(), pair_types.size());
  const int d2 = config_.embedding_dim;
  const int J = sim::kNumPeriods;

  // H_sa,t = [h_s,t, q_a,t] per pair and period (§III-E step 4).
  std::vector<nn::Value> h_t(J);
  for (int t = 0; t < J; ++t) {
    h_t[t] = tape.ConcatCols(
        {tape.GatherRows(periods[t].h, pair_store_nodes),
         tape.GatherRows(periods[t].q, pair_types)});
  }

  nn::Value h_sa;
  if (!config_.time_attention) {
    // w/o SA ablation: mean over periods.
    h_sa = tape.Scale(tape.AddN(h_t), 1.0f / static_cast<float>(J));
  } else {
    // Multi-head attention over periods (Eq. 13-15): per head, each
    // period's key/query come from its own H_sa,t; the attention weight of
    // period t_j is softmax_j(<Q_tj, K_tj>).
    const int dk2 = 2 * d2 / config_.time_heads;
    const float scale = 1.0f / std::sqrt(static_cast<float>(dk2));
    std::vector<nn::Value> heads;
    for (int i = 0; i < config_.time_heads; ++i) {
      std::vector<nn::Value> keys(J);
      std::vector<nn::Value> scores(J);
      for (int t = 0; t < J; ++t) {
        keys[t] = time_key_[i].Apply(tape, h_t[t]);
        nn::Value query = time_query_[i].Apply(tape, h_t[t]);
        scores[t] = tape.Scale(tape.RowwiseDot(query, keys[t]), scale);
      }
      nn::Value alpha = tape.SoftmaxRows(tape.ConcatCols(scores));  // [P, J]
      std::vector<nn::Value> weighted(J);
      for (int t = 0; t < J; ++t) {
        weighted[t] =
            tape.MulColBroadcast(keys[t], tape.SliceCols(alpha, t, 1));
      }
      heads.push_back(tape.Relu(tape.AddN(weighted)));
    }
    h_sa = tape.ConcatCols(heads);
  }

  // p_hat = sigma(W_2 H_sa) (§III-E step 5); targets are normalized to
  // [0, 1] so a sigmoid head matches their range.
  return tape.Sigmoid(predict_.Apply(tape, h_sa));
}

}  // namespace o2sr::core
