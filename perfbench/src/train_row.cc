// train_row: the Table IV row at small scale. Generates the open-data
// preset city in memory, splits it 80/20, then trains, predicts and
// evaluates the six baselines (Adaption setting) and O2-SiteRec on a
// 2-thread pool.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "baselines/factory.h"
#include "core/o2siterec.h"
#include "eval/experiment.h"
#include "exec/thread_pool.h"
#include "features/order_stats.h"
#include "graphs/geo_graph.h"
#include "graphs/hetero_graph.h"
#include "graphs/mobility_graph.h"
#include "obs/profiler.h"
#include "reference.h"
#include "sim/dataset.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace o2sr;

// The small-scale open-data preset of Table IV; only the seed varies.
sim::SimConfig RowCity(uint64_t seed) {
  sim::SimConfig cfg;
  cfg.city_width_m = 7000.0;
  cfg.city_height_m = 7000.0;
  cfg.num_store_types = 14;
  cfg.num_stores = 3200;
  cfg.num_couriers = 280;
  cfg.num_days = 5;
  cfg.peak_orders_per_region_slot = 5.0;
  cfg.preset = sim::SimulationPreset::kOpenData;
  cfg.seed = 1000 + seed;
  return cfg;
}

core::O2SiteRecConfig RowModel() {
  core::O2SiteRecConfig cfg;
  cfg.rec.embedding_dim = 32;
  cfg.rec.node_heads = 4;
  cfg.rec.time_heads = 2;
  cfg.learning_rate = 3e-3;
  cfg.epochs = 50;
  cfg.mobility_min_transactions = 2;
  return cfg;
}

eval::EvalOptions RowEval() {
  eval::EvalOptions opts;
  opts.min_candidates = 20;
  return opts;
}

// Pool threads of the row: the thread count at which this row's time
// repeats from run to run (README, "Thread counts").
constexpr int kRowThreads = 2;

// Shortest chunk of the host-speed-corrected clock: O2-SiteRec's epochs
// (about 0.3 s) each end one; the baselines' short epochs are grouped.
constexpr double kTickMs = 50.0;

// The nn ops reported from the profiler (the largest by bytes moved in
// O2-SiteRec training).
const char* const kNnOps[] = {
    "tape.matmul",          "tape.matmul_bwd",
    "tape.gather_rows",     "tape.concat_cols",
    "tape.rowwise_dot",     "tape.relu",
    "tape.add_row_broadcast", "plan.mul_col_segment_sum",
    "tape.segment_softmax", "tape.dropout",
    "tensor.add_inplace",   "plan.linear_act",
};

std::string MetricKey(std::string name) {
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  return name;
}

struct Fitted {
  eval::EvalResult result;
  std::vector<double> predictions;
};

// Checks every model's outputs: one finite prediction per test pair, RMSE
// recomputed from the predictions, NDCG@k and Precision@k recomputed from
// the definition and inside [0, 1].
void CheckFit(const std::string& model, const eval::Split& split,
              const eval::EvalOptions& opts, const Fitted& fit,
              RunResult* out) {
  const core::InteractionList& test = split.test;
  out->Check(fit.predictions.size() == test.size(),
             model + ": prediction count differs from test pairs");
  if (fit.predictions.size() != test.size()) return;
  bool finite = true;
  for (double p : fit.predictions) finite = finite && std::isfinite(p);
  out->Check(finite, model + ": non-finite prediction");

  std::vector<double> targets;
  for (const auto& it : test) targets.push_back(it.target);
  const double rmse = RefRmse(fit.predictions, targets);
  out->Check(std::abs(rmse - fit.result.rmse) <= 1e-12 * std::max(1.0, rmse),
             model + ": RMSE differs from the recomputed value");

  std::map<int, std::vector<double>> preds_by_type, truths_by_type;
  for (size_t i = 0; i < test.size(); ++i) {
    preds_by_type[test[i].type].push_back(fit.predictions[i]);
    truths_by_type[test[i].type].push_back(test[i].orders);
  }
  std::map<int, double> ndcg, precision;
  int types = 0;
  for (const auto& [type, preds] : preds_by_type) {
    const auto& truths = truths_by_type[type];
    const int pool = static_cast<int>(preds.size());
    if (pool < opts.min_candidates) continue;
    int top_n = opts.top_n;
    if (opts.adaptive_top_n && pool < 2 * opts.top_n) {
      top_n = std::min(opts.top_n, std::max(10, pool / 2));
    }
    for (int k : opts.ndcg_ks) ndcg[k] += RefNdcg(preds, truths, k, top_n);
    for (int k : opts.precision_ks) {
      precision[k] += RefPrecision(preds, truths, k, top_n);
    }
    ++types;
  }
  out->Check(types == fit.result.types_evaluated && types > 0,
             model + ": evaluated type count differs");
  for (const auto& [k, v] : fit.result.ndcg) {
    out->Check(v >= 0.0 && v <= 1.0, model + ": NDCG outside [0, 1]");
    out->Check(types > 0 && std::abs(ndcg[k] / types - v) <= 1e-9,
               model + ": NDCG@" + std::to_string(k) +
                   " differs from the definition");
  }
  for (const auto& [k, v] : fit.result.precision) {
    out->Check(v >= 0.0 && v <= 1.0, model + ": precision outside [0, 1]");
    out->Check(types > 0 && std::abs(precision[k] / types - v) <= 1e-9,
               model + ": Precision@" + std::to_string(k) +
                   " differs from the definition");
  }
}

std::map<std::string, obs::OpProfile> OpDelta(
    const std::map<std::string, obs::OpProfile>& before,
    const std::map<std::string, obs::OpProfile>& after) {
  std::map<std::string, obs::OpProfile> out;
  for (const auto& [name, a] : after) {
    obs::OpProfile d = a;
    auto it = before.find(name);
    if (it != before.end()) {
      d.dispatches -= it->second.dispatches;
      d.bytes_allocated -= it->second.bytes_allocated;
      d.bytes_moved -= it->second.bytes_moved;
    }
    out[name] = d;
  }
  return out;
}

}  // namespace

RunResult RunTrainRow(const Options& options, Spans& spans) {
  RunResult out;
  obs::Profiler& profiler = obs::Profiler::Global();
  if (options.trace) profiler.Enable(true);
  HostClock clock(ProcessStart());
  clock.ProbeFirst();
  // Set-up runs on the row's pool too: without a scope the split would
  // run on the process-wide pool, one lane per CPU.
  exec::ThreadPool pool(options.threads > 0 ? options.threads : kRowThreads,
                        "perfbench.pool");
  exec::PoolScope pool_scope(&pool);

  // --- Set-up: dataset and split.
  const sim::SimConfig city = RowCity(options.seed);
  std::unique_ptr<sim::Dataset> data;
  {
    ScopedSpan span(spans, "sim.generate_dataset");
    data = std::make_unique<sim::Dataset>(sim::GenerateDataset(city));
  }
  clock.Tick();
  const core::InteractionList interactions = eval::BuildInteractions(*data);
  eval::Split split;
  {
    ScopedSpan span(spans, "eval.split");
    split = eval::SplitInteractions(*data, interactions,
                                    {0.8, 2000 + options.seed});
  }
  clock.Tick();
  const double raw_setup_s = clock.raw_s();
  const double setup_s = clock.scaled_s();

  // --- Measured: the row. The clock ticks between epochs (TrainHooks)
  // and before O2-SiteRec.
  const eval::EvalOptions opts = RowEval();
  std::vector<std::pair<std::string, Fitted>> fits;
  const auto tick_between_epochs = [&](int, double) {
    clock.TickAfter(kTickMs);
  };
  for (auto kind : baselines::kAllBaselines) {
    const std::string name = baselines::BaselineKindName(kind);
    baselines::BaselineConfig cfg;
    cfg.setting = baselines::FeatureSetting::kAdaption;
    auto model = baselines::MakeBaseline(kind, cfg);
    core::TrainContext ctx;
    ctx.data = data.get();
    ctx.visible_orders = &split.train_orders;
    ctx.train = &split.train;
    ctx.pool = &pool;
    ctx.hooks.on_epoch_end = tick_between_epochs;
    ++out.attempted;
    common::Status trained;
    {
      ScopedSpan span(spans, "baselines.fit");
      trained = model->Train(ctx);
    }
    if (!trained.ok()) {
      ++out.failed;
      continue;
    }
    Fitted fit;
    {
      ScopedSpan span(spans, "baselines.predict");
      auto predicted = model->Predict(split.test);
      if (!predicted.ok()) {
        ++out.failed;
        continue;
      }
      fit.predictions = *std::move(predicted);
    }
    {
      ScopedSpan span(spans, "eval.evaluate");
      fit.result = eval::Evaluate(split.test, fit.predictions, opts);
    }
    if (spans.enabled()) {
      out.AddLayer("baselines." + MetricKey(name) + ".fit_ms",
                   spans.DurationsMs("baselines.fit").back(), "ms");
    }
    fits.emplace_back(name, std::move(fit));
  }

  // O2-SiteRec, called layer by layer so each step can be timed.
  clock.Tick();
  const double fit_raw0 = clock.raw_s(), fit_scaled0 = clock.scaled_s();
  const auto ops_before = profiler.OpSnapshot();
  const auto regions_before = profiler.RegionSnapshot();
  ++out.attempted;
  std::vector<double> epoch_losses, epoch_ms;
  Fitted ours;
  bool ours_ok = false;
  {
    std::unique_ptr<core::O2SiteRec> model;
    {
      ScopedSpan span(spans, "core.o2siterec.build");
      model = std::make_unique<core::O2SiteRec>(*data, split.train_orders,
                                                RowModel());
    }
    Clock::time_point epoch_start = Clock::now();
    nn::TrainHooks hooks;
    hooks.on_epoch_end = [&](int epoch, double loss) {
      epoch_ms.push_back(MillisBetween(epoch_start, Clock::now()));
      epoch_losses.push_back(loss);
      tick_between_epochs(epoch, loss);
      epoch_start = Clock::now();
    };
    common::Status trained;
    {
      ScopedSpan span(spans, "core.o2siterec.train");
      trained = model->Train(split.train, hooks);
    }
    if (trained.ok()) {
      ScopedSpan span(spans, "core.o2siterec.predict");
      auto predicted = model->Predict(split.test);
      if (predicted.ok()) {
        ours.predictions = *std::move(predicted);
        ours_ok = true;
      }
    }
    if (ours_ok) {
      ScopedSpan span(spans, "eval.evaluate");
      ours.result = eval::Evaluate(split.test, ours.predictions, opts);
    }
  }
  clock.Tick();
  const auto ops_after = profiler.OpSnapshot();
  const auto regions_after = profiler.RegionSnapshot();
  if (!ours_ok) ++out.failed;
  const double raw_row_s = clock.raw_s() - raw_setup_s;
  const double row_s = clock.scaled_s() - setup_s;
  const double raw_fit_s = clock.raw_s() - fit_raw0;
  const double fit_s = clock.scaled_s() - fit_scaled0;

  // --- Checks, outside the measured row.
  for (const auto& [name, fit] : fits) CheckFit(name, split, opts, fit, &out);
  if (ours_ok) {
    CheckFit("O2-SiteRec", split, opts, ours, &out);
    out.Check(epoch_losses.size() >= 2 &&
                  epoch_losses.back() < epoch_losses.front(),
              "O2-SiteRec: last-epoch loss is not below the first");
  }
  {
    std::vector<double> targets;
    for (const auto& it : split.test) targets.push_back(it.target);
    const eval::EvalResult perfect = eval::Evaluate(split.test, targets, opts);
    for (const auto& [k, v] : perfect.ndcg) {
      out.Check(std::abs(v - 1.0) <= 1e-12,
                "Evaluate(targets) NDCG@" + std::to_string(k) + " != 1");
    }
    for (const auto& [k, v] : perfect.precision) {
      out.Check(std::abs(v - 1.0) <= 1e-12,
                "Evaluate(targets) Precision@" + std::to_string(k) + " != 1");
    }
  }

  ReportEndToEnd({.raw_setup_s = raw_setup_s,
                  .setup_s = setup_s,
                  .raw_throughput = out.attempted / raw_row_s,
                  .throughput = out.attempted / row_s,
                  .raw_latency_ms = raw_fit_s * 1e3,
                  .latency_ms = fit_s * 1e3,
                  .run_slowdown = raw_row_s / row_s},
                 &out);
  out.AddLayer("detail.row_s", raw_row_s, "s");
  out.AddLayer("detail.o2siterec_fit_s", raw_fit_s, "s");
  out.AddLayer("detail.ndcg5",
               ours_ok ? ours.result.ndcg.at(5) : 0.0, "1");
  out.AddLayer("detail.rmse", ours_ok ? ours.result.rmse : 0.0, "1");
  if (!spans.enabled()) return out;

  // --- Traced run only: per-layer numbers.
  double epoch_total_ms = 0.0;
  for (double e : epoch_ms) epoch_total_ms += e;
  out.AddLayer("sim.generate_dataset_ms",
               spans.TotalMs("sim.generate_dataset"), "ms");
  out.AddLayer("eval.split_ms", spans.TotalMs("eval.split"), "ms");
  out.AddLayer("eval.evaluate_ms", spans.TotalMs("eval.evaluate"), "ms");
  out.AddLayer("core.o2siterec.build_ms",
               spans.TotalMs("core.o2siterec.build"), "ms");
  out.AddLayer("core.o2siterec.epoch_ms", Median(epoch_ms), "ms");
  out.AddLayer("core.o2siterec.predict_ms",
               spans.TotalMs("core.o2siterec.predict"), "ms");

  // The program builds these inside O2SiteRec's constructor; the same
  // public constructors are timed here on the same inputs.
  {
    std::unique_ptr<features::OrderStats> stats;
    {
      ScopedSpan span(spans, "features.order_stats");
      stats = std::make_unique<features::OrderStats>(*data,
                                                     split.train_orders);
    }
    {
      ScopedSpan span(spans, "graphs.geo");
      graphs::GeoGraph geo(data->city.grid);
    }
    {
      ScopedSpan span(spans, "graphs.mobility");
      graphs::MobilityMultiGraph mobility(
          *stats, RowModel().mobility_min_transactions);
    }
    {
      ScopedSpan span(spans, "graphs.hetero");
      graphs::HeteroMultiGraph hetero(*data, *stats);
    }
  }
  out.AddLayer("features.order_stats_ms",
               spans.TotalMs("features.order_stats"), "ms");
  out.AddLayer("graphs.geo_ms", spans.TotalMs("graphs.geo"), "ms");
  out.AddLayer("graphs.mobility_ms", spans.TotalMs("graphs.mobility"), "ms");
  out.AddLayer("graphs.hetero_ms", spans.TotalMs("graphs.hetero"), "ms");

  const auto ops = OpDelta(ops_before, ops_after);
  for (const char* op : kNnOps) {
    auto it = ops.find(op);
    const obs::OpProfile p = it != ops.end() ? it->second : obs::OpProfile{};
    const std::string key = std::string("nn.") + op;
    out.AddLayer(key + ".dispatches", static_cast<double>(p.dispatches),
                 "count");
    out.AddLayer(key + ".bytes_allocated",
                 static_cast<double>(p.bytes_allocated), "B");
    out.AddLayer(key + ".bytes_moved", static_cast<double>(p.bytes_moved),
                 "B");
  }

  // Parallel regions entered while O2-SiteRec was built, trained and
  // scored.
  uint64_t regions = 0, chunks = 0;
  int64_t wall_us = 0, busy_us = 0, idle_us = 0;
  for (const auto& [name, after] : regions_after) {
    obs::RegionProfile before;
    auto it = regions_before.find(name);
    if (it != regions_before.end()) before = it->second;
    regions += after.regions - before.regions;
    chunks += after.chunks - before.chunks;
    wall_us += after.wall_us - before.wall_us;
    busy_us += after.busy_us - before.busy_us;
    const int64_t lanes = static_cast<int64_t>(after.lane_busy_us.size());
    const int64_t d_wall = after.wall_us - before.wall_us;
    const int64_t d_busy = after.busy_us - before.busy_us;
    idle_us += std::max<int64_t>(0, lanes * d_wall - d_busy);
  }
  out.AddLayer("exec.regions", static_cast<double>(regions), "count");
  out.AddLayer("exec.chunks", static_cast<double>(chunks), "count");
  out.AddLayer("exec.lane_busy_us", static_cast<double>(busy_us), "us");
  out.AddLayer("exec.lane_idle_us", static_cast<double>(idle_us), "us");
  out.AddLayer("exec.lane_efficiency",
               busy_us + idle_us > 0
                   ? static_cast<double>(busy_us) / (busy_us + idle_us)
                   : 0.0,
               "1");
  out.AddLayer("exec.epoch_parallel_share",
               epoch_total_ms > 0 ? wall_us / 1e3 / epoch_total_ms : 0.0,
               "1");
  return out;
}

}  // namespace perfbench
