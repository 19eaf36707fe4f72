// serve_hot and serve_refresh: one closed-loop client on one
// ServingEngine.
//
// Both rank the candidate stream of bench/bench_serving.cc, defined again
// here so that a change to that bench cannot change a workload.
//
// serve_hot ranks it in RankSitesBatch calls of a fixed size with a cache
// that holds every key, so almost every pair is a cache hit and the time
// goes to the engine's front end.
//
// serve_refresh issues single Rank calls with a cache smaller than the key
// set, while a second thread refreshes the model every kRefreshEvery calls
// (PrepareServing + SwapSnapshot, alternating two snapshots exported
// during set-up). Each promotion invalidates the cache, so most pairs are
// scored fresh through ServingPredict.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/o2siterec_recommender.h"
#include "eval/experiment.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "reference.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "sim/dataset.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace o2sr;

sim::SimConfig ServeCity(uint64_t seed) {
  sim::SimConfig cfg;
  cfg.city_width_m = 6000.0;
  cfg.city_height_m = 6000.0;  // 12 x 12 regions
  cfg.num_store_types = 12;
  cfg.num_stores = 1500;
  cfg.num_couriers = 200;
  cfg.num_days = 4;
  cfg.peak_orders_per_region_slot = 5.0;
  cfg.seed = 3000 + seed;
  return cfg;
}

core::O2SiteRecConfig ServeModel() {
  core::O2SiteRecConfig cfg;
  cfg.rec.embedding_dim = 16;
  cfg.rec.node_heads = 2;
  cfg.rec.time_heads = 1;
  cfg.epochs = 6;
  return cfg;
}

// Stream shape of bench/bench_serving.cc (README, "Serving traffic"):
// 48 candidates per request, top 10, and its default batch of 16 requests
// per RankSitesBatch call.
constexpr int kCandidates = 48;
constexpr int kTopK = 10;
constexpr int kHotBatch = 16;
// serve_hot: the engine's default capacity, set explicitly so that
// O2SR_SERVE_CACHE cannot change it. It holds every key of the city.
constexpr int64_t kHotCacheEntries = 65536;
// serve_refresh: well below the city's keys (12 types x at most 144
// regions), so pairs outside the head of the stream miss between swaps
// too and scoring, not the cache, takes most of a call.
constexpr int64_t kRefreshCacheEntries = 256;
// Rank calls between refreshes: a swap takes a sixth to a quarter of the
// interval, so the client runs alone most of the time, and a 15 s window
// holds a few dozen swaps for swap_ms's median.
constexpr int kRefreshEvery = 4000;
constexpr int kRingCalls = 2048;      // pre-generated calls, replayed
constexpr int kCheckStride = 97;      // every 97th call is re-ranked
constexpr int kSpanStride = 64;       // traced runs span every 64th call
constexpr int kProbeEvery = 1024;     // calls per HostClock chunk

// bench_serving's MakeQueryStream: a uniform type, and each candidate
// drawn with repetition over `regions` with weight 1/(rank+1), rank being
// the position in `regions`. The engine ranks repeated candidates once,
// as RefTopK does.
class StreamSampler {
 public:
  explicit StreamSampler(const std::vector<int>& regions, int types)
      : regions_(regions), types_(types) {
    double total = 0.0;
    for (size_t i = 0; i < regions.size(); ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  serve::RankRequest operator()(std::mt19937_64& rng) const {
    serve::RankRequest request;
    request.type = std::uniform_int_distribution<int>(0, types_ - 1)(rng);
    request.k = kTopK;
    for (int i = 0; i < kCandidates; ++i) {
      const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
      const size_t rank = std::min<size_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
          cdf_.size() - 1);
      request.candidates.push_back(regions_[rank]);
    }
    return request;
  }

 private:
  const std::vector<int>& regions_;
  const int types_;
  std::vector<double> cdf_;
};

struct World {
  sim::SimConfig city;
  std::unique_ptr<sim::Dataset> data;
  core::InteractionList interactions;
  eval::Split split;
  core::TrainContext ctx;
  std::vector<int> scorable;  // regions the model can score
};

void BuildWorld(uint64_t seed, World* w) {
  w->city = ServeCity(seed);
  w->data = std::make_unique<sim::Dataset>(sim::GenerateDataset(w->city));
  w->interactions = eval::BuildInteractions(*w->data);
  w->split = eval::SplitInteractions(*w->data, w->interactions,
                                     {0.8, 4000 + seed});
  w->ctx.data = w->data.get();
  w->ctx.visible_orders = &w->split.train_orders;
  w->ctx.train = &w->split.train;
}

// Full-forward-pass scores of every (region, type) pair: table[type][region]
// (NaN where the model cannot score the region).
std::vector<std::vector<double>> PredictTable(
    const core::SiteRecommender& model, const World& w, RunResult* out) {
  const int types = w.data->num_types();
  const int regions = w.data->num_regions();
  core::InteractionList pairs;
  for (int t = 0; t < types; ++t) {
    for (int r : w.scorable) pairs.push_back({r, t, 0.0, 0.0});
  }
  std::vector<std::vector<double>> table(
      types, std::vector<double>(regions, std::nan("")));
  auto scores = model.Predict(pairs);
  out->Check(scores.ok(), "Predict over the serving city failed");
  if (!scores.ok()) return table;
  for (size_t i = 0; i < pairs.size(); ++i) {
    table[pairs[i].type][pairs[i].region] = (*scores)[i];
  }
  return table;
}

std::vector<Site> ToSites(const std::vector<serve::RankedSite>& sites) {
  std::vector<Site> out;
  for (const auto& s : sites) out.push_back({s.region, s.score});
  return out;
}

// One client's measured window on its own HostClock, which ticks every
// kProbeEvery calls: each call's latency is scaled like its chunk.
class Meter {
 public:
  explicit Meter(size_t expected_calls) {
    us_.reserve(expected_calls);
    scaled_us_.reserve(expected_calls);
  }
  // Call at the start of the window; probes the host first.
  void Start() {
    clock_.ProbeFirst();
  }
  // Call before each engine call `i` (counted from 0): true from every
  // kProbeEvery-th call on until EndChunk is called.
  bool ChunkDue(size_t i) {
    if (i > 0 && i % kProbeEvery == 0) due_ = true;
    return due_;
  }
  void Record(Clock::time_point t0, Clock::time_point t1) {
    us_.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  // Ends the chunk at `end`. Call after the last call of the window too.
  void EndChunk(Clock::time_point end = Clock::now()) {
    due_ = false;
    const double slowdown = clock_.Tick(end);
    for (size_t i = scaled_us_.size(); i < us_.size(); ++i) {
      scaled_us_.push_back(us_[i] / slowdown);
    }
  }
  size_t calls() const { return us_.size(); }

  // Adds the end-to-end metrics over every client's meter plus the raw
  // serving figures.
  static void Report(const HostClock& setup_clock,
                     const std::vector<const Meter*>& meters,
                     RunResult* out) {
    std::vector<double> us, scaled_us;
    double rate = 0.0, scaled_rate = 0.0, raw_s = 0.0, scaled_s = 0.0;
    for (const Meter* m : meters) {
      us.insert(us.end(), m->us_.begin(), m->us_.end());
      scaled_us.insert(scaled_us.end(), m->scaled_us_.begin(),
                       m->scaled_us_.end());
      rate += m->calls() / m->clock_.raw_s();
      scaled_rate += m->calls() / m->clock_.scaled_s();
      raw_s += m->clock_.raw_s();
      scaled_s += m->clock_.scaled_s();
    }
    ReportEndToEnd({.raw_setup_s = setup_clock.raw_s(),
                    .setup_s = setup_clock.scaled_s(),
                    .raw_throughput = rate,
                    .throughput = scaled_rate,
                    .raw_latency_ms = Median(us) / 1e3,
                    .latency_ms = Median(scaled_us) / 1e3,
                    .run_slowdown = raw_s / scaled_s},
                   out);
    out->AddLayer("detail.serve_qps", rate, "1/s");
    out->AddLayer("detail.serve_p50_us", Median(us), "us");
    out->AddLayer("detail.serve_p99_us",
                  TailPercentile(us.size()) >= 99.0 ? Quantile(us, 0.99) : 0.0,
                  "us");
    out->AddLayer("serve.latency_tail_pct", TailPercentile(us.size()), "%");
  }

 private:
  HostClock clock_;
  bool due_ = false;
  std::vector<double> us_, scaled_us_;
};

serve::ServingOptions EngineOptions(int64_t cache_entries,
                                    exec::ThreadPool* pool) {
  serve::ServingOptions options;
  options.cache_capacity = cache_entries;
  options.num_shards = 1;
  options.pool = pool;
  options.max_inflight = 0;
  options.default_deadline_ms = 0.0;
  options.slo_ms = 50.0;
  options.slo_target = 0.99;
  return options;
}

// Per-layer numbers shared by both serving workloads: cache effect, tier
// counts, and the cost of the obs calls every request makes.
void ServeLayers(const serve::ServingEngine& engine,
                 const serve::ScoreCache::Stats& before, uint64_t pairs_before,
                 uint64_t calls, const std::vector<int64_t>& tiers,
                 RunResult* out) {
  const serve::ScoreCache::Stats after = engine.CacheStats();
  const double hits = static_cast<double>(after.hits - before.hits);
  const double lookups =
      hits + static_cast<double>(after.misses - before.misses) +
      static_cast<double>(after.stale_hits - before.stale_hits);
  out->AddLayer("serve.cache.hits", hits, "count");
  out->AddLayer("serve.cache.lookups", lookups, "count");
  out->AddLayer("serve.cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0,
                "1");
  out->AddLayer(
      "serve.pairs_scored_per_call",
      calls > 0 ? static_cast<double>(engine.pairs_scored_count() -
                                      pairs_before) / calls
                : 0.0,
      "1");
  out->AddLayer("serve.tier.fresh", static_cast<double>(tiers[0]), "count");
  out->AddLayer("serve.tier.stale", static_cast<double>(tiers[1]), "count");
  out->AddLayer("serve.tier.prior", static_cast<double>(tiers[2]), "count");

  // SloMonitor::Record with the engine's window and Histogram::Observe,
  // each called on its own.
  constexpr int kCalls = 200000;
  {
    obs::SloMonitor slo(engine.slo().config());
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      slo.Record({0.01 * (i % 100), false, false, false});
    }
    out->AddLayer("obs.slo_record_ns",
                  MillisBetween(t0, Clock::now()) * 1e6 / kCalls, "ns");
  }
  {
    obs::Histogram histogram("perfbench.latency",
                             obs::DefaultLatencyBucketsMs());
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) histogram.Observe(0.01 * (i % 100));
    out->AddLayer("obs.histogram_observe_ns",
                  MillisBetween(t0, Clock::now()) * 1e6 / kCalls, "ns");
  }
}

// Median time of one ServingPredict call scoring `misses` pairs.
void TimeServingPredict(const core::SiteRecommender& model, const World& w,
                        int misses, RunResult* out) {
  core::InteractionList pairs;
  for (int i = 0; i < std::max(1, misses); ++i) {
    pairs.push_back({w.scorable[i % w.scorable.size()],
                     i % w.data->num_types(), 0.0, 0.0});
  }
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    auto scored = model.ServingPredict(pairs);
    us.push_back(MillisBetween(t0, Clock::now()) * 1e3);
    out->Check(scored.ok(), "ServingPredict failed");
  }
  out->AddLayer("core.serving_predict_us", Median(us), "us");
}

std::unique_ptr<core::O2SiteRecRecommender> TrainModel(
    const World& w, exec::ThreadPool* pool,
    const std::vector<nn::NamedTensor>* warm_start, HostClock* clock,
    RunResult* out) {
  auto model = std::make_unique<core::O2SiteRecRecommender>(ServeModel());
  core::TrainContext ctx = w.ctx;
  ctx.pool = pool;
  ctx.warm_start = warm_start;
  ctx.hooks.on_epoch_end = [clock](int, double) { clock->Tick(); };
  const common::Status trained = model->Train(ctx);
  out->Check(trained.ok(), "training the served model failed: " +
                               trained.ToString());
  return model;
}

void ScorableRegions(const core::SiteRecommender& model, World* w) {
  for (int r = 0; r < w->data->num_regions(); ++r) {
    if (model.CanScoreRegion(r)) w->scorable.push_back(r);
  }
}

}  // namespace

RunResult RunServeHot(const Options& options, Spans& spans) {
  RunResult out;
  HostClock setup_clock(ProcessStart());
  setup_clock.ProbeFirst();
  exec::ThreadPool pool(1, "perfbench.pool");
  exec::PoolScope pool_scope(&pool);
  World w;
  BuildWorld(options.seed, &w);
  setup_clock.Tick();
  auto model = TrainModel(w, &pool, nullptr, &setup_clock, &out);
  ScorableRegions(*model, &w);
  auto engine = serve::ServingEngine::Create(
                    model.get(), EngineOptions(kHotCacheEntries, &pool))
                    .value();
  const int types = w.data->num_types();
  out.Check(static_cast<int64_t>(types * w.scorable.size()) <=
                kHotCacheEntries,
            "serve_hot's keys do not fit in the cache");

  // The stream, pre-generated so the client loop only replays it.
  std::mt19937_64 rng(5000 + options.seed);
  const StreamSampler sampler(w.scorable, types);
  std::vector<std::vector<serve::RankRequest>> ring(kRingCalls);
  for (auto& call : ring) {
    for (int i = 0; i < kHotBatch; ++i) call.push_back(sampler(rng));
  }

  // Warm-up: every key once, then one pass over the ring.
  for (int t = 0; t < types; ++t) {
    out.Check(engine->RankSites(t, w.scorable, kTopK).ok(), "warm-up failed");
  }
  for (const auto& call : ring) engine->RankSitesBatch(call);
  setup_clock.Tick();

  // Measured window: `clients` closed loops (one unless a reference run
  // asks for more), each replaying the ring from its own offset.
  using Responses = std::vector<common::StatusOr<serve::RankResponse>>;
  struct ClientLog {
    explicit ClientLog(size_t expected_calls) : meter(expected_calls) {}
    Meter meter;
    std::vector<std::pair<size_t, Responses>> samples;  // (ring call, ...)
    std::vector<int64_t> tiers = std::vector<int64_t>(3, 0);
    int64_t not_ok = 0;        // responses
    int64_t failed_calls = 0;  // calls with a response that is not OK
  };
  const int clients = std::max(1, options.clients);
  std::vector<ClientLog> logs(
      clients, ClientLog(static_cast<size_t>(options.seconds * 40000)));
  const auto cache_before = engine->CacheStats();
  const uint64_t pairs_before = engine->pairs_scored_count();
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration<double>(options.seconds);
  const auto client = [&](int c) {
    ClientLog& log = logs[c];
    log.meter.Start();
    for (size_t i = 0;; ++i) {
      if (log.meter.ChunkDue(i)) log.meter.EndChunk();
      const size_t call = i + c * ring.size() / clients;
      const size_t slot = call % ring.size();
      std::optional<ScopedSpan> span;
      if (call % kSpanStride == 0) {
        span.emplace(spans, "serve.rank_batch", static_cast<int64_t>(call));
      }
      const auto t0 = Clock::now();
      if (t0 >= stop) break;
      Responses responses = engine->RankSitesBatch(ring[slot]);
      log.meter.Record(t0, Clock::now());
      span.reset();
      const int64_t not_ok_before = log.not_ok;
      for (const auto& r : responses) {
        if (!r.ok()) {
          ++log.not_ok;
          continue;
        }
        ++log.tiers[static_cast<int>(r->tier)];
      }
      if (log.not_ok > not_ok_before) ++log.failed_calls;
      if (call % kCheckStride == 0) {
        log.samples.emplace_back(slot, std::move(responses));
      }
    }
    log.meter.EndChunk();
  };
  {
    std::vector<std::thread> threads;
    for (int c = 1; c < clients; ++c) threads.emplace_back(client, c);
    client(0);
    for (auto& t : threads) t.join();
  }
  std::vector<int64_t> tiers(3, 0);
  int64_t not_ok = 0;
  uint64_t calls = 0;
  std::vector<const Meter*> meters;
  for (const ClientLog& log : logs) {
    for (int t = 0; t < 3; ++t) tiers[t] += log.tiers[t];
    not_ok += log.not_ok;
    calls += log.meter.calls();
    out.failed += log.failed_calls;
    meters.push_back(&log.meter);
  }
  out.attempted = static_cast<int64_t>(calls);

  // Checks: every response OK and fresh; sampled calls re-ranked from the
  // full forward pass.
  out.Check(not_ok == 0, std::to_string(not_ok) + " responses failed");
  out.Check(tiers[1] == 0 && tiers[2] == 0, "a response was not fresh");
  const auto table = PredictTable(*model, w, &out);
  for (const ClientLog& log : logs) {
    for (const auto& [slot, responses] : log.samples) {
      const auto& batch = ring[slot];
      for (size_t i = 0; i < batch.size(); ++i) {
        if (!responses[i].ok()) continue;
        const std::string diff = CheckServedRanking(
            batch[i].candidates, table[batch[i].type], batch[i].k,
            ToSites(responses[i]->sites));
        out.Check(diff.empty(), "ring call " + std::to_string(slot) + ": " +
                                    diff);
      }
    }
  }

  Meter::Report(setup_clock, meters, &out);
  if (!spans.enabled()) return out;
  ServeLayers(*engine, cache_before, pairs_before, calls, tiers, &out);
  TimeServingPredict(*model, w, 1, &out);
  return out;
}

RunResult RunServeRefresh(const Options& options, Spans& spans) {
  RunResult out;
  HostClock setup_clock(ProcessStart());
  setup_clock.ProbeFirst();
  exec::ThreadPool pool(1, "perfbench.pool");
  exec::PoolScope pool_scope(&pool);
  World w;
  BuildWorld(options.seed, &w);
  setup_clock.Tick();

  // Two snapshots of one model config: A, and B = A trained further.
  const std::string dir =
      options.out_dir + "/serve_refresh_" + std::to_string(options.seed);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string paths[2] = {dir + "/a.snap", dir + "/b.snap"};
  const uint64_t config_hash = serve::CombineFingerprints(
      serve::FingerprintOf(w.city), serve::FingerprintOf(ServeModel()));
  serve::SnapshotMeta meta;
  meta.config_hash = config_hash;
  meta.num_regions = w.data->num_regions();
  meta.num_types = w.data->num_types();
  meta.type_norm = serve::TypeNormalizers(meta.num_types, w.interactions);
  auto model_a = TrainModel(w, &pool, nullptr, &setup_clock, &out);
  meta.model_name = model_a->Name();
  out.Check(serve::ExportSnapshot(paths[0], meta, *model_a).ok(),
            "exporting snapshot A failed");
  auto donor = serve::DecodeSnapshotParameters(
      serve::LoadSnapshot(paths[0]).value());
  auto model_b =
      TrainModel(w, &pool, &donor.value(), &setup_clock, &out);
  out.Check(serve::ExportSnapshot(paths[1], meta, *model_b).ok(),
            "exporting snapshot B failed");
  ScorableRegions(*model_a, &w);

  auto engine = serve::ServingEngine::Create(
                    model_a.get(), EngineOptions(kRefreshCacheEntries, &pool))
                    .value();

  const int types = w.data->num_types();
  out.Check(static_cast<int64_t>(types * w.scorable.size()) >
                kRefreshCacheEntries,
            "serve_refresh's keys fit in the cache");
  std::mt19937_64 rng(6000 + options.seed);
  const StreamSampler sampler(w.scorable, types);
  std::vector<serve::RankRequest> ring(kRingCalls * 4);
  for (auto& request : ring) request = sampler(rng);
  for (const auto& request : ring) engine->Rank(request);
  setup_clock.Tick();

  // The refresher: one swap per posted request, in order.
  std::mutex mu;
  std::condition_variable cv;
  int posted = 0;
  bool closing = false;
  std::vector<double> swap_ms;
  int swaps_done = 0;
  std::vector<std::string> swap_errors;
  std::thread refresher([&] {
    exec::PoolScope refresher_scope(&pool);
    uint64_t epoch = engine->epoch();
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return posted > swaps_done || closing; });
        if (posted == swaps_done) return;
      }
      const int next = swaps_done + 1;  // swap n loads B when n is odd
      const auto t0 = Clock::now();
      auto staged = std::make_unique<core::O2SiteRecRecommender>(ServeModel());
      common::Status prepared;
      {
        ScopedSpan span(spans, "core.prepare_serving");
        prepared = staged->PrepareServing(w.ctx);
      }
      common::StatusOr<serve::SwapReport> report =
          common::InternalError("not run");
      if (prepared.ok()) {
        ScopedSpan span(spans, "serve.swap_call");
        report = engine->SwapSnapshot(paths[next % 2], std::move(staged),
                                      config_hash);
      }
      const double ms = MillisBetween(t0, Clock::now());
      std::lock_guard<std::mutex> lock(mu);
      swap_ms.push_back(ms);
      swaps_done = next;
      if (!prepared.ok() || !report.ok() || !report->promoted ||
          report->epoch != epoch + 1) {
        swap_errors.push_back("swap " + std::to_string(next) +
                              " was not promoted as epoch " +
                              std::to_string(epoch + 1));
      }
      epoch = report.ok() ? report->epoch : epoch;
    }
  });

  const auto cache_before = engine->CacheStats();
  const uint64_t pairs_before = engine->pairs_scored_count();
  Meter meter(static_cast<size_t>(options.seconds * 40000));
  std::vector<std::pair<size_t, serve::RankResponse>> samples;
  std::vector<int64_t> tiers(3, 0);
  int64_t not_ok = 0;
  const auto stop =
      Clock::now() + std::chrono::duration<double>(options.seconds);
  Clock::time_point window_end;
  meter.Start();
  for (size_t call = 0;; ++call) {
    // The probe runs only while no refresh is in flight, so that it times
    // the host and not the refresher: a due chunk boundary waits for the
    // first call after the swap ends. Only this thread posts refreshes,
    // so none can start during the probe.
    if (meter.ChunkDue(call)) {
      bool idle;
      {
        std::lock_guard<std::mutex> lock(mu);
        idle = posted == swaps_done;
      }
      if (idle) meter.EndChunk();
    }
    if (call > 0 && call % kRefreshEvery == 0) {
      std::lock_guard<std::mutex> lock(mu);
      ++posted;
      cv.notify_one();
    }
    const auto& request = ring[call % ring.size()];
    std::optional<ScopedSpan> span;
    if (call % kSpanStride == 0) {
      span.emplace(spans, "serve.rank", static_cast<int64_t>(call));
    }
    const auto t0 = Clock::now();
    if (t0 >= stop) {
      window_end = t0;
      break;
    }
    common::StatusOr<serve::RankResponse> response = engine->Rank(request);
    meter.Record(t0, Clock::now());
    span.reset();
    if (!response.ok()) {
      ++not_ok;
      continue;
    }
    ++tiers[static_cast<int>(response->tier)];
    if (call % kCheckStride == 0) samples.emplace_back(call, *response);
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closing = true;
    cv.notify_one();
  }
  refresher.join();
  // The last chunk ends with the window; its probe waits for the refresher.
  meter.EndChunk(window_end);
  out.attempted = static_cast<int64_t>(meter.calls()) + swaps_done;
  out.failed = not_ok + static_cast<int64_t>(swap_errors.size());

  // Checks.
  out.Check(not_ok == 0, std::to_string(not_ok) + " responses failed");
  out.Check(tiers[1] == 0 && tiers[2] == 0, "a response was not fresh");
  for (const auto& e : swap_errors) out.Check(false, e);
  out.Check(swaps_done > 0, "no refresh ran in the window");
  out.Check(engine->epoch() == 1 + static_cast<uint64_t>(swaps_done),
            "engine epoch does not count the swaps");
  const std::vector<std::vector<double>> tables[2] = {
      PredictTable(*model_a, w, &out), PredictTable(*model_b, w, &out)};
  for (const auto& [call, response] : samples) {
    const auto& request = ring[call % ring.size()];
    // Epoch 1, 3, 5... serve A; 2, 4, 6... serve B.
    const auto& table = tables[(response.epoch + 1) % 2];
    const std::string diff =
        CheckServedRanking(request.candidates, table[request.type],
                           request.k, ToSites(response.sites));
    out.Check(diff.empty(), "call " + std::to_string(call) + " (epoch " +
                                std::to_string(response.epoch) + "): " + diff);
  }

  Meter::Report(setup_clock, {&meter}, &out);
  out.AddLayer("detail.swap_ms", Median(swap_ms), "ms");
  out.AddLayer("serve.swaps", swaps_done, "count");
  if (spans.enabled()) {
    ServeLayers(*engine, cache_before, pairs_before, meter.calls(), tiers,
                &out);
    const double misses_per_call =
        static_cast<double>(engine->pairs_scored_count() - pairs_before) /
        std::max<size_t>(1, meter.calls());
    TimeServingPredict(engine->model(), w,
                       static_cast<int>(std::lround(misses_per_call)), &out);
    out.AddLayer("core.prepare_serving_ms",
                 Median(spans.DurationsMs("core.prepare_serving")), "ms");
    out.AddLayer("serve.swap_call_ms",
                 Median(spans.DurationsMs("serve.swap_call")), "ms");
    // The steps inside a swap, each called on its own on a staged model.
    auto staged = std::make_unique<core::O2SiteRecRecommender>(ServeModel());
    out.Check(staged->PrepareServing(w.ctx).ok(), "PrepareServing failed");
    common::StatusOr<serve::Snapshot> snapshot =
        common::InternalError("not run");
    {
      ScopedSpan span(spans, "serve.snapshot_load");
      snapshot = serve::LoadSnapshot(paths[1]);
    }
    out.Check(snapshot.ok(), "LoadSnapshot failed");
    if (snapshot.ok()) {
      ScopedSpan span(spans, "serve.restore");
      out.Check(serve::RestoreModel(*snapshot, *staged, config_hash).ok(),
                "RestoreModel failed");
    }
    {
      ScopedSpan span(spans, "core.finalize_serving");
      out.Check(staged->FinalizeServing().ok(), "FinalizeServing failed");
    }
    out.AddLayer("serve.snapshot_load_ms",
                 spans.TotalMs("serve.snapshot_load"), "ms");
    out.AddLayer("serve.restore_ms", spans.TotalMs("serve.restore"), "ms");
    out.AddLayer("core.finalize_serving_ms",
                 spans.TotalMs("core.finalize_serving"), "ms");
  }
  std::filesystem::remove_all(dir);
  return out;
}

}  // namespace perfbench
