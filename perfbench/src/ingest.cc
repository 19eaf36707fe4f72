// ingest: the out-of-core data path. StreamGenerate writes a city of about
// 0.69 M orders into a fresh directory under a 64 MiB memory budget (4
// region blocks); DatasetReader::Open, AggregateSpill and the
// graph builds then read it back. The directory is removed at the end of
// each round: a leftover one would let the next ingest resume and skip
// every shard.
#include <algorithm>
#include <filesystem>
#include <string>

#include "exec/thread_pool.h"
#include "features/stream_aggregate.h"
#include "graphs/hetero_graph.h"
#include "graphs/mobility_graph.h"
#include "sim/stream.h"
#include "sim/world.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace o2sr;
namespace fs = std::filesystem;

constexpr int kMemBudgetMb = 64;

sim::SimConfig IngestCity(uint64_t seed) {
  sim::SimConfig cfg;
  cfg.city_width_m = 16000.0;
  cfg.city_height_m = 16000.0;  // 32 x 32 regions
  cfg.num_store_types = 40;
  cfg.num_stores = 6000;
  cfg.num_couriers = 3000;
  cfg.num_days = 5;
  cfg.peak_orders_per_region_slot = 12.0;
  cfg.seed = 7000 + seed;
  return cfg;
}

// A small city for the budget-invariance check.
sim::SimConfig SmallCity(uint64_t seed) {
  sim::SimConfig cfg;
  cfg.city_width_m = 8000.0;
  cfg.city_height_m = 8000.0;
  cfg.num_store_types = 12;
  cfg.num_stores = 1000;
  cfg.num_couriers = 500;
  cfg.num_days = 3;
  cfg.seed = 8000 + seed;
  return cfg;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

// Generates `config` into a fresh `dir` with `block_regions` regions per
// block (0 = the budget's automatic blocking) and returns the fingerprint
// of its aggregates, or 0.
uint64_t AggregateFingerprint(const sim::SimConfig& config,
                              const std::string& dir, int block_regions,
                              int* blocks, RunResult* out) {
  fs::remove_all(dir);
  sim::StreamOptions options;
  options.data_dir = dir;
  options.mem_budget_mb = kMemBudgetMb;
  options.block_regions = block_regions;
  auto written = sim::StreamGenerate(config, options);
  out->Check(written.ok(), "small-city StreamGenerate failed");
  uint64_t fingerprint = 0;
  if (written.ok()) {
    *blocks = written->num_blocks;
    auto reader = sim::DatasetReader::Open(config, dir, {});
    auto stats = reader.ok() ? features::AggregateSpill(*reader, nullptr)
                             : common::StatusOr<features::OrderStats>(
                                   reader.status());
    out->Check(stats.ok(), "small-city read-back failed");
    if (stats.ok()) fingerprint = features::FingerprintOrderStats(*stats);
  }
  fs::remove_all(dir);
  return fingerprint;
}

}  // namespace

RunResult RunIngest(const Options& options, Spans& spans) {
  RunResult out;
  HostClock clock(ProcessStart());
  clock.ProbeFirst();
  // The graph builds run on one lane, like the serving workloads; without
  // a scope they would take the process-wide pool, one lane per CPU.
  exec::ThreadPool pool(1, "perfbench.pool");
  exec::PoolScope pool_scope(&pool);
  const std::string base =
      options.out_dir + "/ingest_" + std::to_string(options.seed);

  // Set-up: aggregates of a small city, generated under two different
  // blockings, must fingerprint equal (shard contents are block-invariant).
  // The second blocking is coarse (2 blocks against the automatic 4): a
  // fine one (32 blocks, about 100 shards, each followed by a manifest
  // rewrite) made set-up time swing 2-5x with the file system's load.
  {
    const sim::SimConfig small = SmallCity(options.seed);
    int blocks_a = 0, blocks_b = 0;
    const uint64_t a =
        AggregateFingerprint(small, base + "_small", 0, &blocks_a, &out);
    clock.Tick();
    const uint64_t b =
        AggregateFingerprint(small, base + "_small", 128, &blocks_b, &out);
    out.Check(blocks_a != blocks_b, "the two blockings did not differ");
    out.Check(a != 0 && a == b,
              "aggregates differ between two memory budgets");
  }
  clock.Tick();
  const double raw_setup_s = clock.raw_s();
  const double setup_s = clock.scaled_s();

  // Measured: whole rounds of generate + read back, for --seconds.
  const sim::SimConfig city = IngestCity(options.seed);
  const std::string dir = base + "_city";
  // Raw and host-speed-scaled figures per round; the clock ticks at each
  // phase's start and end, and between the steps of the read-back.
  std::vector<double> write_rates, read_ms, read_rates;
  std::vector<double> scaled_write_rates, scaled_read_ms;
  double run_raw_s = 0.0, run_scaled_s = 0.0;
  // Operations are shards. A round that fails counts every shard it was
  // to write and read back as failed: the previous round's count, or 1
  // when no round has succeeded (then every operation failed anyway).
  int shards_per_round = 1;
  const auto start = Clock::now();
  do {
    fs::remove_all(dir);
    sim::StreamOptions stream;
    stream.data_dir = dir;
    stream.mem_budget_mb = kMemBudgetMb;
    clock.Tick();
    const double raw0 = clock.raw_s(), scaled0 = clock.scaled_s();
    common::StatusOr<sim::StreamResult> written =
        common::InternalError("not run");
    {
      ScopedSpan span(spans, "sim.stream_generate");
      written = sim::StreamGenerate(city, stream);
    }
    clock.Tick();
    const double raw1 = clock.raw_s(), scaled1 = clock.scaled_s();
    if (!written.ok()) {
      out.Check(false, "StreamGenerate failed: " + written.status().ToString());
      out.attempted += shards_per_round;
      out.failed += shards_per_round;
      break;
    }
    shards_per_round = written->shards_written;
    out.attempted += shards_per_round;
    out.Check(written->shards_skipped == 0 && written->quarantined == 0,
              "ingest skipped or quarantined a shard");
    out.Check(written->num_blocks >= 4, "ingest used fewer than 4 blocks");

    common::StatusOr<sim::DatasetReader> reader =
        common::InternalError("not run");
    {
      ScopedSpan span(spans, "sim.reader_open");
      reader = sim::DatasetReader::Open(city, dir, {});
    }
    out.Check(reader.ok(), "DatasetReader::Open failed");
    if (!reader.ok()) {
      out.failed += shards_per_round;
      break;
    }
    clock.Tick();
    sim::SpillReadReport report;
    common::StatusOr<features::OrderStats> stats =
        common::InternalError("not run");
    {
      ScopedSpan span(spans, "features.aggregate_spill");
      stats = features::AggregateSpill(*reader, &report);
    }
    out.Check(stats.ok(), "AggregateSpill failed");
    if (!stats.ok()) {
      out.failed += shards_per_round;
      break;
    }
    clock.Tick();
    size_t graph_size = 0;
    {
      ScopedSpan span(spans, "graphs.from_stats");
      const sim::Dataset world = sim::WorldDataset(reader->world());
      const graphs::HeteroMultiGraph hetero(world, *stats);
      const graphs::MobilityMultiGraph mobility(*stats);
      graph_size = hetero.num_store_nodes() + mobility.TotalEdges();
    }
    clock.Tick();
    const double raw2 = clock.raw_s(), scaled2 = clock.scaled_s();
    out.Check(graph_size > 0, "graphs built from the aggregates are empty");

    // Every written row is counted once by store region and once by
    // customer region.
    double store_orders = 0.0, customer_orders = 0.0;
    for (int s = 0; s < stats->num_regions(); ++s) {
      store_orders += stats->TotalStoreRegionOrders(s);
    }
    for (int p = 0; p < sim::kNumPeriods; ++p) {
      for (int u = 0; u < stats->num_regions(); ++u) {
        for (int a = 0; a < stats->num_types(); ++a) {
          customer_orders += stats->CustomerOrders(p, u, a);
        }
      }
    }
    const double rows = static_cast<double>(written->total_rows);
    out.Check(store_orders == rows,
              "store-region orders differ from the rows written");
    out.Check(customer_orders == rows,
              "customer orders differ from the rows written");
    out.Check(report.quarantined == 0 && report.regenerated == 0 &&
                  report.skipped == 0,
              "read-back quarantined, regenerated or skipped a shard");
    out.Check(PeakRssMb() <= written->resolved_mem_budget_mb,
              "peak RSS exceeds the ingest's memory budget");

    write_rates.push_back(rows / (raw1 - raw0));
    scaled_write_rates.push_back(rows / (scaled1 - scaled0));
    read_ms.push_back((raw2 - raw1) * 1e3);
    read_rates.push_back(rows / (raw2 - raw1));
    scaled_read_ms.push_back((scaled2 - scaled1) * 1e3);
    run_raw_s += raw2 - raw0;
    run_scaled_s += scaled2 - scaled0;
    if (spans.enabled() && write_rates.size() == 1) {
      out.AddLayer("sim.shards", written->shards_written, "count");
      out.AddLayer("sim.shard_bytes", static_cast<double>(DirBytes(dir)), "B");
    }
    fs::remove_all(dir);
  } while (SecondsBetween(start, Clock::now()) < options.seconds);
  fs::remove_all(dir);

  ReportEndToEnd({.raw_setup_s = raw_setup_s,
                  .setup_s = setup_s,
                  .raw_throughput = Median(write_rates),
                  .throughput = Median(scaled_write_rates),
                  .raw_latency_ms = Median(read_ms),
                  .latency_ms = Median(scaled_read_ms),
                  .run_slowdown = run_raw_s / run_scaled_s},
                 &out);
  out.AddLayer("detail.ingest_orders_per_s", Median(write_rates), "1/s");
  out.AddLayer("detail.readback_orders_per_s", Median(read_rates), "1/s");
  out.AddLayer("detail.ingest_rounds", write_rates.size(), "count");
  if (!spans.enabled()) return out;
  const double rounds = std::max<size_t>(1, write_rates.size());
  out.AddLayer("sim.stream_generate_ms",
               spans.TotalMs("sim.stream_generate") / rounds, "ms");
  out.AddLayer("sim.reader_open_ms", spans.TotalMs("sim.reader_open") / rounds,
               "ms");
  out.AddLayer("features.aggregate_spill_ms",
               spans.TotalMs("features.aggregate_spill") / rounds, "ms");
  out.AddLayer("graphs.from_stats_ms",
               spans.TotalMs("graphs.from_stats") / rounds, "ms");
  return out;
}

}  // namespace perfbench
