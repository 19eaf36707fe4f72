// The benchmark binary. Usage:
//
//   perfbench --workload <train_row|serve_hot|serve_refresh|ingest>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//             [--threads <n>] [--clients <n>]
//
// --threads and --clients (1..8) override train_row's pool threads and
// serve_hot's client count for the README's reference figures.
// Prints a human-readable summary, then, as the last line of standard
// output, one JSON object {"correct","attempted","failed","metrics"} with
// every metric the workload measured (run.py selects and completes the
// set BENCHMARK.json names). A traced run also writes the benchmark's
// spans to <out>/trace_<workload>_<seed>.json.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"
#include "obs/trace.h"
#include "workloads.h"

namespace {

using perfbench::Options;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <train_row|serve_hot|"
               "serve_refresh|ingest> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--out") {
      options->out_dir = value;
    } else if (flag == "--threads" || flag == "--clients") {
      const long n = std::strtol(value.c_str(), &end, 10);
      if (*end != '\0' || n < 1 || n > 8) return false;
      (flag == "--threads" ? options->threads : options->clients) =
          static_cast<int>(n);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::ProcessStart();
  Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage();
  std::filesystem::create_directories(options.out_dir);

  perfbench::Spans spans(options.trace);
  perfbench::RunResult result;
  if (options.workload == "train_row") {
    result = perfbench::RunTrainRow(options, spans);
  } else if (options.workload == "serve_hot") {
    result = perfbench::RunServeHot(options, spans);
  } else if (options.workload == "serve_refresh") {
    result = perfbench::RunServeRefresh(options, spans);
  } else if (options.workload == "ingest") {
    result = perfbench::RunIngest(options, spans);
  } else {
    return Usage();
  }

  // The program's own always-on span recorder, read through its API only.
  const o2sr::obs::TraceRecorder& recorder =
      o2sr::obs::TraceRecorder::Global();
  result.AddLayer("obs.trace_spans",
                  static_cast<double>(recorder.span_count()), "count");
  result.AddLayer("obs.trace_dropped_spans",
                  static_cast<double>(recorder.dropped_spans()), "count");
  if (options.trace) {
    const std::string path = options.out_dir + "/trace_" + options.workload +
                             "_" + std::to_string(options.seed) + ".json";
    result.Check(spans.WriteChromeTrace(path), "writing " + path + " failed");
    result.AddLayer("perfbench.spans", static_cast<double>(spans.size()),
                    "count");
  }

  for (const auto& error : result.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  std::vector<perfbench::Metric> metrics = result.end_to_end;
  for (const auto& m : result.end_to_end) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& m : result.per_layer) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    metrics.push_back(m);
  }
  std::printf("%s\n", perfbench::ResultJson(result.errors.empty(),
                                            result.attempted, result.failed,
                                            metrics)
                          .c_str());
  return 0;
}
