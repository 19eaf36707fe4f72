// The four benchmark workloads. Each fills a RunResult with its
// end-to-end metrics (always) and its per-layer metrics (traced runs).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

RunResult RunTrainRow(const Options& options, Spans& spans);
RunResult RunServeHot(const Options& options, Spans& spans);
RunResult RunServeRefresh(const Options& options, Spans& spans);
RunResult RunIngest(const Options& options, Spans& spans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
