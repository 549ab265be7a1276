#ifndef KBT_BENCHMARK_WORKLOADS_H_
#define KBT_BENCHMARK_WORKLOADS_H_

#include "harness.h"

namespace kbt::bench {

// Each workload generates its input from args.seed, sets the system up
// several times (setup_s is the median), runs a fixed amount of work as
// its measured phase under the open-loop read load, checks its outputs,
// and records every metric it measured into `result`: end-to-end always,
// per-layer on a traced run. A non-OK return means the workload could not
// be set up at all.

/// The offline job: FromTsv Build + Run + PublishSnapshot, repeated cold.
Status RunBatchCold(const Args& args, Result* result);

/// Closed-loop StreamEngine ticks over a growing cube.
Status RunStreamTicks(const Args& args, Result* result);

/// One TrustService session under an open-loop mix of appends and ticks.
Status RunServeMixed(const Args& args, Result* result);

}  // namespace kbt::bench

#endif  // KBT_BENCHMARK_WORKLOADS_H_
