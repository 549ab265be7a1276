// kbt_bench: the repository benchmark program. One process runs one
// workload and prints, as its last line, the result the contract in
// BENCHMARK.json describes.
//
//   kbt_bench --workload batch_cold|stream_ticks|serve_mixed
//             [--seed N] [--trace 0|1] [--smoke] [--out DIR]
//
// Every run does a fixed amount of work (see workloads.cpp). Untraced runs
// report the end-to-end metrics; --trace 1 turns on kbt::obs tracing,
// attaches StageTimers, times each layer's public calls from here, and
// reports the per-layer metrics instead, writing a Perfetto trace next to
// the results file. The exit code is 0 only when every correctness gate
// passed and no operation failed.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

using kbt::bench::Args;

// The metric names BENCHMARK.json lists, in its order.
const std::vector<std::string> kEndToEnd = {
    "setup_s",
    "peak_rss_mb",
    "update_p50_s",
    "update_tail_s",
};
const std::vector<std::string> kPerLayer = {
    "api.load_s",
    "io.read_s",
    "io.read_mb_per_s",
    "io.validate_s",
    "api.cold_run_s",
    "granularity.assign_s",
    "extract.compile_s",
    "core.inference_s",
    "core.ext_corr_s_per_iter",
    "core.triple_pr_s_per_iter",
    "core.src_accu_s_per_iter",
    "core.ext_quality_s_per_iter",
    "api.score_s",
    "api.evaluate_s",
    "query.publish_s",
    "api.unattributed_s",
    "extract.slots",
    "kernels.em_pass_gbps_computed",
    "core.cpu_util",
    "core.parallel_speedup",
    "core.ext_corr_parallel_speedup",
    "query.read_p50_us",
    "query.read_p99_us",
    "query.lookup_ns_mean",
    "query.topk_us_mean",
    "loadgen.late_p99_ms",
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "kbt_bench: %s\nusage: kbt_bench --workload "
               "batch_cold|stream_ticks|serve_mixed [--seed N] [--trace 0|1] "
               "[--smoke] [--out DIR]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (!has_value) {
      return Usage(("missing value for " + flag).c_str());
    } else if (flag == "--workload") {
      args.workload = argv[++i];
    } else if (flag == "--seed") {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--trace") {
      const std::string value = argv[++i];
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = argv[++i];
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  using Workload = kbt::Status (*)(const Args&, kbt::bench::Result*);
  Workload run = nullptr;
  if (args.workload == "batch_cold") {
    run = kbt::bench::RunBatchCold;
  } else if (args.workload == "stream_ticks") {
    run = kbt::bench::RunStreamTicks;
  } else if (args.workload == "serve_mixed") {
    run = kbt::bench::RunServeMixed;
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  if (args.trace) kbt::obs::SetTracingEnabled(true);
  kbt::bench::Result result;
  result.Meta("workload", args.workload);
#if defined(__clang__)
  result.Meta("compiler", "clang " __clang_version__);
#else
  result.Meta("compiler", "gcc " __VERSION__);
#endif
  const kbt::Status status = run(args, &result);
  if (!status.ok()) {
    std::fprintf(stderr, "kbt_bench: %s could not run: %s\n",
                 args.workload.c_str(), status.ToString().c_str());
    return 1;
  }
  if (args.trace) {
    kbt::obs::SetTracingEnabled(false);
    const std::string path = args.out_dir + "/trace_" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    std::ofstream trace(path);
    trace << kbt::obs::TraceRecorder::Default().RenderChromeTrace();
    if (!trace) {
      result.Violation("could not write " + path);
    } else {
      std::fprintf(stderr, "trace: %s\n", path.c_str());
    }
  }
  return result.Emit(args, kEndToEnd, kPerLayer) ? 0 : 1;
}
