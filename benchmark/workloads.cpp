#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>

namespace kbt::bench {
namespace {

// ---- Shape shared by every workload ----
/// The read load every workload runs during its measured phase.
constexpr int kReaderThreads = 2;
constexpr double kReadPeriod = 1e-3;
/// A tail percentile is reported only with at least this many samples
/// above it.
constexpr size_t kTailBeyond = 10;

// ---- Inputs ----
/// batch_cold: 800k of the skewed KV-sim world's 878k extraction events
/// (whale sites, giant extractor groups: the Table 7 cube).
constexpr size_t kBatchObservations = 800000;
/// stream_ticks: 200k of the default world's 287k; 75% seeds the pipeline,
/// 25% is held out and fed in while the run measures (the set-up's first
/// tick and the 100 timed ones take 50.5k, so the last tick repeats 500
/// observations). Smaller than
/// serve_mixed's cube so that 100 ticks fit in the run.
constexpr size_t kStreamObservations = 200000;
constexpr double kStreamHeldOutFraction = 0.25;
/// serve_mixed: 270k of the default world's 287k; 80% seeds the session,
/// 20% is held out for its appends and ticks.
constexpr size_t kServeObservations = 270000;
constexpr double kServeHeldOutFraction = 0.2;
/// --smoke: the small world, for checking that the benchmark works.
constexpr size_t kSmokeObservations = 5000;

// ---- Work per run. Fixed, so that every run of every commit does the
// same work; sized so that a whole untraced run (input, set-up and the
// measured phase) takes about BENCHMARK.json's run_seconds, 30 s, on the
// 4-vCPU machine it was sized on. ----
/// batch_cold: a warm-up job before the window (the process's first job is
/// slower), and timed jobs in it. Every job's Build is a set-up.
constexpr int kBatchWarmupJobs = 1;
constexpr int kBatchTimedJobs = 7;
/// stream_ticks / serve_mixed: full set-ups per run; setup_s is their
/// median.
constexpr int kSetups = 5;
constexpr int kStreamTicks = 100;
constexpr double kServeWindow = 20.0;
constexpr int kSmokeReps = 2;
constexpr int kSmokeTicks = 10;
constexpr double kSmokeWindow = 3.0;

// ---- stream_ticks ----
constexpr size_t kTickObservations = 500;

// ---- serve_mixed: the offered load ----
constexpr double kAppendPeriod = 0.05;  // 20 appends/s
constexpr size_t kAppendObservations = 64;
constexpr double kServeTickPeriod = 0.5;  // 2 ticks/s
constexpr size_t kServeTickObservations = 256;
constexpr double kServeWarmup = 1.0;

// ---- Gates ----
/// A serve run whose load generator started requests later than this (p99)
/// did not offer the load it claims.
constexpr double kMaxWriterLateMs = 5.0;
/// Requests still queued at the end of the window: more means the service
/// is not keeping up and latency grows with the run length.
constexpr double kMaxBacklog = 2.0;
/// Share of a cold run or a tick its measured parts may leave unexplained.
constexpr double kMaxColdUnattributed = 0.05;
constexpr double kMaxTickUnattributed = 0.10;

/// Bytes the E/M pass (Stages II + III) touches per slot and iteration,
/// under the lower-bound model of bench_table7_efficiency: Stage II staging
/// 36 B + item finisher 17 B + Stage III tally 20 B. Computed, not
/// measured traffic.
constexpr double kEmPassBytesPerSlot = 73.0;

constexpr const char* kSession = "kv";

/// One cold start: FromTsv Build, Run and PublishSnapshot, split by layer.
struct ColdRecord {
  double load_s = 0.0;
  double run_s = 0.0;
  double publish_s = 0.0;
  double granularity_s = 0.0;
  double compile_s = 0.0;
  double inference_s = 0.0;
  double score_s = 0.0;
  double evaluate_s = 0.0;
  double iterations = 0.0;
  double slots = 0.0;
  double edges = 0.0;
  /// CPU seconds over wall seconds x cores, during Run.
  double cpu_util = 0.0;
  // Traced runs only.
  double ext_corr_s_per_iter = 0.0;
  double triple_pr_s_per_iter = 0.0;
  double src_accu_s_per_iter = 0.0;
  double ext_quality_s_per_iter = 0.0;

  double job_s() const { return load_s + run_s + publish_s; }
  double cold_run_s() const { return run_s + publish_s; }
  /// What the Run + publish wall time leaves after its timed parts (it
  /// includes the Initialize stage, microseconds on a cold run).
  double unattributed_s() const {
    return cold_run_s() - (granularity_s + compile_s + inference_s +
                           score_s + evaluate_s + publish_s);
  }
};

struct ColdStart {
  /// Traced runs only. Declared before the pipeline, which points at it.
  std::unique_ptr<dataflow::StageTimers> timers;
  std::unique_ptr<api::Pipeline> pipeline;
  api::TrustReport report;
  ColdRecord record;
};

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double Cores() {
  return std::max(1u, std::thread::hardware_concurrency());
}

double StageSeconds(const api::TrustReport& report, api::Stage stage) {
  const std::string_view name = api::StageName(stage);
  for (const auto& [stage_name, seconds] : report.stage_seconds) {
    if (stage_name == name) return seconds;
  }
  return 0.0;
}

/// Builds a pipeline from the input cube, runs it cold and publishes its
/// snapshot. A traced start attaches StageTimers for the EM stage split.
StatusOr<ColdStart> DoColdStart(const Input& input,
                                dataflow::Executor* executor,
                                const eval::GoldStandard* gold, bool traced) {
  ColdStart cold;
  ColdRecord& record = cold.record;
  if (traced) cold.timers = std::make_unique<dataflow::StageTimers>();

  KBT_TRACE_SPAN("bench.cold_start");
  api::PipelineBuilder builder;
  builder.FromTsv(input.cube_path).WithExecutor(executor);
  if (gold != nullptr) builder.WithGoldStandard(gold);
  if (cold.timers != nullptr) builder.WithStageTimers(cold.timers.get());
  const double start = Now();
  StatusOr<api::Pipeline> built = [&] {
    KBT_TRACE_SPAN("bench.api.load");
    return builder.Build();
  }();
  const double loaded = Now();
  if (!built.ok()) return built.status();
  cold.pipeline = std::make_unique<api::Pipeline>(std::move(*built));
  const double cpu_start = CpuSeconds();
  StatusOr<api::TrustReport> report = [&] {
    KBT_TRACE_SPAN("bench.api.run");
    return cold.pipeline->Run();
  }();
  const double ran = Now();
  const double cpu_end = CpuSeconds();
  if (!report.ok()) return report.status();
  {
    KBT_TRACE_SPAN("bench.query.publish");
    cold.pipeline->PublishSnapshot(*report);
  }
  const double published = Now();

  record.load_s = loaded - start;
  record.run_s = ran - loaded;
  record.publish_s = published - ran;
  record.granularity_s = StageSeconds(*report, api::Stage::kGranularity);
  record.compile_s = StageSeconds(*report, api::Stage::kCompile);
  record.inference_s = StageSeconds(*report, api::Stage::kInference);
  record.score_s = StageSeconds(*report, api::Stage::kScore);
  record.evaluate_s = StageSeconds(*report, api::Stage::kEvaluate);
  record.iterations = report->iterations();
  record.slots = static_cast<double>(report->counts.num_slots);
  record.edges = static_cast<double>(report->counts.num_extractions);
  record.cpu_util = (cpu_end - cpu_start) / ((ran - loaded) * Cores());
  if (cold.timers != nullptr && report->iterations() > 0) {
    const double iterations = report->iterations();
    record.ext_corr_s_per_iter =
        cold.timers->TotalSeconds("I.ExtCorr") / iterations;
    record.triple_pr_s_per_iter =
        cold.timers->TotalSeconds("II.TriplePr") / iterations;
    record.src_accu_s_per_iter =
        cold.timers->TotalSeconds("III.SrcAccu") / iterations;
    record.ext_quality_s_per_iter =
        cold.timers->TotalSeconds("IV.ExtQuality") / iterations;
  }
  cold.report = std::move(*report);
  return cold;
}

template <typename F>
double MedianOf(const std::vector<ColdRecord>& records, F field) {
  std::vector<double> values;
  values.reserve(records.size());
  for (const ColdRecord& record : records) values.push_back(field(record));
  return Median(std::move(values));
}

/// The reads of the measured phase: batch latency and its split.
/// `writer_late_s` adds a write generator's start delays to the load
/// generator's lateness.
void ReportReads(const ReadLoad::Stats& reads,
                 const std::vector<double>& writer_late_s, Result* result) {
  std::vector<double> batch_s;
  std::vector<double> late_s = writer_late_s;
  double lookups_s = 0.0;
  double topk_s = 0.0;
  for (const ReadLoad::Sample& sample : reads.samples) {
    batch_s.push_back(sample.batch_s);
    late_s.push_back(sample.late_s);
    lookups_s += sample.lookups_s;
    topk_s += sample.topk_s;
  }
  const double batches = std::max<double>(1.0, batch_s.size());
  result->Layer("query.read_p50_us", Quantile(batch_s, 0.5) * 1e6, "us");
  result->Layer("query.read_p99_us", Quantile(batch_s, 0.99) * 1e6, "us");
  result->Layer("query.lookup_ns_mean",
                lookups_s / (batches * ReadLoad::kLookupsPerBatch) * 1e9, "ns");
  result->Layer("query.topk_us_mean", topk_s / batches * 1e6, "us");
  result->Layer("loadgen.late_p99_ms", Quantile(late_s, 0.99) * 1e3, "ms");
  result->Diagnostic("loadgen.read_batches", batch_s.size(), "count");
  result->CountOps(batch_s.size(), reads.failed);
}

/// The tail percentile `samples` timings support: the higher of p99 and
/// p90 that has at least kTailBeyond samples above it, else the median.
double TailQuantile(size_t samples) {
  for (const size_t percent : {99, 90}) {
    if (samples * (100 - percent) >= kTailBeyond * 100) return percent / 100.0;
  }
  return 0.5;
}

/// Latency of the workload's updates: from new evidence handed to the
/// system to readers seeing scores that include it. The tail quantile and
/// both sample counts go into the results file next to the metrics.
void ReportUpdates(const std::vector<double>& update_s,
                   const std::vector<double>& setup_s, Result* result) {
  const double tail = TailQuantile(update_s.size());
  result->EndToEnd("setup_s", Median(setup_s), "s");
  result->EndToEnd("update_p50_s", Quantile(update_s, 0.5), "s");
  result->EndToEnd("update_tail_s", Quantile(update_s, tail), "s");
  result->Diagnostic("update.samples", update_s.size(), "count");
  result->Diagnostic("update.tail_quantile", tail, "ratio");
  result->Diagnostic("setup.samples", setup_s.size(), "count");
}

void ReportPeakRss(bool reset, Result* result) {
  result->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  result->Meta("peak_rss_scope", reset ? "set-up and measured phase"
                                       : "whole process");
}

/// A per-layer metric read off every cold start (median over them).
struct ColdField {
  const char* name;
  const char* unit;
  double (*value)(const ColdRecord&);
};
constexpr ColdField kColdLayers[] = {
    {"api.load_s", "s", [](const ColdRecord& r) { return r.load_s; }},
    {"api.cold_run_s", "s", [](const ColdRecord& r) { return r.cold_run_s(); }},
    {"granularity.assign_s", "s",
     [](const ColdRecord& r) { return r.granularity_s; }},
    {"extract.compile_s", "s", [](const ColdRecord& r) { return r.compile_s; }},
    {"core.inference_s", "s", [](const ColdRecord& r) { return r.inference_s; }},
    {"core.ext_corr_s_per_iter", "s",
     [](const ColdRecord& r) { return r.ext_corr_s_per_iter; }},
    {"core.triple_pr_s_per_iter", "s",
     [](const ColdRecord& r) { return r.triple_pr_s_per_iter; }},
    {"core.src_accu_s_per_iter", "s",
     [](const ColdRecord& r) { return r.src_accu_s_per_iter; }},
    {"core.ext_quality_s_per_iter", "s",
     [](const ColdRecord& r) { return r.ext_quality_s_per_iter; }},
    {"api.score_s", "s", [](const ColdRecord& r) { return r.score_s; }},
    {"api.evaluate_s", "s", [](const ColdRecord& r) { return r.evaluate_s; }},
    {"query.publish_s", "s", [](const ColdRecord& r) { return r.publish_s; }},
    {"api.unattributed_s", "s",
     [](const ColdRecord& r) { return r.unattributed_s(); }},
    {"extract.slots", "count", [](const ColdRecord& r) { return r.slots; }},
    {"core.cpu_util", "ratio", [](const ColdRecord& r) { return r.cpu_util; }},
};

/// The cold-start split shared by every workload (traced runs), from the
/// cold starts the run made anyway: the load, the six pipeline stages and
/// publish, the EM stages per iteration. After the measured phase, so that
/// no timed call pays for them: the parser and the validator timed on
/// their own, and a one-thread rerun for parallel efficiency (whose scores
/// must match the reference bit for bit: reductions are thread-count
/// invariant).
Status ReportColdLayers(const std::vector<ColdRecord>& records,
                        const Input& input,
                        const api::TrustReport& reference,
                        const eval::GoldStandard* gold, Result* result) {
  for (const ColdField& field : kColdLayers) {
    result->Layer(field.name, MedianOf(records, field.value), field.unit);
  }
  const auto median = [&records](double (*value)(const ColdRecord&)) {
    return MedianOf(records, value);
  };
  result->Layer("kernels.em_pass_gbps_computed",
                median([](const ColdRecord& r) { return r.slots; }) *
                    kEmPassBytesPerSlot /
                    median([](const ColdRecord& r) {
                      return r.triple_pr_s_per_iter + r.src_accu_s_per_iter;
                    }) /
                    1e9,
                "GB/s");
  result->Diagnostic("core.iterations",
                     median([](const ColdRecord& r) { return r.iterations; }),
                     "count");
  result->Diagnostic("extract.edges",
                     median([](const ColdRecord& r) { return r.edges; }),
                     "count");
  for (const ColdRecord& record : records) {
    if (record.unattributed_s() > kMaxColdUnattributed * record.cold_run_s()) {
      result->Violation("cold run leaves " +
                        std::to_string(record.unattributed_s()) + " s of " +
                        std::to_string(record.cold_run_s()) +
                        " s unattributed");
    }
  }

  {
    const double read_start = Now();
    StatusOr<extract::RawDataset> parsed = [&] {
      KBT_TRACE_SPAN("bench.io.read");
      return io::ReadRawDataset(input.cube_path);
    }();
    const double read_end = Now();
    if (!parsed.ok()) return parsed.status();
    {
      KBT_TRACE_SPAN("bench.io.validate");
      KBT_RETURN_IF_ERROR(io::ValidateRawDataset(*parsed));
    }
    const double read_s = read_end - read_start;
    result->Layer("io.read_s", read_s, "s");
    result->Layer("io.read_mb_per_s",
                  static_cast<double>(input.cube_bytes) / 1e6 / read_s, "MB/s");
    result->Layer("io.validate_s", Now() - read_end, "s");
  }

  dataflow::Executor one_thread(1);
  StatusOr<ColdStart> serial =
      DoColdStart(input, &one_thread, gold, /*traced=*/true);
  if (!serial.ok()) return serial.status();
  result->Layer("core.parallel_speedup",
                serial->record.inference_s /
                    median([](const ColdRecord& r) { return r.inference_s; }),
                "ratio");
  result->Layer("core.ext_corr_parallel_speedup",
                serial->record.ext_corr_s_per_iter /
                    median([](const ColdRecord& r) {
                      return r.ext_corr_s_per_iter;
                    }),
                "ratio");
  if (!SameBits(serial->report.website_kbt, reference.website_kbt) ||
      !SameBits(serial->report.inference.source_accuracy,
                reference.inference.source_accuracy)) {
    result->Violation("a one-thread run scored differently from the "
                      "default executor's");
  }
  return Status::OK();
}

void DescribeInput(const Input& input, Result* result) {
  result->Meta("gen_s", input.gen_s);
  result->Meta("cube_observations", static_cast<double>(input.cube_observations));
  result->Meta("cube_bytes", static_cast<double>(input.cube_bytes));
  result->Meta("held_out_observations", static_cast<double>(input.held_out.size()));
  result->Meta("cores", Cores());
}

exp::KvSimConfig Preset(const Args& args, exp::KvSimConfig full) {
  return args.smoke ? exp::KvSimConfig::Small() : full;
}

/// `count` held-out observations starting at `*cursor` (wrapping; a
/// repeated observation is just more evidence), stamped `timestamp`.
std::vector<stream::TimedObservation> TakeHeldOut(const Input& input,
                                                  size_t count, double timestamp,
                                                  size_t* cursor) {
  std::vector<stream::TimedObservation> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    batch.push_back(stream::TimedObservation{
        input.held_out[(*cursor)++ % input.held_out.size()], timestamp});
  }
  return batch;
}

std::vector<extract::RawObservation> Untimed(
    const std::vector<stream::TimedObservation>& batch) {
  std::vector<extract::RawObservation> observations;
  observations.reserve(batch.size());
  for (const stream::TimedObservation& timed : batch) {
    observations.push_back(timed.observation);
  }
  return observations;
}

ReadLoad::ReaderFactory ReadersOf(
    std::shared_ptr<const query::SnapshotRegistry> registry) {
  return [registry] { return query::SnapshotReader(registry); };
}

}  // namespace

// ---------------------------------------------------------------------------
// batch_cold
// ---------------------------------------------------------------------------

Status RunBatchCold(const Args& args, Result* result) {
  StatusOr<std::unique_ptr<Input>> made = MakeInput(
      Preset(args, exp::KvSimConfig::Skewed()), args.seed,
      args.smoke ? kSmokeObservations : kBatchObservations, 0.0,
      args.out_dir + "/work");
  if (!made.ok()) return made.status();
  const Input& input = **made;
  DescribeInput(input, result);
  const bool rss_reset = ResetPeakRss();
  dataflow::Executor* executor = &dataflow::DefaultExecutor();

  std::vector<ColdRecord> records;
  std::optional<api::TrustReport> reference;
  ReadLoad readers(kReaderThreads, kReadPeriod, args.seed);
  // Every job must score the cube exactly as the first one did.
  const auto check = [&](const api::TrustReport& report) {
    if (!reference.has_value()) {
      reference = report;
    } else if (!SameBits(report.website_kbt, reference->website_kbt) ||
               !SameBits(report.inference.source_accuracy,
                         reference->inference.source_accuracy)) {
      result->Violation("a cold job scored differently from the first one");
    }
  };

  // A job's set-up is its Build: loading the cube into a pipeline. An
  // update is the loaded cube's scores becoming readable: Run +
  // PublishSnapshot. Keeping the TSV parse out of the update also keeps
  // the update steady: on the 4-vCPU Xeon virtual machine this was sized
  // on, parsing the same cube took 1.0 to 2.0 s from job to job.
  std::vector<double> setup_s;
  for (int s = 0; s < kBatchWarmupJobs; ++s) {
    StatusOr<ColdStart> job =
        DoColdStart(input, executor, input.gold.get(), args.trace);
    if (!job.ok()) return job.status();
    setup_s.push_back(job->record.load_s);
    records.push_back(job->record);
    check(job->report);
    readers.Serve(ReadersOf(job->pipeline->snapshot_registry()));
  }

  const int reps = args.smoke ? kSmokeReps : kBatchTimedJobs;
  readers.Start();
  const double window_start = Now();
  std::vector<double> update_s;
  std::vector<double> job_s;
  uint64_t failed = 0;
  for (int r = 0; r < reps; ++r) {
    StatusOr<ColdStart> job =
        DoColdStart(input, executor, input.gold.get(), args.trace);
    if (!job.ok()) {
      std::fprintf(stderr, "cold job failed: %s\n",
                   job.status().ToString().c_str());
      ++failed;
      continue;
    }
    std::fprintf(stderr, "batch_cold rep %d: load %.3f s, run %.3f s\n", r,
                 job->record.load_s, job->record.cold_run_s());
    setup_s.push_back(job->record.load_s);
    update_s.push_back(job->record.cold_run_s());
    job_s.push_back(job->record.job_s());
    records.push_back(job->record);
    check(job->report);
    readers.Serve(ReadersOf(job->pipeline->snapshot_registry()));
  }
  const double window_end = Now();
  readers.Stop();
  ReportPeakRss(rss_reset, result);
  result->CountOps(reps, failed);
  ReportReads(readers.Collect(window_start, window_end), {}, result);
  ReportUpdates(update_s, setup_s, result);
  result->Diagnostic("batch.job_p50_s", Median(job_s), "s");

  if (!reference->metrics.has_value()) {
    result->Violation("the LCWA gold standard produced no metrics");
  } else {
    const double auc = reference->metrics->auc_pr;
    result->Diagnostic("eval.auc_pr", auc, "ratio");
    if (!(auc > 0.5 && auc <= 1.0)) {
      result->Violation("AUC-PR " + std::to_string(auc) +
                        " is no better than chance");
    }
  }
  if (args.trace) {
    KBT_RETURN_IF_ERROR(ReportColdLayers(records, input, *reference,
                                         input.gold.get(), result));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// stream_ticks
// ---------------------------------------------------------------------------

Status RunStreamTicks(const Args& args, Result* result) {
  StatusOr<std::unique_ptr<Input>> made = MakeInput(
      Preset(args, exp::KvSimConfig::Default()), args.seed,
      args.smoke ? kSmokeObservations : kStreamObservations,
      kStreamHeldOutFraction, args.out_dir + "/work");
  if (!made.ok()) return made.status();
  const Input& input = **made;
  DescribeInput(input, result);
  const bool rss_reset = ResetPeakRss();
  dataflow::Executor* executor = &dataflow::DefaultExecutor();

  // Decay off and warm starts on: each tick appends, warm-starts inference
  // from the previous tick and publishes, which pins it bit for bit to the
  // batch calls the traced run replays.
  stream::StreamOptions stream_options;
  stream_options.warm_start = true;

  struct System {
    ColdStart cold;
    std::shared_ptr<stream::QueueFeed> feed;
    std::unique_ptr<stream::StreamEngine> engine;
  };
  std::unique_ptr<System> system;
  std::vector<ColdRecord> records;
  std::vector<double> setup_s;
  // Set-up: a cold start, the engine, and its first tick (which runs cold:
  // the engine has no report to warm-start from yet).
  for (int s = 0; s < kSetups; ++s) {
    const double start = Now();
    auto next = std::make_unique<System>();
    StatusOr<ColdStart> cold =
        DoColdStart(input, executor, nullptr, args.trace);
    if (!cold.ok()) return cold.status();
    next->cold = std::move(*cold);
    next->feed = std::make_shared<stream::QueueFeed>();
    StatusOr<std::unique_ptr<stream::StreamEngine>> engine =
        stream::StreamEngine::Create(next->cold.pipeline.get(), next->feed,
                                     stream_options);
    if (!engine.ok()) return engine.status();
    next->engine = std::move(*engine);
    size_t cursor = 0;
    next->feed->PushBatch(TakeHeldOut(input, kTickObservations, 1.0, &cursor));
    StatusOr<stream::TickResult> first = next->engine->Tick(1.0);
    if (!first.ok()) return first.status();
    if (!first->published) return Status::Internal("first tick published nothing");
    setup_s.push_back(Now() - start);
    records.push_back(next->cold.record);
    system = std::move(next);
  }

  // The traced run replays every batch through the batch calls on a
  // second pipeline with the same history, timing each call; its served
  // scores must end bit-identical to the tick path's.
  std::optional<ColdStart> replay;
  std::optional<api::TrustReport> replay_report;
  std::shared_ptr<const query::Snapshot> replay_snapshot;
  if (args.trace) {
    StatusOr<ColdStart> cold = DoColdStart(input, executor, nullptr, false);
    if (!cold.ok()) return cold.status();
    replay = std::move(*cold);
    size_t cursor = 0;
    KBT_RETURN_IF_ERROR(replay->pipeline->AppendObservations(
        Untimed(TakeHeldOut(input, kTickObservations, 1.0, &cursor))));
    StatusOr<api::TrustReport> report = replay->pipeline->Run();
    if (!report.ok()) return report.status();
    replay_snapshot = replay->pipeline->PublishSnapshot(*report, 1.0);
    replay_report = std::move(*report);
  }

  ReadLoad readers(kReaderThreads, kReadPeriod, args.seed);
  readers.Serve(ReadersOf(system->engine->snapshot_registry()));
  query::SnapshotReader visible(system->engine->snapshot_registry());
  const int ticks = args.smoke ? kSmokeTicks : kStreamTicks;
  size_t cursor = kTickObservations;
  std::vector<double> update_s;
  std::vector<double> tick_s;
  std::vector<double> append_s;
  std::vector<double> run_from_s;
  std::vector<double> iterations;
  std::vector<double> publish_s;
  std::vector<double> diff_s;
  uint64_t failed = 0;
  uint64_t last_sequence = 0;
  readers.Start();
  const double window_start = Now();
  for (int i = 1; i <= ticks; ++i) {
    const double now = 1.0 + i;
    std::vector<stream::TimedObservation> batch =
        TakeHeldOut(input, kTickObservations, now, &cursor);
    std::vector<extract::RawObservation> untimed =
        args.trace ? Untimed(batch) : std::vector<extract::RawObservation>();
    const double start = Now();
    system->feed->PushBatch(std::move(batch));
    const double pushed = Now();
    StatusOr<stream::TickResult> tick = [&] {
      KBT_TRACE_SPAN("bench.stream.tick");
      return system->engine->Tick(now);
    }();
    const double ticked = Now();
    if (!tick.ok() || !tick->published) {
      ++failed;
      continue;
    }
    const query::Snapshot* view = visible.view();
    if (view == nullptr || view->info().sequence != tick->sequence ||
        tick->sequence <= last_sequence) {
      result->Violation("tick " + std::to_string(i) + " published sequence " +
                        std::to_string(tick->sequence) +
                        " but readers do not see it");
    }
    last_sequence = tick->sequence;
    update_s.push_back(Now() - start);
    tick_s.push_back(ticked - pushed);

    if (args.trace) {
      api::Pipeline& pipeline = *replay->pipeline;
      const double t0 = Now();
      {
        KBT_TRACE_SPAN("bench.extract.append");
        KBT_RETURN_IF_ERROR(pipeline.AppendObservations(untimed));
      }
      const double t1 = Now();
      StatusOr<api::TrustReport> report = [&] {
        KBT_TRACE_SPAN("bench.core.run_from");
        return pipeline.RunFrom(*replay_report);
      }();
      const double t2 = Now();
      if (!report.ok()) return report.status();
      std::shared_ptr<const query::Snapshot> snapshot;
      {
        KBT_TRACE_SPAN("bench.query.publish");
        snapshot = pipeline.PublishSnapshot(*report, now);
      }
      const double t3 = Now();
      {
        KBT_TRACE_SPAN("bench.query.diff");
        const query::SnapshotDiff diff =
            query::DiffSnapshots(*replay_snapshot, *snapshot, 10);
        if (diff.after_sequence != snapshot->info().sequence) {
          result->Violation("diff reports the wrong generation");
        }
      }
      const double t4 = Now();
      append_s.push_back(t1 - t0);
      run_from_s.push_back(t2 - t1);
      publish_s.push_back(t3 - t2);
      diff_s.push_back(t4 - t3);
      iterations.push_back(report->iterations());
      replay_snapshot = std::move(snapshot);
      replay_report = std::move(*report);
    }
  }
  const double window_end = Now();
  readers.Stop();
  ReportPeakRss(rss_reset, result);
  result->CountOps(ticks, failed);
  ReportReads(readers.Collect(window_start, window_end), {}, result);
  ReportUpdates(update_s, setup_s, result);
  result->Diagnostic("stream.tick_p50_s", Quantile(tick_s, 0.5), "s");
  result->Diagnostic("stream.tick_p90_s", Quantile(tick_s, 0.9), "s");

  if (args.trace) {
    const std::shared_ptr<const query::Snapshot> served =
        system->engine->snapshot_registry()->Current();
    if (served == nullptr || !SameServedScores(*served, *replay_snapshot)) {
      result->Violation("the tick path and the replayed batch calls serve "
                        "different scores");
    }
    const double tick_mean = Mean(tick_s);
    const double unattributed = tick_mean - (Mean(append_s) + Mean(run_from_s) +
                                             Mean(publish_s) + Mean(diff_s));
    result->Diagnostic("extract.append_p50_s", Median(append_s), "s");
    result->Diagnostic("core.warm_run_p50_s", Median(run_from_s), "s");
    result->Diagnostic("core.warm_iterations_mean", Mean(iterations), "count");
    result->Diagnostic("query.publish_p50_s", Median(publish_s), "s");
    result->Diagnostic("query.diff_p50_s", Median(diff_s), "s");
    result->Diagnostic("stream.tick_mean_s", tick_mean, "s");
    result->Diagnostic("stream.unattributed_mean_s", unattributed, "s");
    if (std::abs(unattributed) > kMaxTickUnattributed * tick_mean) {
      result->Violation("the replayed parts leave " +
                        std::to_string(unattributed) + " s of a " +
                        std::to_string(tick_mean) + " s tick unexplained");
    }
    KBT_RETURN_IF_ERROR(ReportColdLayers(records, input, system->cold.report,
                                         nullptr, result));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

namespace {

/// One write request of the open loop and what became of it.
struct WriteOp {
  bool is_tick = false;
  double due = 0.0;
  bool in_window = false;
  size_t observations = 0;
  std::future<Status> append;
  std::future<StatusOr<stream::TickResult>> tick;
  // Filled by the collector.
  double resolved = 0.0;
  bool ok = false;
};

/// The window's part of a service histogram: `after` minus `before`.
obs::HistogramSnapshot WindowOf(const obs::RegistrySnapshot& before,
                                const obs::RegistrySnapshot& after,
                                const std::string& name,
                                const obs::Labels& labels) {
  const obs::MetricSnapshot* end = after.Find(name, labels);
  if (end == nullptr) return obs::HistogramSnapshot();
  obs::HistogramSnapshot window = end->histogram;
  const obs::MetricSnapshot* begin = before.Find(name, labels);
  if (begin == nullptr || begin->histogram.counts.size() != window.counts.size()) {
    return window;
  }
  for (size_t i = 0; i < window.counts.size(); ++i) {
    window.counts[i] -= begin->histogram.counts[i];
  }
  window.total_weight -= begin->histogram.total_weight;
  window.weighted_sum -= begin->histogram.weighted_sum;
  window.samples -= begin->histogram.samples;
  return window;
}

}  // namespace

Status RunServeMixed(const Args& args, Result* result) {
  StatusOr<std::unique_ptr<Input>> made = MakeInput(
      Preset(args, exp::KvSimConfig::Default()), args.seed,
      args.smoke ? kSmokeObservations : kServeObservations,
      kServeHeldOutFraction, args.out_dir + "/work");
  if (!made.ok()) return made.status();
  const Input& input = **made;
  DescribeInput(input, result);
  const bool rss_reset = ResetPeakRss();
  dataflow::Executor* executor = &dataflow::DefaultExecutor();
  stream::StreamOptions stream_options;
  stream_options.warm_start = true;

  struct System {
    ColdStart cold;  // Its StageTimers outlive the service's pipeline.
    std::unique_ptr<obs::MetricsRegistry> metrics;
    std::shared_ptr<stream::QueueFeed> feed;
    std::unique_ptr<api::TrustService> service;  // Drains first.
  };
  std::unique_ptr<System> system;
  std::vector<ColdRecord> records;
  std::vector<double> setup_s;
  api::TrustReport reference;
  // Set-up: a cold start handed to a fresh service session, the stream
  // attached, and its first (cold) tick resolved.
  for (int s = 0; s < kSetups; ++s) {
    const double start = Now();
    auto next = std::make_unique<System>();
    StatusOr<ColdStart> cold =
        DoColdStart(input, executor, nullptr, args.trace);
    if (!cold.ok()) return cold.status();
    next->cold = std::move(*cold);
    next->metrics = std::make_unique<obs::MetricsRegistry>();
    api::TrustService::ServiceOptions service_options;
    service_options.metrics = next->metrics.get();
    service_options.metrics_label = "bench";
    next->service = std::make_unique<api::TrustService>(service_options);
    KBT_RETURN_IF_ERROR(next->service->CreateSession(
        kSession, std::move(*next->cold.pipeline)));
    next->feed = std::make_shared<stream::QueueFeed>();
    KBT_RETURN_IF_ERROR(
        next->service->AttachStream(kSession, next->feed, stream_options));
    size_t cursor = 0;
    next->feed->PushBatch(
        TakeHeldOut(input, kServeTickObservations, 0.0, &cursor));
    StatusOr<stream::TickResult> first =
        next->service->SubmitTick(kSession, 0.0).get();
    if (!first.ok()) return first.status();
    if (!first->published) return Status::Internal("first tick published nothing");
    setup_s.push_back(Now() - start);
    records.push_back(next->cold.record);
    reference = next->cold.report;
    system = std::move(next);
  }
  api::TrustService& service = *system->service;

  // The open-loop schedule: appends at 20/s, ticks at 2/s, a warm-up
  // second, then the window; it ends on a tick so every append in the
  // window is covered by a later tick.
  const double warmup = kServeWarmup;
  const double window = args.smoke ? kSmokeWindow : kServeWindow;
  std::vector<std::unique_ptr<WriteOp>> ops;
  for (int k = 0;; ++k) {
    const double due = (k + 0.5) * kAppendPeriod;
    if (due >= warmup + window) break;
    auto op = std::make_unique<WriteOp>();
    op->due = due;
    ops.push_back(std::move(op));
  }
  for (int j = 1;; ++j) {
    const double due = j * kServeTickPeriod;
    if (due > warmup + window + 1e-9) break;
    auto op = std::make_unique<WriteOp>();
    op->is_tick = true;
    op->due = due;
    ops.push_back(std::move(op));
  }
  std::sort(ops.begin(), ops.end(),
            [](const std::unique_ptr<WriteOp>& a,
               const std::unique_ptr<WriteOp>& b) { return a->due < b->due; });
  if (!ops.back()->is_tick) return Status::Internal("schedule must end on a tick");

  // Futures resolve in submission order (one FIFO strand), so one
  // collector thread stamps each resolution as it happens.
  Mutex submitted_mutex;
  CondVar submitted_cv;
  size_t submitted = 0;
  std::thread collector([&] {
    for (size_t i = 0; i < ops.size(); ++i) {
      {
        MutexLock lock(submitted_mutex);
        while (submitted <= i) submitted_cv.Wait(submitted_mutex);
      }
      WriteOp& op = *ops[i];
      if (op.is_tick) {
        StatusOr<stream::TickResult> tick = op.tick.get();
        op.resolved = Now();
        op.ok = tick.ok() && tick->published;
      } else {
        const Status status = op.append.get();
        op.resolved = Now();
        op.ok = status.ok();
      }
    }
  });

  ReadLoad readers(kReaderThreads, kReadPeriod, args.seed);
  readers.Serve([&service] {
    StatusOr<query::SnapshotReader> reader = service.Query(kSession);
    return reader.ok() ? *reader : query::SnapshotReader();
  });
  obs::Gauge* depth = system->metrics->GetGauge(
      "kbt_service_queue_depth", {{"service", "bench"}, {"session", kSession}});
  const obs::Labels append_labels{{"kind", "append"}, {"service", "bench"}};
  const obs::Labels tick_labels{{"kind", "tick"}, {"service", "bench"}};
  obs::RegistrySnapshot metrics_before;
  api::TrustService::Stats stats_before;
  std::vector<double> writer_late_s;
  size_t cursor = kServeTickObservations;
  size_t appended = 0;
  size_t fed = kServeTickObservations;
  double backlog_end = 0.0;

  readers.Start();
  const double base = Now() + 0.01;
  bool warm = false;
  for (size_t i = 0; i < ops.size(); ++i) {
    WriteOp& op = *ops[i];
    const double due = base + op.due;
    const double wait = due - Now();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    const double begin = Now();
    op.in_window = op.due > warmup;
    if (op.in_window && !warm) {
      warm = true;
      metrics_before = system->metrics->Snapshot();
      stats_before = service.stats();
    }
    if (op.in_window) writer_late_s.push_back(begin - due);
    if (i + 1 == ops.size()) backlog_end = depth->Value();
    // Times are kept relative to `base` from here on.
    op.due = due;
    if (op.is_tick) {
      KBT_TRACE_SPAN("bench.service.tick");
      system->feed->PushBatch(
          TakeHeldOut(input, kServeTickObservations, op.due - base, &cursor));
      fed += kServeTickObservations;
      op.observations = kServeTickObservations;
      op.tick = service.SubmitTick(kSession, op.due - base);
    } else {
      KBT_TRACE_SPAN("bench.service.append");
      op.observations = kAppendObservations;
      op.append = service.SubmitAppend(
          kSession, Untimed(TakeHeldOut(input, kAppendObservations, 0.0, &cursor)));
      appended += kAppendObservations;
    }
    {
      MutexLock lock(submitted_mutex);
      ++submitted;
    }
    submitted_cv.NotifyOne();
  }
  collector.join();
  const double window_end = Now();
  readers.Stop();
  const obs::RegistrySnapshot metrics_after = system->metrics->Snapshot();
  const api::TrustService::Stats stats_after = service.stats();

  // Update latency: an append's evidence is queryable once the first tick
  // submitted after it resolves; a tick's own feed batch once it resolves.
  std::vector<double> update_s;
  std::vector<double> append_s;
  std::vector<double> tick_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<const WriteOp*> uncovered;
  for (const std::unique_ptr<WriteOp>& op : ops) {
    if (!op->ok) {
      if (op->in_window) {
        ++failed;
      } else {
        result->Violation("a warm-up request failed");
      }
    }
    if (op->in_window) {
      ++attempted;
      (op->is_tick ? tick_s : append_s).push_back(op->resolved - op->due);
    }
    if (!op->is_tick) {
      uncovered.push_back(op.get());
      continue;
    }
    for (const WriteOp* pending : uncovered) {
      if (pending->in_window) update_s.push_back(op->resolved - pending->due);
    }
    uncovered.clear();
    if (op->in_window) update_s.push_back(op->resolved - op->due);
  }
  result->CountOps(attempted, failed);

  // The session served everything it was sent, in full.
  StatusOr<query::SnapshotReader> final_reader = service.Query(kSession);
  const size_t expected = input.cube_observations + appended + fed;
  if (!final_reader.ok() || final_reader->view() == nullptr ||
      final_reader->view()->info().counts.num_observations != expected) {
    result->Violation("the final snapshot does not cover all " +
                      std::to_string(expected) + " observations");
  }
  StatusOr<stream::StreamStats> streaming = service.StreamingStats(kSession);
  if (!streaming.ok() || streaming->observations_ingested != fed) {
    result->Violation("the stream did not ingest every fed observation");
  }

  ReportPeakRss(rss_reset, result);
  ReportReads(readers.Collect(base + warmup, window_end), writer_late_s, result);
  ReportUpdates(update_s, setup_s, result);

  const double writer_late_p99_ms = Quantile(writer_late_s, 0.99) * 1e3;
  result->Diagnostic("loadgen.writer_late_p99_ms", writer_late_p99_ms, "ms");
  if (writer_late_p99_ms > kMaxWriterLateMs) {
    result->Violation("the write generator ran " +
                      std::to_string(writer_late_p99_ms) +
                      " ms late (p99): the offered load was not met");
  }
  result->Diagnostic("api.service_backlog_end", backlog_end, "count");
  if (backlog_end > kMaxBacklog) {
    result->Violation("the service ended the window with " +
                      std::to_string(backlog_end) + " requests queued");
  }
  const auto p50 = [&](const char* name, const obs::Labels& labels) {
    return WindowOf(metrics_before, metrics_after, name, labels).Quantile(0.5);
  };
  result->Diagnostic("api.service_append_queue_wait_p50_s",
                     p50("kbt_service_queue_wait_seconds", append_labels), "s");
  result->Diagnostic("api.service_tick_queue_wait_p50_s",
                     p50("kbt_service_queue_wait_seconds", tick_labels), "s");
  result->Diagnostic("api.service_append_execute_p50_s",
                     p50("kbt_service_execute_seconds", append_labels), "s");
  result->Diagnostic("api.service_tick_execute_p50_s",
                     p50("kbt_service_execute_seconds", tick_labels), "s");
  result->Diagnostic("api.service_append_p50_s", Quantile(append_s, 0.5), "s");
  result->Diagnostic("api.service_append_p90_s", Quantile(append_s, 0.9), "s");
  result->Diagnostic("api.service_tick_p50_s", Quantile(tick_s, 0.5), "s");
  const double submitted_appends = static_cast<double>(
      stats_after.appends_submitted - stats_before.appends_submitted);
  result->Diagnostic(
      "api.service_coalesced_ratio",
      static_cast<double>(stats_after.appends_coalesced -
                          stats_before.appends_coalesced) /
          std::max(1.0, submitted_appends),
      "ratio");

  if (args.trace) {
    KBT_RETURN_IF_ERROR(
        ReportColdLayers(records, input, reference, nullptr, result));
  }
  return Status::OK();
}

}  // namespace kbt::bench
