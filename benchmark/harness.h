#ifndef KBT_BENCHMARK_HARNESS_H_
#define KBT_BENCHMARK_HARNESS_H_

// Workload-independent pieces of kbt_bench: timing and order statistics,
// the result record and its two outputs (the results file and the one-line
// contract JSON), peak-RSS probes, input generation, and the open-loop read
// load every workload runs.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kbt/kbt.h"
#include "kbt/sync.h"

namespace kbt::bench {

/// Steady-clock seconds since an arbitrary epoch.
double Now();

/// Quantile q in [0, 1] by linear interpolation between order statistics
/// (position q * (n - 1)); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Settings of one run, from the command line.
struct Args {
  std::string workload;
  uint64_t seed = 20150801;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Tiny inputs and counts: checks that the benchmark works, no metrics.
  bool smoke = false;
  /// Where the results file, traces and the generated cube go.
  std::string out_dir = "build-bench/results";
};

/// Everything one run measured. Metrics come in three kinds: end-to-end
/// (reported by untraced runs), per-layer (reported by traced runs) and
/// diagnostics (results file only). Gates record violations; any violation
/// or failed operation makes the run incorrect.
class Result {
 public:
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  void Diagnostic(const std::string& name, double value,
                  const std::string& unit);
  void Meta(const std::string& name, const std::string& value);
  void Meta(const std::string& name, double value);

  /// Records a failed correctness gate.
  void Violation(const std::string& what);
  /// Adds operations the measured phase attempted and how many failed.
  void CountOps(uint64_t attempted, uint64_t failed);

  bool correct() const { return violations_.empty() && failed_ == 0; }

  /// Prints every metric with its unit, writes the results file under
  /// args.out_dir, and prints the contract line last: the end-to-end
  /// metrics for an untraced run, the per-layer ones for a traced run.
  /// `end_to_end` and `per_layer` name the metrics the contract expects;
  /// a missing one is a violation. Returns correct().
  bool Emit(const Args& args, const std::vector<std::string>& end_to_end,
            const std::vector<std::string>& per_layer);

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> end_to_end_;
  std::map<std::string, Value> layer_;
  std::map<std::string, Value> diagnostics_;
  std::map<std::string, std::string> meta_;
  std::vector<std::string> violations_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS through
/// /proc/self/clear_refs. False when the file is not writable; the peak
/// then covers the whole process.
bool ResetPeakRss();
/// VmHWM in MB (10^6 bytes); 0 when /proc/self/status is unreadable.
double PeakRssMb();

/// A generated workload input. The program under test sees only the cube
/// file (and, for the streaming workloads, the held-out observations fed
/// to it); the world stays alive because the LCWA gold standard refers
/// into it. The destructor deletes the cube file.
struct Input {
  Input() = default;
  ~Input();
  Input(const Input&) = delete;
  Input& operator=(const Input&) = delete;

  std::unique_ptr<exp::KvSimData> world;
  std::unique_ptr<eval::GoldStandard> gold;
  std::string cube_path;
  uint64_t cube_bytes = 0;
  size_t cube_observations = 0;
  /// Observations withheld from the cube, in generation order.
  std::vector<extract::RawObservation> held_out;
  /// Generator seconds (metadata, not a metric).
  double gen_s = 0.0;
};

/// Generates the KV-sim world of `preset` (its own fixed seeds), draws
/// `observations` of its extraction events with `seed` (order kept; all of
/// them when the world has fewer), withholds `held_out_fraction` of those,
/// again drawn with `seed`, and writes the rest as a TSV cube under `dir`.
/// The world is fixed so that every seed asks for the same amount and
/// shape of work; the seed picks which evidence the cube holds and which
/// arrives later. Same seed, same input.
StatusOr<std::unique_ptr<Input>> MakeInput(const exp::KvSimConfig& preset,
                                           uint64_t seed, size_t observations,
                                           double held_out_fraction,
                                           const std::string& dir);

/// Open-loop read load: `threads` reader threads, each starting one read
/// batch every `period` seconds on a fixed schedule (a late reader catches
/// up, it never skips). A batch is kLookupsPerBatch SourceTrust lookups on
/// random source ids plus TopKSources(kTopK) against the currently served
/// snapshot, and is checked: every in-range id must resolve, and top-k
/// must be ranked. Batch latency runs from batch start to batch end (reads
/// never queue); how late a batch started is recorded separately.
class ReadLoad {
 public:
  static constexpr int kLookupsPerBatch = 64;
  static constexpr size_t kTopK = 10;

  using ReaderFactory = std::function<query::SnapshotReader()>;

  /// One read batch's timings; `due` is its scheduled start.
  struct Sample {
    double due = 0.0;
    double batch_s = 0.0;
    double lookups_s = 0.0;
    double topk_s = 0.0;
    double late_s = 0.0;
  };
  struct Stats {
    std::vector<Sample> samples;
    uint64_t failed = 0;
  };

  ReadLoad(int threads, double period, uint64_t seed);
  ~ReadLoad();
  ReadLoad(const ReadLoad&) = delete;
  ReadLoad& operator=(const ReadLoad&) = delete;

  /// Points every reader at a new source of snapshots; each thread builds
  /// its own SnapshotReader from `factory` before its next batch.
  void Serve(ReaderFactory factory);
  void Start();
  /// Stops and joins the reader threads. Idempotent.
  void Stop();
  /// Samples whose scheduled start lies in [from, to), and the failed
  /// batches among them. Call after Stop().
  Stats Collect(double from, double to) const;

 private:
  struct Thread;
  void Loop(Thread* self);

  const double period_;
  const uint64_t seed_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> generation_{0};
  mutable Mutex mutex_;
  ReaderFactory factory_ KBT_GUARDED_BY(mutex_);
  /// Declared last: the threads use every member above.
  std::vector<std::unique_ptr<Thread>> threads_;
};

/// Bitwise equality of two double vectors.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b);
/// Bitwise equality of two KBT score vectors.
bool SameBits(const std::vector<core::KbtScore>& a,
              const std::vector<core::KbtScore>& b);
/// Whether two snapshots serve bit-identical scores: every source, every
/// website and every triple, with the same shape.
bool SameServedScores(const query::Snapshot& a, const query::Snapshot& b);

}  // namespace kbt::bench

#endif  // KBT_BENCHMARK_HARNESS_H_
