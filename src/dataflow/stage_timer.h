#ifndef KBT_DATAFLOW_STAGE_TIMER_H_
#define KBT_DATAFLOW_STAGE_TIMER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/stopwatch.h"
#include "kbt/obs.h"

namespace kbt::dataflow {

/// Accumulates wall-clock time per named pipeline stage. The stage labels
/// recorded today (also the `stage` label of kbt_em_stage_seconds):
///  * "Pipeline.<Stage>" — each api::Stage of a Pipeline run
///    ("Pipeline.Granularity" ... "Pipeline.Evaluate");
///  * "Prep.Source", "Prep.Extractor" — SPLITANDMERGE preparation;
///  * "I.ExtCorr", "II.TriplePr", "III.SrcAccu", "IV.ExtQuality" — the
///    multi-layer EM stages, once per iteration each;
///  * "I.Intercept" — the calibration intercept's solve, nested inside
///    "I.ExtCorr" (which still covers the whole stage);
///  * "Scopes" — the multi-layer vote refresh and slot-mass loop, the scope
///    bookkeeping between the stages (twice per iteration);
///  * "Alpha" — the multi-layer prior update of Eq. 26, once per iteration
///    from `alpha_update_start_iteration` on;
///  * "SL.TriplePr", "SL.SrcAccu" — the single-layer E and M steps.
/// Nested labels overlap their parent, so do not sum every entry.
class StageTimers {
 public:
  StageTimers() = default;
  StageTimers(const StageTimers&) = delete;
  StageTimers& operator=(const StageTimers&) = delete;

  /// Adds `seconds` to `stage`'s total and bumps its invocation count.
  void Add(const std::string& stage, double seconds);

  /// Total seconds accumulated for `stage` (0 when unknown).
  double TotalSeconds(const std::string& stage) const;

  /// Invocations recorded for `stage`.
  int Count(const std::string& stage) const;

  /// Mean seconds per invocation (0 when never recorded).
  double MeanSeconds(const std::string& stage) const;

  /// All (stage, total seconds) pairs in lexicographic stage order.
  std::vector<std::pair<std::string, double>> Entries() const;

  void Clear();

  /// RAII scope: records elapsed time into `timers` under `stage` when
  /// destroyed.
  class Scope {
   public:
    Scope(StageTimers& timers, std::string stage)
        : timers_(timers), stage_(std::move(stage)) {}
    ~Scope() { timers_.Add(stage_, watch_.ElapsedSeconds()); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    StageTimers& timers_;
    std::string stage_;
    Stopwatch watch_;
  };

 private:
  struct Entry {
    double total_seconds = 0.0;
    int count = 0;
    /// Cached kbt_em_stage_seconds{stage=...} handle on the process-wide
    /// obs registry (resolved on first Add, null until then).
    obs::Histogram* histogram = nullptr;
  };

  mutable Mutex mutex_;
  std::map<std::string, Entry> entries_ KBT_GUARDED_BY(mutex_);
};

/// Times the enclosing block under `stage` when `timers` is set: hold the
/// returned scope for the block's duration.
inline std::unique_ptr<StageTimers::Scope> TimeStage(StageTimers* timers,
                                                     const char* stage) {
  if (timers == nullptr) return nullptr;
  return std::make_unique<StageTimers::Scope>(*timers, stage);
}

}  // namespace kbt::dataflow

#endif  // KBT_DATAFLOW_STAGE_TIMER_H_
