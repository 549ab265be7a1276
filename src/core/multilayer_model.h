#ifndef KBT_CORE_MULTILAYER_MODEL_H_
#define KBT_CORE_MULTILAYER_MODEL_H_

#include <span>

#include "common/status.h"
#include "dataflow/parallel.h"
#include "dataflow/stage_timer.h"
#include "extract/observation_matrix.h"
#include "core/multilayer_config.h"
#include "core/multilayer_result.h"

namespace kbt::core {

/// The paper's primary contribution: joint inference over extraction
/// correctness (C_wdv), triple truth (V_d), source accuracies (A_w) and
/// extractor quality (P_e, R_e, Q_e) — Algorithm 1 (MULTILAYER).
///
/// Each iteration runs four parallel stages whose timings can be captured
/// for the Table 7 reproduction:
///   I.ExtCorr    p(C_wdv|X)  via vote counts (Eqs. 12-15, confidence-
///                weighted per Section 3.5, Eq. 31);
///   II.TriplePr  p(V_d|X)    via source votes (Eqs. 19-25), weighted by
///                p(C|X) when config.weighted_value_votes;
///   III.SrcAccu  A_w         via Eq. 28 (or the MAP Eq. 27);
///   IV.ExtQuality P_e, R_e   via Eqs. 32-33, then Q_e via Eq. 7;
/// plus the prior update for alpha (Eq. 26) from the configured iteration.
///
/// Absence votes: every extractor group whose scope covers a slot casts its
/// absence vote when it did not extract the slot; the per-slot sum is
/// computed in O(#extractions) using per-scope totals, so an iteration is
/// linear in the number of observations.
class MultiLayerModel {
 public:
  /// Runs inference on a compiled matrix. `initial` may be empty (defaults).
  /// `executor`/`timers` may be null (serial execution, no timings).
  /// `extraction_weights`, when non-null, must hold one multiplier in [0, 1]
  /// per extraction edge (matrix.num_extractions()); it scales each edge's
  /// effective confidence before the votes (the streaming layer's time-decay
  /// hook — Section 3.5 treats confidence as evidence strength, so decayed
  /// evidence is simply weaker evidence). nullptr is bit-for-bit identical
  /// to all-ones.
  static StatusOr<MultiLayerResult> Run(
      const extract::CompiledMatrix& matrix, const MultiLayerConfig& config,
      const InitialQuality& initial = {},
      dataflow::Executor* executor = nullptr,
      dataflow::StageTimers* timers = nullptr,
      const std::vector<float>* extraction_weights = nullptr);
};

/// Presence/absence votes of one extractor group at its current quality
/// (Eqs. 12-13), with the group's absence weight folded in.
struct ExtractorVotes {
  double presence = 0.0;       // Pre_e = log R - log Q
  double weighted_absence = 0.0;  // absence_weight * (log(1-R) - log(1-Q))
};

/// Computes votes from quality parameters; exposed for tests (Table 3).
ExtractorVotes ComputeVotes(double recall, double q, double absence_weight);

/// The calibration intercept and the sweeps over the slots it took.
struct InterceptSolve {
  double tau = 0.0;
  int sweeps = 0;
};

/// Solves mean_s sigmoid(logodds[s] + tau) = target for tau in [-30, 30]
/// by safeguarded Newton, starting from `seed`. Each step is one sweep that
/// sums sigmoid and its derivative over BlockedSum's fixed blocks, so tau
/// is bit-identical for every executor (null runs serially). A step that
/// leaves the shrinking bracket, or a slope of 0, is replaced by
/// bisection. The solve stops when the mean hits the target exactly or
/// the step falls under 1e-13, and returns the last tau it evaluated; a
/// target outside the bracket's reach ends at the nearer bound.
InterceptSolve SolveIntercept(std::span<const double> logodds, double target,
                              double seed, dataflow::Executor* executor);

/// Eq. (26): the re-estimated prior p(C_wdv = 1) given the current triple
/// probability and source accuracy. Example 3.3: (0.004, 0.6) -> ~0.4.
double UpdatedAlpha(double value_prob, double source_accuracy);

}  // namespace kbt::core

#endif  // KBT_CORE_MULTILAYER_MODEL_H_
