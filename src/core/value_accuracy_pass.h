#ifndef KBT_CORE_VALUE_ACCURACY_PASS_H_
#define KBT_CORE_VALUE_ACCURACY_PASS_H_

#include <cstdint>
#include <vector>

#include "core/multilayer_config.h"
#include "dataflow/parallel.h"
#include "extract/observation_matrix.h"
#include "kernels/kernel_kind.h"

namespace kbt::core {

/// Effective confidence per extraction edge (Section 3.5): the raw
/// confidence, or its 0/1 threshold when `use_confidence_weights` is off,
/// times the edge's multiplier from `extraction_weights` (the streaming
/// layer's time decay). Null weights count as ones; x * 1.0f is exact, so
/// null and all-ones give the same bits.
std::vector<float> EffectiveConfidence(
    const extract::CompiledMatrix& matrix, bool use_confidence_weights,
    double confidence_threshold, const std::vector<float>* extraction_weights);

/// The paper's coverage rule (Section 5.1.2), per source: 1 when it has at
/// least `min_support` slots or `trusted` marks it (a gold-anchored
/// source), else 0. Unsupported sources neither vote nor move. `trusted`
/// may be empty.
std::vector<uint8_t> SupportedSources(const extract::CompiledMatrix& matrix,
                                      int min_support,
                                      const std::vector<uint8_t>& trusted);

/// Stages II and III of Algorithm 1: the triple posterior p(V_d|X)
/// (Eqs. 2/21/25) and the source accuracy A_w (Eqs. 4/27/28). Both models
/// run it. The single-layer baseline (Section 2.2) is the multi-layer
/// model with every extraction taken at face value, so the two differ only
/// in the per-slot weight they pass: p(C|X) or its MAP 0/1 threshold for
/// MultiLayerModel, the claim's max effective confidence for the single
/// layer.
///
/// Built once per Run. It holds the static per-slot streams — the coverage
/// mask, the POPACCU log-popularity and the value index — and picks the
/// kernel path:
///  * the scalar reference computes one vote per slot and finishes each
///    item through kernels::ItemValuePass;
///  * the staged kind, when every item shares one n, stages blocks of slots
///    against a per-source vote memo and finishes through
///    kernels::ItemValuePassIndexed; with per-item n it keeps the per-slot
///    votes and the indexed finisher.
/// Both produce the same bits (tests/kernels/kernel_parity_test.cpp).
class ValueAccuracyPass {
 public:
  /// `covered_mask[s]` is 1 when slot s votes (its source is supported and,
  /// for the single layer, its claim weight is positive); an item is
  /// covered when any of its slots votes. `num_false_override` >= 1
  /// replaces every item's schema n.
  ValueAccuracyPass(const extract::CompiledMatrix& matrix,
                    ValueModel value_model, int num_false_override,
                    kernels::Kind kind, std::vector<uint8_t> covered_mask);

  /// Stage II: votes weight[s] times slot s's source vote, normalized per
  /// item. Writes the slot posteriors, the covered flags and each item's
  /// unobserved-value probability; returns the max |delta p| over slots.
  double TriplePr(const double* weight,
                  const std::vector<double>& source_accuracy,
                  dataflow::Executor* executor,
                  std::vector<double>* slot_value_prob,
                  std::vector<uint8_t>* slot_covered,
                  std::vector<double>* item_unobserved);

  /// Stage III: for each supported source, A_w = sum weight * p(V) / sum
  /// weight over its slots, clamped to [min_probability, max_probability];
  /// a source whose weights sum to at most 1e-12 keeps its accuracy.
  void SrcAccu(const double* weight,
               const std::vector<double>& slot_value_prob,
               const std::vector<uint8_t>& source_supported,
               double min_probability, double max_probability,
               dataflow::Executor* executor,
               std::vector<double>* source_accuracy) const;

 private:
  const extract::CompiledMatrix& matrix_;
  const ValueModel value_model_;
  const int num_false_override_;
  const bool vectorized_;
  /// The n every item shares, or -1 when the schema n's differ.
  int uniform_n_ = -1;
  /// Whether Stage II stages blocks against the per-source vote memo.
  bool staged_ = false;
  std::vector<uint8_t> covered_mask_;
  /// covered_mask_ as 0.0/1.0, the staged path's mask stream.
  std::vector<double> support_mask_;
  /// The staged path's per-source vote memo, refilled every iteration.
  std::vector<double> src_vote_;
  /// SafeLog of each slot's share of its item's slots (POPACCU only).
  std::vector<double> log_pop_;
  /// Slot s's index among its item's distinct values, and their count.
  std::vector<uint32_t> slot_vi_;
  std::vector<uint32_t> item_num_values_;
};

}  // namespace kbt::core

#endif  // KBT_CORE_VALUE_ACCURACY_PASS_H_
