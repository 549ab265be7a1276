#ifndef KBT_CORE_MULTILAYER_RESULT_H_
#define KBT_CORE_MULTILAYER_RESULT_H_

#include <cstdint>
#include <vector>

namespace kbt::core {

/// Initial parameter values for one inference run. Empty vectors select the
/// config defaults; non-empty vectors must match the matrix's group counts.
/// The "+" method variants of Table 5 fill these from a gold standard
/// (see core/initialization.h).
struct InitialQuality {
  std::vector<double> source_accuracy;      // per source group
  std::vector<double> extractor_precision;  // per extractor group
  std::vector<double> extractor_recall;     // per extractor group
  /// Direct initial Q_e. When set it wins over `extractor_precision` (which
  /// otherwise derives Q via Eq. 7); this matches the paper's default
  /// initialization, which fixes Q_e = 0.2 rather than a precision.
  std::vector<double> extractor_q;
  /// Sources whose accuracy was anchored by a gold standard. Trusted
  /// sources participate in fusion even below the support threshold — the
  /// paper's coverage rule drops only sources whose accuracy "remains
  /// default over iterations", and a smart-initialized accuracy is not
  /// default. This is why the "+" variants of Table 5 gain coverage.
  std::vector<uint8_t> source_trusted;
};

/// Output of the multi-layer EM (Algorithm 1).
struct MultiLayerResult {
  // ---- Parameters theta ----
  std::vector<double> source_accuracy;   // A_w per source group
  std::vector<uint8_t> source_supported;  // quality left default when 0
  std::vector<double> extractor_precision;  // P_e
  std::vector<double> extractor_recall;     // R_e
  std::vector<double> extractor_q;          // Q_e (Eq. 7)
  std::vector<uint8_t> extractor_supported;

  // ---- Latent posteriors ----
  /// p(C_wdv = 1 | X) per slot.
  std::vector<double> slot_correct_prob;
  /// p(V_d = v_slot | X) per slot (slots of the same (d, v) share it).
  std::vector<double> slot_value_prob;
  /// Final per-slot alpha (prior of correctness, Eq. 26).
  std::vector<double> slot_alpha;
  /// A slot is covered when its item has at least one supported provider.
  std::vector<uint8_t> slot_covered;
  /// Per item: probability mass assigned to each *unobserved* domain value.
  std::vector<double> item_unobserved_value_prob;

  int iterations = 0;
  bool converged = false;
  /// Sweeps over the slots that the calibration intercept's solve took,
  /// summed over iterations (0 when calibration is off).
  int intercept_sweeps = 0;
};

}  // namespace kbt::core

#endif  // KBT_CORE_MULTILAYER_RESULT_H_
