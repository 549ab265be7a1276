#include "fusion/single_layer.h"

#include <algorithm>
#include <utility>

#include "common/math.h"
#include "core/value_accuracy_pass.h"

namespace kbt::fusion {

StatusOr<SingleLayerResult> SingleLayerModel::Run(
    const extract::CompiledMatrix& matrix, const SingleLayerConfig& config,
    const std::vector<double>& initial_accuracy, dataflow::Executor* executor,
    dataflow::StageTimers* timers, const std::vector<uint8_t>& initial_trusted,
    const std::vector<float>* extraction_weights) {
  const size_t num_slots = matrix.num_slots();
  const uint32_t num_sources = matrix.num_sources();

  if (extraction_weights != nullptr &&
      extraction_weights->size() != matrix.num_extractions()) {
    return Status::InvalidArgument("extraction_weights size mismatch");
  }
  if (!initial_accuracy.empty() && initial_accuracy.size() != num_sources) {
    return Status::InvalidArgument("initial_accuracy size mismatch");
  }
  if (!initial_trusted.empty() && initial_trusted.size() != num_sources) {
    return Status::InvalidArgument("initial_trusted size mismatch");
  }
  if (config.max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }

  SingleLayerResult r;
  r.source_accuracy.assign(num_sources, config.default_accuracy);
  if (!initial_accuracy.empty()) {
    for (uint32_t s = 0; s < num_sources; ++s) {
      r.source_accuracy[s] = Clamp(initial_accuracy[s], config.min_probability,
                                   config.max_probability);
    }
  }
  r.source_supported = core::SupportedSources(
      matrix, config.min_source_support, initial_trusted);
  r.slot_value_prob.assign(num_slots, 0.5);
  r.slot_covered.assign(num_slots, 0);
  r.item_unobserved_value_prob.assign(matrix.num_items(), 0.0);

  // Claim weight per slot: the max effective confidence over its edges
  // (the provenance's own confidence in the claim, or its 0/1 threshold,
  // scaled by any extraction weight), so a slot whose freshest edge
  // decayed carries a weaker claim. A slot votes when its source is
  // supported and its claim weight is positive.
  const std::vector<float> conf = core::EffectiveConfidence(
      matrix, config.use_confidence_weights, config.confidence_threshold,
      extraction_weights);
  std::vector<double> claim_weight(num_slots, 0.0);
  std::vector<uint8_t> covered_mask(num_slots, 0);
  for (size_t s = 0; s < num_slots; ++s) {
    const auto [eb, ee] = matrix.SlotExtractions(s);
    float best = 0.0f;
    for (uint32_t e = eb; e < ee; ++e) best = std::max(best, conf[e]);
    claim_weight[s] = best;
    covered_mask[s] =
        r.source_supported[matrix.slot_source(s)] != 0 && best > 0.0f ? 1 : 0;
  }
  core::ValueAccuracyPass value_pass(matrix, config.value_model,
                                     config.num_false_override, config.kernel,
                                     std::move(covered_mask));

  for (int iteration = 1; iteration <= config.max_iterations; ++iteration) {
    double max_delta = 0.0;
    {  // E step: p(V_d | X, A), Eq. 2.
      const auto t = dataflow::TimeStage(timers, "SL.TriplePr");
      max_delta = value_pass.TriplePr(claim_weight.data(), r.source_accuracy,
                                      executor, &r.slot_value_prob,
                                      &r.slot_covered,
                                      &r.item_unobserved_value_prob);
    }
    {  // M step: A_s, Eq. 4.
      const auto t = dataflow::TimeStage(timers, "SL.SrcAccu");
      value_pass.SrcAccu(claim_weight.data(), r.slot_value_prob,
                         r.source_supported, config.min_probability,
                         config.max_probability, executor,
                         &r.source_accuracy);
    }

    r.iterations = iteration;
    if (max_delta < config.convergence_tol) {
      r.converged = true;
      break;
    }
  }

  return r;
}

std::vector<double> AccuracyByWebsite(const extract::CompiledMatrix& matrix,
                                      const std::vector<double>& slot_probs,
                                      uint32_t num_websites,
                                      double default_accuracy) {
  std::vector<double> sums(num_websites, 0.0);
  std::vector<double> counts(num_websites, 0.0);
  for (size_t s = 0; s < matrix.num_slots(); ++s) {
    const uint32_t site = matrix.slot_website(s);
    if (site >= num_websites) continue;
    sums[site] += slot_probs[s];
    counts[site] += 1.0;
  }
  std::vector<double> out(num_websites, default_accuracy);
  for (uint32_t w = 0; w < num_websites; ++w) {
    if (counts[w] > 0.0) out[w] = sums[w] / counts[w];
  }
  return out;
}

}  // namespace kbt::fusion
