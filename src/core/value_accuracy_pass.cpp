#include "core/value_accuracy_pass.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/math.h"
#include "common/mutex.h"
#include "kernels/kernels.h"

namespace kbt::core {

std::vector<float> EffectiveConfidence(
    const extract::CompiledMatrix& matrix, bool use_confidence_weights,
    double confidence_threshold, const std::vector<float>* extraction_weights) {
  // The weight multiplies in *after* the thresholding branch, so decay also
  // scales thresholded (0/1) confidences.
  std::vector<float> conf(matrix.num_extractions());
  for (size_t e = 0; e < conf.size(); ++e) {
    const float raw = matrix.ext_conf()[e];
    conf[e] = use_confidence_weights
                  ? raw
                  : (raw > confidence_threshold ? 1.0f : 0.0f);
    if (extraction_weights != nullptr) conf[e] *= (*extraction_weights)[e];
  }
  return conf;
}

std::vector<uint8_t> SupportedSources(const extract::CompiledMatrix& matrix,
                                      int min_support,
                                      const std::vector<uint8_t>& trusted) {
  std::vector<uint8_t> supported(matrix.num_sources(), 0);
  for (uint32_t w = 0; w < matrix.num_sources(); ++w) {
    const auto [b, e] = matrix.SourceSlots(w);
    const bool anchored = !trusted.empty() && trusted[w] != 0;
    supported[w] =
        anchored || static_cast<int>(e - b) >= min_support ? 1 : 0;
  }
  return supported;
}

ValueAccuracyPass::ValueAccuracyPass(const extract::CompiledMatrix& matrix,
                                     ValueModel value_model,
                                     int num_false_override,
                                     kernels::Kind kind,
                                     std::vector<uint8_t> covered_mask)
    : matrix_(matrix),
      value_model_(value_model),
      num_false_override_(num_false_override),
      vectorized_(kind == kernels::Kind::kVectorized),
      covered_mask_(std::move(covered_mask)) {
  const size_t num_slots = matrix.num_slots();
  const size_t num_items = matrix.num_items();

  // The value grouping is a pure function of the static slot layout:
  // discover it once here instead of per item, per iteration.
  slot_vi_.resize(num_slots);
  item_num_values_.resize(num_items);
  kernels::EmScratch scratch;
  for (size_t i = 0; i < num_items; ++i) {
    const auto [b, e] = matrix.ItemSlots(i);
    item_num_values_[i] = kernels::BuildValueIndex(
        b, e, matrix.slot_values().data(), slot_vi_.data(), &scratch);
  }

  // POPACCU's empirical popularity: the share of the item's slots claiming
  // the slot's value. The counts are whole numbers, exact in any order.
  if (value_model == ValueModel::kPopAccu) {
    log_pop_.resize(num_slots);
    std::vector<double> counts;
    for (size_t i = 0; i < num_items; ++i) {
      const auto [b, e] = matrix.ItemSlots(i);
      counts.assign(item_num_values_[i], 0.0);
      for (uint32_t s = b; s < e; ++s) counts[slot_vi_[s]] += 1.0;
      const double total = static_cast<double>(e - b);
      for (uint32_t s = b; s < e; ++s) {
        log_pop_[s] = SafeLog(counts[slot_vi_[s]] / total);
      }
    }
  }

  // The staged E step memoizes one vote per source, which needs one n
  // shared by all items: the override, or all schema n's agreeing (the
  // common case).
  uniform_n_ = num_false_override >= 1 ? num_false_override : -1;
  if (uniform_n_ < 1 && num_items > 0) {
    uniform_n_ = matrix.item_num_false(0);
    for (size_t i = 1; i < num_items; ++i) {
      if (matrix.item_num_false(i) != uniform_n_) {
        uniform_n_ = -1;
        break;
      }
    }
  }
  staged_ = vectorized_ && uniform_n_ >= 1;
  if (staged_) {
    support_mask_.resize(num_slots);
    for (size_t s = 0; s < num_slots; ++s) {
      support_mask_[s] = covered_mask_[s] != 0 ? 1.0 : 0.0;
    }
    src_vote_.resize(matrix.num_sources());
  }
}

double ValueAccuracyPass::TriplePr(const double* weight,
                                   const std::vector<double>& source_accuracy,
                                   dataflow::Executor* executor,
                                   std::vector<double>* slot_value_prob,
                                   std::vector<uint8_t>* slot_covered,
                                   std::vector<double>* item_unobserved) {
  const extract::CompiledMatrix& m = matrix_;
  Mutex delta_mutex;
  double max_delta = 0.0;
  const auto note_delta = [&](double d) {
    MutexLock lock(delta_mutex);
    max_delta = std::max(max_delta, d);
  };

  if (staged_) {
    // Per-iteration memo: kAccu stages weight * SourceVote(A_w, n), POPACCU
    // stages weight * (log-odds(A_w) - log popularity).
    for (size_t w = 0; w < src_vote_.size(); ++w) {
      if (value_model_ == ValueModel::kAccu) {
        src_vote_[w] = SourceVote(source_accuracy[w], uniform_n_);
      } else {
        const double a = ClampProbability(source_accuracy[w]);
        src_vote_[w] = std::log(a / (1.0 - a));
      }
    }
    // Cache-blocked: stage votes for runs of items whose slots fit in one
    // kStageBlock sweep (items are slot-contiguous), then finish each item.
    dataflow::ForRange(executor, m.num_items(), [&](size_t begin, size_t end) {
      double local_delta = 0.0;
      kernels::EmScratch scratch;
      size_t i = begin;
      while (i < end) {
        const uint32_t slot_b = m.ItemSlots(i).first;
        uint32_t slot_e = m.ItemSlots(i).second;
        size_t j = i + 1;
        while (j < end) {
          const uint32_t je = m.ItemSlots(j).second;
          if (je - slot_b > kernels::kStageBlock) break;
          slot_e = je;
          ++j;
        }
        scratch.votes.resize(slot_e - slot_b);
        if (value_model_ == ValueModel::kAccu) {
          kernels::StageVotesMasked(support_mask_.data(), weight,
                                    m.slot_sources().data(), src_vote_.data(),
                                    slot_b, slot_e, scratch.votes.data());
        } else {
          kernels::StageVotesMaskedSub(
              support_mask_.data(), weight, m.slot_sources().data(),
              src_vote_.data(), log_pop_.data(), slot_b, slot_e,
              scratch.votes.data());
        }
        for (; i < j; ++i) {
          const auto [b, e] = m.ItemSlots(i);
          local_delta = std::max(
              local_delta,
              kernels::ItemValuePassIndexed(
                  b, e, scratch.votes.data(), slot_b, covered_mask_.data(),
                  slot_vi_.data(), item_num_values_[i], uniform_n_,
                  slot_value_prob->data(), slot_covered->data(),
                  &(*item_unobserved)[i], &scratch));
        }
      }
      note_delta(local_delta);
    });
    return max_delta;
  }

  // Per-slot votes, exactly as the paper's Eq. 2 transcription.
  dataflow::ForRange(executor, m.num_items(), [&](size_t begin, size_t end) {
    double local_delta = 0.0;
    kernels::EmScratch scratch;
    for (size_t i = begin; i < end; ++i) {
      const auto [b, e] = m.ItemSlots(i);
      const int n =
          num_false_override_ >= 1 ? num_false_override_ : m.item_num_false(i);
      scratch.votes.resize(e - b);
      for (uint32_t s = b; s < e; ++s) {
        double vote = 0.0;
        if (covered_mask_[s]) {
          const double a_w = source_accuracy[m.slot_source(s)];
          if (value_model_ == ValueModel::kAccu) {
            vote = weight[s] * SourceVote(a_w, n);
          } else {
            const double a = ClampProbability(a_w);
            vote = weight[s] * (std::log(a / (1.0 - a)) - log_pop_[s]);
          }
        }
        scratch.votes[s - b] = vote;
      }
      const double delta =
          vectorized_
              ? kernels::ItemValuePassIndexed(
                    b, e, scratch.votes.data(), b, covered_mask_.data(),
                    slot_vi_.data(), item_num_values_[i], n,
                    slot_value_prob->data(), slot_covered->data(),
                    &(*item_unobserved)[i], &scratch)
              : kernels::ItemValuePass(
                    b, e, scratch.votes.data(), b, covered_mask_.data(),
                    m.slot_values().data(), n, slot_value_prob->data(),
                    slot_covered->data(), &(*item_unobserved)[i], &scratch);
      local_delta = std::max(local_delta, delta);
    }
    note_delta(local_delta);
  });
  return max_delta;
}

void ValueAccuracyPass::SrcAccu(const double* weight,
                                const std::vector<double>& slot_value_prob,
                                const std::vector<uint8_t>& source_supported,
                                double min_probability, double max_probability,
                                dataflow::Executor* executor,
                                std::vector<double>* source_accuracy) const {
  const extract::CompiledMatrix& m = matrix_;
  dataflow::ForGroups(executor, m.num_sources(), [&](size_t w) {
    if (!source_supported[w]) return;  // Stays at its initial value.
    const auto [b, e] = m.SourceSlots(static_cast<uint32_t>(w));
    const kernels::Tally tally =
        kernels::TallyIndexed(m.source_slot_index().data() + b, e - b, weight,
                              slot_value_prob.data());
    if (tally.den > 1e-12) {
      (*source_accuracy)[w] =
          Clamp(tally.num / tally.den, min_probability, max_probability);
    }
  });
}

}  // namespace kbt::core
