#include "core/multilayer_model.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/math.h"
#include "common/mutex.h"
#include "core/value_accuracy_pass.h"
#include "kernels/kernels.h"

namespace kbt::core {

namespace {

using dataflow::ForGroups;
using dataflow::ForRange;
using dataflow::TimeStage;
using extract::CompiledMatrix;
using extract::ExtractorScope;
using extract::kAnyScope;

uint64_t PackPredSite(uint32_t pred, uint32_t site) {
  return (static_cast<uint64_t>(pred) << 32) | site;
}

/// Per-Run dense index of the extractor scopes. Slots map to the distinct
/// (predicate, website) pairs they carry, and every extractor group to the
/// one bucket its scope names. Ids are handed out in slot order, first seen
/// first, so the layout is deterministic, and every array is sized by the
/// number of distinct ids seen, never by an id's value.
///
/// Bucket layout: [0] is the global bucket, then one bucket per predicate,
/// per website and per pair, in that order, then one bucket that covers no
/// slot, for group scopes that match none.
struct ScopeIndex {
  std::vector<uint32_t> slot_pair;     // per slot: pair id
  std::vector<uint32_t> pair_pred;     // per pair: its predicate's bucket
  std::vector<uint32_t> pair_site;     // per pair: its website's bucket
  std::vector<uint32_t> group_bucket;  // per extractor group
  uint32_t pair_base = 0;              // bucket of pair 0
  uint32_t num_buckets = 0;

  size_t num_pairs() const { return pair_pred.size(); }
};

ScopeIndex BuildScopeIndex(const CompiledMatrix& matrix) {
  ScopeIndex index;
  std::unordered_map<uint64_t, uint32_t> pair_ids;
  std::unordered_map<uint32_t, uint32_t> pred_ids;
  std::unordered_map<uint32_t, uint32_t> site_ids;
  index.slot_pair.resize(matrix.num_slots());
  for (size_t s = 0; s < matrix.num_slots(); ++s) {
    const uint32_t pred = matrix.slot_predicate(s);
    const uint32_t site = matrix.slot_website(s);
    const auto [it, inserted] = pair_ids.try_emplace(
        PackPredSite(pred, site), static_cast<uint32_t>(pair_ids.size()));
    if (inserted) {
      index.pair_pred.push_back(
          pred_ids.try_emplace(pred, static_cast<uint32_t>(pred_ids.size()))
              .first->second);
      index.pair_site.push_back(
          site_ids.try_emplace(site, static_cast<uint32_t>(site_ids.size()))
              .first->second);
    }
    index.slot_pair[s] = it->second;
  }
  const uint32_t pred_base = 1;
  const uint32_t site_base = pred_base + static_cast<uint32_t>(pred_ids.size());
  index.pair_base = site_base + static_cast<uint32_t>(site_ids.size());
  const uint32_t none =
      index.pair_base + static_cast<uint32_t>(pair_ids.size());
  index.num_buckets = none + 1;
  for (uint32_t& b : index.pair_pred) b += pred_base;
  for (uint32_t& b : index.pair_site) b += site_base;

  const auto bucket_of = [none](const auto& ids, auto key, uint32_t base) {
    const auto it = ids.find(key);
    return it == ids.end() ? none : base + it->second;
  };
  index.group_bucket.resize(matrix.num_extractor_groups());
  for (uint32_t g = 0; g < matrix.num_extractor_groups(); ++g) {
    const ExtractorScope& scope = matrix.extractor_scope(g);
    const bool any_pred = scope.predicate == kAnyScope;
    const bool any_site = scope.website == kAnyScope;
    if (any_pred && any_site) {
      index.group_bucket[g] = 0;
    } else if (any_site) {
      index.group_bucket[g] = bucket_of(pred_ids, scope.predicate, pred_base);
    } else if (any_pred) {
      index.group_bucket[g] = bucket_of(site_ids, scope.website, site_base);
    } else {
      index.group_bucket[g] =
          bucket_of(pair_ids, PackPredSite(scope.predicate, scope.website),
                    index.pair_base);
    }
  }
  return index;
}

/// Per-scope additive totals over a ScopeIndex's buckets. Two uses per
/// iteration:
///  * absence universe: each extractor group deposits its weighted absence
///    vote into the bucket matching its scope; a slot's total absence
///    evidence is the SUM over all four bucket levels covering it;
///  * recall denominators: each slot deposits p(C=1|X) into its exact
///    (predicate, website) bucket plus the coarser levels; a group reads the
///    ONE bucket matching its scope.
/// Each bucket adds its deposits in call order, so callers that deposit in
/// group or slot order get sums that do not depend on the executor.
class ScopeTable {
 public:
  explicit ScopeTable(const ScopeIndex& index)
      : index_(index), bucket_(index.num_buckets, 0.0) {}

  void Clear() { std::fill(bucket_.begin(), bucket_.end(), 0.0); }

  /// Deposits `v` into the bucket of group `g`'s scope.
  void AddForGroup(uint32_t g, double v) {
    bucket_[index_.group_bucket[g]] += v;
  }

  /// Deposits `v` into every level covering slot `s`.
  void AddForSlot(size_t s, double v) {
    const uint32_t pair = index_.slot_pair[s];
    bucket_[0] += v;
    bucket_[index_.pair_pred[pair]] += v;
    bucket_[index_.pair_site[pair]] += v;
    bucket_[index_.pair_base + pair] += v;
  }

  /// Total over the four buckets covering the slots of pair `pair`.
  double SumCovering(uint32_t pair) const {
    double total = bucket_[0];
    total += bucket_[index_.pair_pred[pair]];
    total += bucket_[index_.pair_site[pair]];
    total += bucket_[index_.pair_base + pair];
    return total;
  }

  /// Value of the single bucket matching group `g`'s scope.
  double AtGroup(uint32_t g) const { return bucket_[index_.group_bucket[g]]; }

 private:
  const ScopeIndex& index_;
  std::vector<double> bucket_;
};

}  // namespace

ExtractorVotes ComputeVotes(double recall, double q, double absence_weight) {
  ExtractorVotes v;
  v.presence = PresenceVote(recall, q);
  v.weighted_absence = absence_weight * AbsenceVote(recall, q);
  return v;
}

InterceptSolve SolveIntercept(std::span<const double> logodds, double target,
                              double seed, dataflow::Executor* executor) {
  constexpr double kBound = 30.0;
  constexpr double kTolerance = 1e-13;
  constexpr int kMaxSweeps = 100;
  const double n = static_cast<double>(logodds.size());
  double lo = -kBound;
  double hi = kBound;
  InterceptSolve out;
  out.tau = Clamp(seed, lo, hi);
  while (true) {
    const double tau = out.tau;
    const auto [mass, slope] = dataflow::BlockedSumPair(
        executor, logodds.size(), [&](size_t begin, size_t end) {
          double m = 0.0;
          double d = 0.0;
          for (size_t s = begin; s < end; ++s) {
            const double c = Sigmoid(logodds[s] + tau);
            m += c;
            d += c * (1.0 - c);
          }
          return std::pair<double, double>(m, d);
        });
    ++out.sweeps;
    const double f = mass / n - target;
    if (f == 0.0 || out.sweeps == kMaxSweeps) return out;
    if (f < 0.0) {
      lo = tau;
    } else {
      hi = tau;
    }
    if (slope > 0.0) {
      const double step = f / (slope / n);
      if (std::fabs(step) < kTolerance) return out;
      const double next = tau - step;
      if (next > lo && next < hi) {
        out.tau = next;
        continue;
      }
    }
    // The Newton step left the bracket or the slope vanished: bisect.
    const double mid = 0.5 * (lo + hi);
    if (std::fabs(mid - tau) < kTolerance) return out;
    out.tau = mid;
  }
}

double UpdatedAlpha(double value_prob, double source_accuracy) {
  return value_prob * source_accuracy +
         (1.0 - value_prob) * (1.0 - source_accuracy);
}

StatusOr<MultiLayerResult> MultiLayerModel::Run(
    const CompiledMatrix& matrix, const MultiLayerConfig& config,
    const InitialQuality& initial, dataflow::Executor* executor,
    dataflow::StageTimers* timers,
    const std::vector<float>* extraction_weights) {
  const size_t num_slots = matrix.num_slots();
  const size_t num_items = matrix.num_items();
  const uint32_t num_sources = matrix.num_sources();
  const uint32_t num_groups = matrix.num_extractor_groups();

  if (extraction_weights != nullptr &&
      extraction_weights->size() != matrix.num_extractions()) {
    return Status::InvalidArgument(
        "extraction_weights size " +
        std::to_string(extraction_weights->size()) + " != num_extractions " +
        std::to_string(matrix.num_extractions()));
  }

  if (!initial.source_accuracy.empty() &&
      initial.source_accuracy.size() != num_sources) {
    return Status::InvalidArgument("initial source_accuracy size mismatch");
  }
  if (!initial.extractor_precision.empty() &&
      initial.extractor_precision.size() != num_groups) {
    return Status::InvalidArgument("initial extractor_precision size mismatch");
  }
  if (!initial.extractor_recall.empty() &&
      initial.extractor_recall.size() != num_groups) {
    return Status::InvalidArgument("initial extractor_recall size mismatch");
  }
  if (config.max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }

  const auto clampP = [&config](double p) {
    return Clamp(p, config.min_probability, config.max_probability);
  };

  MultiLayerResult r;
  // ---- Parameter initialization (Section 3.1 / Section 5 smart init) ----
  r.source_accuracy.assign(num_sources, config.default_source_accuracy);
  if (!initial.source_accuracy.empty()) {
    for (uint32_t w = 0; w < num_sources; ++w) {
      r.source_accuracy[w] = clampP(initial.source_accuracy[w]);
    }
  }
  const ScopeIndex scopes = BuildScopeIndex(matrix);
  double default_recall = config.default_recall;
  double default_q = config.default_q;
  if (config.adaptive_initial_recall && initial.extractor_recall.empty() &&
      num_slots > 0) {
    // Method-of-moments starting point: match the initial R to the observed
    // extraction density so iteration 1's absence evidence is well-scaled
    // (see multilayer_config.h).
    ScopeTable universe(scopes);
    for (uint32_t g = 0; g < num_groups; ++g) universe.AddForGroup(g, 1.0);
    double applicable = 0.0;
    for (size_t s = 0; s < num_slots; ++s) {
      applicable += universe.SumCovering(scopes.slot_pair[s]);
    }
    const double mean_universe =
        std::max(1.0, applicable / static_cast<double>(num_slots));
    const double edges_per_slot =
        static_cast<double>(matrix.num_extractions()) /
        static_cast<double>(num_slots);
    default_recall = Clamp(edges_per_slot / mean_universe, 0.05,
                           config.default_recall);
    default_q = std::min(config.default_q, default_recall / 2.0);
  }
  r.extractor_recall.assign(num_groups, default_recall);
  if (!initial.extractor_recall.empty()) {
    for (uint32_t e = 0; e < num_groups; ++e) {
      r.extractor_recall[e] = clampP(initial.extractor_recall[e]);
    }
  }
  if (!initial.extractor_q.empty() &&
      initial.extractor_q.size() != num_groups) {
    return Status::InvalidArgument("initial extractor_q size mismatch");
  }
  r.extractor_q.assign(num_groups, default_q);
  r.extractor_precision.assign(num_groups, 0.0);
  if (!initial.extractor_q.empty()) {
    // Direct Q initialization (paper examples / default-style init).
    for (uint32_t e = 0; e < num_groups; ++e) {
      r.extractor_q[e] = clampP(initial.extractor_q[e]);
      r.extractor_precision[e] = PrecisionFromQ(
          r.extractor_q[e], r.extractor_recall[e], config.gamma);
    }
  } else if (!initial.extractor_precision.empty()) {
    for (uint32_t e = 0; e < num_groups; ++e) {
      r.extractor_precision[e] = clampP(initial.extractor_precision[e]);
      r.extractor_q[e] = QFromPrecisionRecall(r.extractor_precision[e],
                                              r.extractor_recall[e],
                                              config.gamma);
    }
  } else {
    for (uint32_t e = 0; e < num_groups; ++e) {
      r.extractor_precision[e] = PrecisionFromQ(
          r.extractor_q[e], r.extractor_recall[e], config.gamma);
    }
  }

  if (!initial.source_trusted.empty() &&
      initial.source_trusted.size() != num_sources) {
    return Status::InvalidArgument("initial source_trusted size mismatch");
  }

  // ---- Support flags (static: structure does not change) ----
  r.source_supported = SupportedSources(matrix, config.min_source_support,
                                        initial.source_trusted);
  r.extractor_supported.assign(num_groups, 0);
  for (uint32_t g = 0; g < num_groups; ++g) {
    const auto [b, e] = matrix.ExtractorEdges(g);
    r.extractor_supported[g] =
        (static_cast<int>(e - b) >= config.min_extractor_support) ? 1 : 0;
  }

  // ---- Effective confidence per extraction edge (Section 3.5) ----
  const std::vector<float> conf =
      EffectiveConfidence(matrix, config.use_confidence_weights,
                          config.confidence_threshold, extraction_weights);

  // ---- Latent state ----
  r.slot_correct_prob.assign(num_slots, 0.5);
  r.slot_value_prob.assign(num_slots, 0.5);
  r.slot_alpha.assign(num_slots, config.initial_alpha);
  r.slot_covered.assign(num_slots, 0);
  r.item_unobserved_value_prob.assign(num_items, 0.0);

  std::vector<ExtractorVotes> votes(num_groups);
  std::vector<double> slot_logodds(num_slots, 0.0);
  ScopeTable absence_universe(scopes);
  ScopeTable slot_mass(scopes);
  // Per-(predicate, website) absence total: slots sharing a scope pair
  // share one SumCovering lookup.
  std::vector<double> pair_absence(scopes.num_pairs(), 0.0);

  // Per-group net Stage I vote, presence - weighted absence: the staged
  // path's memo of the difference the scalar reference recomputes per edge
  // (same subtraction on the same inputs, so the same bits).
  std::vector<double> net_vote(num_groups, 0.0);

  // Votes are per group and independent, so they run on the executor; the
  // deposits run serially in group order, which fixes each bucket's sum.
  const auto refresh_votes = [&]() {
    ForRange(executor, num_groups, [&](size_t begin, size_t end) {
      for (size_t g = begin; g < end; ++g) {
        votes[g] = ComputeVotes(
            r.extractor_recall[g], r.extractor_q[g],
            matrix.extractor_scope(static_cast<uint32_t>(g)).absence_weight);
        net_vote[g] = votes[g].presence - votes[g].weighted_absence;
      }
    });
    absence_universe.Clear();
    for (uint32_t g = 0; g < num_groups; ++g) {
      absence_universe.AddForGroup(g, votes[g].weighted_absence);
    }
  };

  const bool vectorized = config.kernel == kernels::Kind::kVectorized;

  // Stages II and III. A slot votes when its source is supported (the
  // structure is static).
  std::vector<uint8_t> covered_mask(num_slots, 0);
  for (size_t s = 0; s < num_slots; ++s) {
    covered_mask[s] = r.source_supported[matrix.slot_source(s)];
  }
  ValueAccuracyPass value_pass(matrix, config.value_model,
                               config.num_false_override, config.kernel,
                               std::move(covered_mask));
  // Eq. 25 weights each vote by p(C=1|X); without weighted_value_votes it
  // takes the MAP threshold of that stream (Eq. 27 in Stage III).
  std::vector<double> map_weight;
  if (!config.weighted_value_votes) map_weight.resize(num_slots);
  const double* value_weight = config.weighted_value_votes
                                   ? r.slot_correct_prob.data()
                                   : map_weight.data();

  Mutex delta_mutex;
  // The calibration intercept. Each iteration's solve starts from the
  // previous one's; nothing carries over from an earlier Run.
  double tau = 0.0;

  for (int iteration = 1; iteration <= config.max_iterations; ++iteration) {
    double max_delta = 0.0;
    const auto note_delta = [&](double d) {
      MutexLock lock(delta_mutex);
      max_delta = std::max(max_delta, d);
    };

    {
      const auto t = TimeStage(timers, "Scopes");
      refresh_votes();
    }

    // ============ Stage I: extraction correctness p(C|X), Eq. 15 ============
    {
      const auto t = TimeStage(timers, "I.ExtCorr");
      // Log-odds per slot, before the shared calibration intercept. Both
      // kinds start from the absence total of the slot's (predicate,
      // website) pair. The staged path sweeps the contiguous per-slot edge
      // ranges in blocks (conf[e] * net_vote[group]); the per-slot edge sum
      // stays sequential in edge order, so both kinds run the same float
      // program.
      for (uint32_t pair = 0; pair < scopes.num_pairs(); ++pair) {
        pair_absence[pair] = absence_universe.SumCovering(pair);
      }
      if (vectorized) {
        ForRange(executor, num_slots, [&](size_t begin, size_t end) {
          kernels::EmScratch scratch;
          size_t s = begin;
          while (s < end) {
            const uint32_t eb = matrix.SlotExtractions(s).first;
            uint32_t ee = matrix.SlotExtractions(s).second;
            size_t s2 = s + 1;
            while (s2 < end) {
              const uint32_t se = matrix.SlotExtractions(s2).second;
              if (se - eb > kernels::kStageBlock) break;
              ee = se;
              ++s2;
            }
            scratch.edge_terms.resize(ee - eb);
            kernels::StageEdgeTerms(conf.data(), matrix.ext_group().data(),
                                    net_vote.data(), eb, ee,
                                    scratch.edge_terms.data());
            for (; s < s2; ++s) {
              double vcc = pair_absence[scopes.slot_pair[s]];
              const auto [b2, e2] = matrix.SlotExtractions(s);
              for (uint32_t e = b2; e < e2; ++e) {
                vcc += scratch.edge_terms[e - eb];
              }
              slot_logodds[s] = vcc + Logit(r.slot_alpha[s]);
            }
          }
        });
      } else {
        ForRange(executor, num_slots, [&](size_t begin, size_t end) {
          for (size_t s = begin; s < end; ++s) {
            double vcc = pair_absence[scopes.slot_pair[s]];
            const auto [eb, ee] = matrix.SlotExtractions(s);
            for (uint32_t e = eb; e < ee; ++e) {
              const uint32_t g = matrix.ext_group()[e];
              vcc += static_cast<double>(conf[e]) *
                     (votes[g].presence - votes[g].weighted_absence);
            }
            slot_logodds[s] = vcc + Logit(r.slot_alpha[s]);
          }
        });
      }

      // Shared intercept: mean p(C|X) is pinned to the expected provided
      // fraction (see multilayer_config.h). Both kernel kinds share this
      // solve.
      if (config.calibrate_correctness && num_slots > 0) {
        const auto ti = TimeStage(timers, "I.Intercept");
        const InterceptSolve solve = SolveIntercept(
            slot_logodds,
            Clamp(config.expected_provided_fraction, 0.01, 0.99), tau,
            executor);
        tau = solve.tau;
        r.intercept_sweeps += solve.sweeps;
      }

      ForRange(executor, num_slots, [&](size_t begin, size_t end) {
        double local_delta = 0.0;
        for (size_t s = begin; s < end; ++s) {
          const double c = Sigmoid(slot_logodds[s] + tau);
          local_delta = std::max(local_delta,
                                 std::fabs(c - r.slot_correct_prob[s]));
          r.slot_correct_prob[s] = c;
        }
        note_delta(local_delta);
      });
    }

    // Per-scope mass of p(C=1), the recall denominator of Eq. 33.
    {
      const auto t = TimeStage(timers, "Scopes");
      slot_mass.Clear();
      for (size_t s = 0; s < num_slots; ++s) {
        slot_mass.AddForSlot(s, r.slot_correct_prob[s]);
      }
    }

    // ============ Stage II: triple truth p(V_d|X), Eqs. 21/25 ============
    {
      const auto t = TimeStage(timers, "II.TriplePr");
      if (!config.weighted_value_votes) {
        for (size_t s = 0; s < num_slots; ++s) {
          map_weight[s] = r.slot_correct_prob[s] > 0.5 ? 1.0 : 0.0;
        }
      }
      note_delta(value_pass.TriplePr(value_weight, r.source_accuracy, executor,
                                     &r.slot_value_prob, &r.slot_covered,
                                     &r.item_unobserved_value_prob));
    }

    // ============ Stage III: source accuracy A_w, Eq. 27/28 ============
    if (config.update_source_accuracy) {
      const auto t = TimeStage(timers, "III.SrcAccu");
      value_pass.SrcAccu(value_weight, r.slot_value_prob, r.source_supported,
                         config.min_probability, config.max_probability,
                         executor, &r.source_accuracy);
    }

    // ---- Prior update for alpha (Eq. 26), Section 3.3.4 ----
    if (config.update_alpha &&
        iteration >= config.alpha_update_start_iteration) {
      const auto t = TimeStage(timers, "Alpha");
      ForRange(executor, num_slots, [&](size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) {
          const double v = r.slot_value_prob[s];
          const double a_src = r.source_accuracy[matrix.slot_source(s)];
          double false_mass = (1.0 - v) * (1.0 - a_src);
          if (config.alpha_update_rule == AlphaUpdateRule::kDomainNormalized) {
            const int n = config.num_false_override >= 1
                              ? config.num_false_override
                              : matrix.item_num_false(matrix.slot_item(s));
            false_mass /= std::max(1, n);
          }
          r.slot_alpha[s] = clampP(v * a_src + false_mass);
        }
      });
    }

    // ============ Stage IV: extractor quality, Eqs. 32-33 + Eq. 7 ============
    if (config.update_extractor_quality) {
      const auto t = TimeStage(timers, "IV.ExtQuality");
      ForGroups(executor, num_groups, [&](size_t g) {
        if (!r.extractor_supported[g]) return;
        const auto [b, e] = matrix.ExtractorEdges(static_cast<uint32_t>(g));
        const kernels::Tally tally = kernels::TallyEdges(
            matrix.extractor_edge_index().data() + b, e - b, conf.data(),
            matrix.ext_slots().data(), r.slot_correct_prob.data());
        const double sum_joint = tally.num;
        const double sum_conf = tally.den;
        const double denom_r =
            slot_mass.AtGroup(static_cast<uint32_t>(g)) *
            matrix.extractor_scope(static_cast<uint32_t>(g)).absence_weight;
        if (sum_conf > 1e-12) {
          r.extractor_precision[g] = clampP(sum_joint / sum_conf);
        }
        if (denom_r > 1e-12) {
          r.extractor_recall[g] = clampP(sum_joint / denom_r);
        }
        // Eq. 7, with a stability guard: Q is capped at R. An extractor that
        // would extract unprovided triples more readily than provided ones
        // carries no signal (Q = R zeroes both votes, like E5 in Table 3);
        // letting Q exceed R flips absence votes into positive evidence and
        // destabilizes EM.
        r.extractor_q[g] = std::min(
            QFromPrecisionRecall(r.extractor_precision[g],
                                 r.extractor_recall[g], config.gamma),
            r.extractor_recall[g]);
      });
    }

    r.iterations = iteration;
    if (max_delta < config.convergence_tol) {
      r.converged = true;
      break;
    }
  }

  return r;
}

}  // namespace kbt::core
