#include "core/multilayer_model.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "dataflow/parallel.h"
#include "exp/synthetic.h"
#include "extract/observation_matrix.h"
#include "granularity/assignments.h"

namespace kbt::core {
namespace {

using exp::GenerateSynthetic;
using exp::SyntheticConfig;
using extract::CompiledMatrix;

CompiledMatrix BuildSyntheticMatrix(const SyntheticConfig& config) {
  const auto synthetic = GenerateSynthetic(config);
  const auto assignment =
      granularity::PageSourcePlainExtractor(synthetic.data);
  auto matrix = CompiledMatrix::Build(synthetic.data, assignment);
  EXPECT_TRUE(matrix.ok());
  return std::move(*matrix);
}

MultiLayerConfig TestConfig() {
  MultiLayerConfig config;
  config.max_iterations = 5;
  config.min_source_support = 1;
  config.min_extractor_support = 1;
  config.num_false_override = 10;
  return config;
}

TEST(MultiLayerModelTest, RecoversSourceAccuracyOnSyntheticData) {
  SyntheticConfig sc;
  sc.num_sources = 10;
  sc.num_extractors = 8;  // More evidence than the default challenge case.
  sc.recall = 0.7;
  sc.page_coverage = 0.8;
  sc.component_accuracy = 0.9;
  sc.seed = 42;
  const CompiledMatrix matrix = BuildSyntheticMatrix(sc);
  const auto result = MultiLayerModel::Run(matrix, TestConfig());
  ASSERT_TRUE(result.ok());

  double total_error = 0.0;
  for (uint32_t w = 0; w < matrix.num_sources(); ++w) {
    total_error += std::fabs(result->source_accuracy[w] - 0.7);
  }
  EXPECT_LT(total_error / matrix.num_sources(), 0.15);
}

TEST(MultiLayerModelTest, ExtractionCorrectnessSeparatesProvidedFromNoise) {
  SyntheticConfig sc;
  sc.seed = 7;
  sc.num_extractors = 8;
  sc.recall = 0.7;
  sc.page_coverage = 0.8;
  const CompiledMatrix matrix = BuildSyntheticMatrix(sc);
  const auto result = MultiLayerModel::Run(matrix, TestConfig());
  ASSERT_TRUE(result.ok());

  double provided_mean = 0.0;
  double noise_mean = 0.0;
  size_t provided_n = 0;
  size_t noise_n = 0;
  for (size_t s = 0; s < matrix.num_slots(); ++s) {
    if (matrix.slot_provided_truth(s)) {
      provided_mean += result->slot_correct_prob[s];
      ++provided_n;
    } else {
      noise_mean += result->slot_correct_prob[s];
      ++noise_n;
    }
  }
  ASSERT_GT(provided_n, 0u);
  ASSERT_GT(noise_n, 0u);
  provided_mean /= static_cast<double>(provided_n);
  noise_mean /= static_cast<double>(noise_n);
  EXPECT_GT(provided_mean, noise_mean + 0.3);
}

TEST(MultiLayerModelTest, DeterministicAcrossRuns) {
  const CompiledMatrix matrix = BuildSyntheticMatrix(SyntheticConfig{});
  const auto a = MultiLayerModel::Run(matrix, TestConfig());
  const auto b = MultiLayerModel::Run(matrix, TestConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->slot_value_prob.size(), b->slot_value_prob.size());
  for (size_t s = 0; s < a->slot_value_prob.size(); ++s) {
    EXPECT_DOUBLE_EQ(a->slot_value_prob[s], b->slot_value_prob[s]);
    EXPECT_DOUBLE_EQ(a->slot_correct_prob[s], b->slot_correct_prob[s]);
  }
}

TEST(MultiLayerModelTest, ParallelMatchesSerial) {
  const CompiledMatrix matrix = BuildSyntheticMatrix(SyntheticConfig{});
  dataflow::Executor executor(4);
  const auto serial = MultiLayerModel::Run(matrix, TestConfig());
  const auto parallel =
      MultiLayerModel::Run(matrix, TestConfig(), {}, &executor);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  for (size_t s = 0; s < serial->slot_value_prob.size(); ++s) {
    EXPECT_DOUBLE_EQ(serial->slot_value_prob[s], parallel->slot_value_prob[s]);
  }
  for (uint32_t w = 0; w < matrix.num_sources(); ++w) {
    EXPECT_DOUBLE_EQ(serial->source_accuracy[w], parallel->source_accuracy[w]);
  }
}

TEST(MultiLayerModelTest, SubPhasesAreTimedOncePerIteration) {
  // I.Intercept nests inside I.ExtCorr; Scopes times the vote refresh and
  // the slot-mass loop, the two bookkeeping passes between the stages;
  // Alpha times the Eq. 26 prior update from its start iteration on.
  const CompiledMatrix matrix = BuildSyntheticMatrix(SyntheticConfig{});
  const MultiLayerConfig config = TestConfig();
  dataflow::StageTimers timers;
  const auto result =
      MultiLayerModel::Run(matrix, config, {}, nullptr, &timers);
  ASSERT_TRUE(result.ok());
  const int iterations = result->iterations;
  ASSERT_GE(iterations, config.alpha_update_start_iteration);
  EXPECT_EQ(timers.Count("I.ExtCorr"), iterations);
  EXPECT_EQ(timers.Count("I.Intercept"), iterations);
  EXPECT_EQ(timers.Count("Scopes"), 2 * iterations);
  EXPECT_EQ(timers.Count("Alpha"),
            iterations - config.alpha_update_start_iteration + 1);
  EXPECT_LE(timers.TotalSeconds("I.Intercept"),
            timers.TotalSeconds("I.ExtCorr"));
  EXPECT_GE(result->intercept_sweeps, iterations);

  MultiLayerConfig uncalibrated = TestConfig();
  uncalibrated.calibrate_correctness = false;
  dataflow::StageTimers off_timers;
  const auto off =
      MultiLayerModel::Run(matrix, uncalibrated, {}, nullptr, &off_timers);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->intercept_sweeps, 0);
  EXPECT_EQ(off_timers.Count("I.Intercept"), 0);

  MultiLayerConfig frozen_alpha = TestConfig();
  frozen_alpha.update_alpha = false;
  dataflow::StageTimers frozen_timers;
  const auto frozen =
      MultiLayerModel::Run(matrix, frozen_alpha, {}, nullptr, &frozen_timers);
  ASSERT_TRUE(frozen.ok());
  EXPECT_EQ(frozen_timers.Count("I.ExtCorr"), frozen->iterations);
  EXPECT_EQ(frozen_timers.Count("Alpha"), 0);
}

TEST(MultiLayerModelTest, PosteriorsAreValidProbabilities) {
  const CompiledMatrix matrix = BuildSyntheticMatrix(SyntheticConfig{});
  const auto result = MultiLayerModel::Run(matrix, TestConfig());
  ASSERT_TRUE(result.ok());
  for (size_t s = 0; s < matrix.num_slots(); ++s) {
    EXPECT_GE(result->slot_correct_prob[s], 0.0);
    EXPECT_LE(result->slot_correct_prob[s], 1.0);
    EXPECT_GE(result->slot_value_prob[s], 0.0);
    EXPECT_LE(result->slot_value_prob[s], 1.0);
  }
  // Per item, the value probabilities plus unobserved mass stay <= 1 (+eps).
  for (size_t i = 0; i < matrix.num_items(); ++i) {
    const auto [b, e] = matrix.ItemSlots(i);
    double mass = 0.0;
    std::vector<uint32_t> seen;
    for (uint32_t s = b; s < e; ++s) {
      bool duplicate = false;
      for (uint32_t v : seen) {
        if (v == matrix.slot_value(s)) duplicate = true;
      }
      if (duplicate) continue;
      seen.push_back(matrix.slot_value(s));
      mass += result->slot_value_prob[s];
    }
    EXPECT_LE(mass, 1.0 + 1e-6);
  }
}

TEST(MultiLayerModelTest, UnsupportedSourcesKeepInitialAccuracy) {
  MultiLayerConfig config = TestConfig();
  config.min_source_support = 1000000;  // Nothing is supported.
  const CompiledMatrix matrix = BuildSyntheticMatrix(SyntheticConfig{});
  const auto result = MultiLayerModel::Run(matrix, config);
  ASSERT_TRUE(result.ok());
  for (uint32_t w = 0; w < matrix.num_sources(); ++w) {
    EXPECT_EQ(result->source_supported[w], 0);
    EXPECT_DOUBLE_EQ(result->source_accuracy[w],
                     config.default_source_accuracy);
  }
  // With no supported sources nothing is covered.
  for (size_t s = 0; s < matrix.num_slots(); ++s) {
    EXPECT_EQ(result->slot_covered[s], 0);
  }
}

TEST(MultiLayerModelTest, PopAccuVariantProducesValidPosteriors) {
  MultiLayerConfig config = TestConfig();
  config.value_model = ValueModel::kPopAccu;
  const CompiledMatrix matrix = BuildSyntheticMatrix(SyntheticConfig{});
  const auto result = MultiLayerModel::Run(matrix, config);
  ASSERT_TRUE(result.ok());
  for (size_t s = 0; s < matrix.num_slots(); ++s) {
    EXPECT_GE(result->slot_value_prob[s], 0.0);
    EXPECT_LE(result->slot_value_prob[s], 1.0);
  }
}

TEST(MultiLayerModelTest, RejectsBadConfigAndInitialSizes) {
  const CompiledMatrix matrix = BuildSyntheticMatrix(SyntheticConfig{});
  MultiLayerConfig config = TestConfig();
  config.max_iterations = 0;
  EXPECT_FALSE(MultiLayerModel::Run(matrix, config).ok());

  InitialQuality bad;
  bad.source_accuracy.assign(matrix.num_sources() + 3, 0.8);
  EXPECT_FALSE(MultiLayerModel::Run(matrix, TestConfig(), bad).ok());

  InitialQuality bad_ext;
  bad_ext.extractor_q.assign(matrix.num_extractor_groups() + 1, 0.2);
  EXPECT_FALSE(MultiLayerModel::Run(matrix, TestConfig(), bad_ext).ok());
}

TEST(MultiLayerModelTest, ConvergesOnEasyData) {
  SyntheticConfig sc;
  sc.num_extractors = 8;
  sc.recall = 0.9;
  sc.page_coverage = 0.9;
  sc.component_accuracy = 0.97;
  sc.source_accuracy = 0.9;
  const CompiledMatrix matrix = BuildSyntheticMatrix(sc);
  MultiLayerConfig config = TestConfig();
  config.max_iterations = 50;
  const auto result = MultiLayerModel::Run(matrix, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_LT(result->iterations, 50);
}

TEST(MultiLayerModelTest, ExtractorQualityRecoveredQualitatively) {
  // Build data where extractor 0 is far better than extractor 4 and check
  // the estimated precision ordering matches.
  SyntheticConfig sc;
  sc.seed = 11;
  sc.num_extractors = 5;
  sc.recall = 0.8;
  sc.page_coverage = 1.0;
  sc.component_accuracy = 0.95;
  const auto good = GenerateSynthetic(sc);
  sc.seed = 11;  // Same world; worse extraction for the added extractors.
  // Merge a noisy copy: reuse generator with poor accuracy and remap ids.
  SyntheticConfig noisy = sc;
  noisy.component_accuracy = 0.55;
  auto bad = GenerateSynthetic(noisy);
  extract::RawDataset data = good.data;
  for (auto obs : bad.data.observations) {
    obs.extractor += sc.num_extractors;
    obs.pattern += sc.num_extractors;
    data.observations.push_back(obs);
  }
  data.num_extractors = 10;
  data.num_patterns = 10;

  const auto assignment = granularity::PageSourcePlainExtractor(data);
  auto matrix = CompiledMatrix::Build(data, assignment);
  ASSERT_TRUE(matrix.ok());
  const auto result = MultiLayerModel::Run(*matrix, TestConfig());
  ASSERT_TRUE(result.ok());

  // Mean precision of the five good extractor groups beats the noisy five.
  double good_p = 0.0;
  double bad_p = 0.0;
  for (uint32_t g = 0; g < 10; ++g) {
    // Group ids are interned in observation order: good first, then noisy.
    (g < 5 ? good_p : bad_p) += result->extractor_precision[g];
  }
  EXPECT_GT(good_p / 5.0, bad_p / 5.0 + 0.1);
}

}  // namespace
}  // namespace kbt::core
