// The shared Stage II pass against a transcription of POPACCU written
// independently of it. Both kernel kinds share the pass's popularity
// count, so the kind-parity suite cannot see a wrong one; this test can.
#include "core/value_accuracy_pass.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "exp/synthetic.h"
#include "extract/observation_matrix.h"
#include "granularity/assignments.h"
#include "kernels/kernels.h"

namespace kbt::core {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(ValueAccuracyPassTest, PopAccuVotesUseEachValuesShareOfItsSlots) {
  const auto synthetic = exp::GenerateSynthetic(exp::SyntheticConfig{});
  auto built = extract::CompiledMatrix::Build(
      synthetic.data, granularity::PageSourcePlainExtractor(synthetic.data));
  ASSERT_TRUE(built.ok());
  const extract::CompiledMatrix& matrix = *built;
  const size_t num_slots = matrix.num_slots();
  constexpr int kNumFalse = 10;

  // Uneven accuracies and weights, and some slots that do not vote.
  std::vector<double> accuracy(matrix.num_sources());
  for (size_t w = 0; w < accuracy.size(); ++w) {
    accuracy[w] = 0.3 + 0.06 * static_cast<double>((w * 7) % 10);
  }
  std::vector<double> weight(num_slots);
  std::vector<uint8_t> covered(num_slots);
  for (size_t s = 0; s < num_slots; ++s) {
    weight[s] = static_cast<double>((s * 13) % 5) / 4.0;
    covered[s] = s % 7 != 0 ? 1 : 0;
  }

  // Eq. 3 with the empirical popularity: a slot's value share among its
  // item's slots, counted per item with an ordered map.
  std::vector<double> expect_prob(num_slots, 0.5);
  std::vector<uint8_t> expect_cov(num_slots, 0);
  std::vector<double> expect_unobserved(matrix.num_items(), 0.0);
  kernels::EmScratch scratch;
  for (size_t i = 0; i < matrix.num_items(); ++i) {
    const auto [b, e] = matrix.ItemSlots(i);
    std::map<uint32_t, double> counts;
    for (uint32_t s = b; s < e; ++s) counts[matrix.slot_value(s)] += 1.0;
    std::vector<double> votes(e - b, 0.0);
    for (uint32_t s = b; s < e; ++s) {
      if (!covered[s]) continue;
      const double a = ClampProbability(accuracy[matrix.slot_source(s)]);
      const double share = counts[matrix.slot_value(s)] /
                           static_cast<double>(e - b);
      votes[s - b] = weight[s] * (std::log(a / (1.0 - a)) - SafeLog(share));
    }
    kernels::ItemValuePass(b, e, votes.data(), b, covered.data(),
                           matrix.slot_values().data(), kNumFalse,
                           expect_prob.data(), expect_cov.data(),
                           &expect_unobserved[i], &scratch);
  }

  for (kernels::Kind kind :
       {kernels::Kind::kScalarReference, kernels::Kind::kVectorized}) {
    SCOPED_TRACE(kernels::KindName(kind));
    ValueAccuracyPass pass(matrix, ValueModel::kPopAccu, kNumFalse, kind,
                           covered);
    std::vector<double> prob(num_slots, 0.5);
    std::vector<uint8_t> cov(num_slots, 0);
    std::vector<double> unobserved(matrix.num_items(), 0.0);
    pass.TriplePr(weight.data(), accuracy, nullptr, &prob, &cov, &unobserved);
    for (size_t s = 0; s < num_slots; ++s) {
      ASSERT_EQ(Bits(prob[s]), Bits(expect_prob[s])) << "slot " << s;
    }
    EXPECT_EQ(cov, expect_cov);
    for (size_t i = 0; i < unobserved.size(); ++i) {
      ASSERT_EQ(Bits(unobserved[i]), Bits(expect_unobserved[i]))
          << "item " << i;
    }
  }
}

}  // namespace
}  // namespace kbt::core
