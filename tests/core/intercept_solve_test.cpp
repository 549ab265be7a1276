// The calibration intercept's safeguarded Newton solve (SolveIntercept).
// Its contract: the root of mean sigmoid(x + tau) = target within 1e-12 of
// a 60-step bisection over [-30, 30], a finite tau whatever the log-odds,
// the seed itself when the seed already hits the target, and identical
// bits for every executor and for repeated runs of one pipeline.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "common/math.h"
#include "core/multilayer_model.h"
#include "dataflow/parallel.h"
#include "kbt/kbt.h"

namespace kbt::core {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// The solve this repo used before the Newton one: 60 bisection steps over
/// [-30, 30], each a full sweep, returning the last midpoint.
double BisectionReference(const std::vector<double>& logodds, double target) {
  double lo = -30.0;
  double hi = 30.0;
  double tau = 0.0;
  for (int step = 0; step < 60; ++step) {
    tau = 0.5 * (lo + hi);
    const double mean =
        dataflow::BlockedSum(nullptr, logodds.size(),
                             [&](size_t begin, size_t end) {
                               double m = 0.0;
                               for (size_t s = begin; s < end; ++s) {
                                 m += Sigmoid(logodds[s] + tau);
                               }
                               return m;
                             }) /
        static_cast<double>(logodds.size());
    if (mean < target) {
      lo = tau;
    } else {
      hi = tau;
    }
  }
  return tau;
}

std::vector<double> RandomLogOdds(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal(-1.0, 3.0);
  std::vector<double> xs(n);
  for (double& x : xs) x = normal(rng);
  return xs;
}

TEST(InterceptSolveTest, AgreesWithBisectionOnRandomLogOdds) {
  for (size_t n : {size_t{1}, size_t{4095}, size_t{4097}, size_t{100000}}) {
    SCOPED_TRACE(n);
    const std::vector<double> xs = RandomLogOdds(n, /*seed=*/n + 3);
    for (double target : {0.05, 0.4, 0.9}) {
      SCOPED_TRACE(target);
      const double reference = BisectionReference(xs, target);
      for (double seed : {0.0, reference + 0.5, -29.0}) {
        const InterceptSolve solve = SolveIntercept(xs, target, seed, nullptr);
        EXPECT_NEAR(solve.tau, reference, 1e-12) << "seed=" << seed;
        EXPECT_GE(solve.sweeps, 1);
        EXPECT_LT(solve.sweeps, 60) << "seed=" << seed;
      }
    }
  }
}

TEST(InterceptSolveTest, ASeedOnTheTargetIsReturnedAsIs) {
  // Every slot sits at log-odds 1.25, so seed -1.25 gives a mean of
  // exactly 0.5: the solve must stop on that first sweep and return the
  // seed, not a bisection midpoint of the bracket.
  const std::vector<double> xs(4097, 1.25);
  const InterceptSolve solve = SolveIntercept(xs, 0.5, -1.25, nullptr);
  EXPECT_EQ(Bits(solve.tau), Bits(-1.25));
  EXPECT_EQ(solve.sweeps, 1);
}

TEST(InterceptSolveTest, SaturatedLogOddsAndUnreachableTargetsStayFinite) {
  struct Case {
    const char* name;
    std::vector<double> logodds;
    double target;
  };
  std::vector<double> mixed(1000, 800.0);
  for (size_t s = 0; s < mixed.size(); s += 2) mixed[s] = -800.0;
  const std::vector<Case> cases = {
      // Slope 0 everywhere in the bracket: every step must bisect.
      {"mixed +-800, mean 0.5 above the target", mixed, 0.4},
      {"mixed +-800, mean 0.5 below the target", mixed, 0.6},
      {"all +900", std::vector<double>(4097, 900.0), 0.4},
      {"all -900", std::vector<double>(4097, -900.0), 0.4},
      // A live slope, but the root lies beyond +30 or below -30.
      {"all -50", std::vector<double>(100, -50.0), 0.4},
      {"all +50", std::vector<double>(100, 50.0), 0.4},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const double reference = BisectionReference(c.logodds, c.target);
    for (double seed : {0.0, 30.0, -30.0, 1e300}) {
      const InterceptSolve solve =
          SolveIntercept(c.logodds, c.target, seed, nullptr);
      ASSERT_TRUE(std::isfinite(solve.tau)) << "seed=" << seed;
      EXPECT_NEAR(solve.tau, reference, 1e-12) << "seed=" << seed;
    }
  }
}

TEST(InterceptSolveTest, IdenticalBitsForEveryExecutor) {
  for (size_t n : {size_t{4097}, size_t{100000}}) {
    SCOPED_TRACE(n);
    const std::vector<double> xs = RandomLogOdds(n, /*seed=*/n);
    const InterceptSolve serial = SolveIntercept(xs, 0.4, 0.0, nullptr);
    for (int threads : {1, 2, 8}) {
      dataflow::Executor executor(threads);
      const InterceptSolve parallel = SolveIntercept(xs, 0.4, 0.0, &executor);
      EXPECT_EQ(Bits(serial.tau), Bits(parallel.tau)) << "threads=" << threads;
      EXPECT_EQ(serial.sweeps, parallel.sweeps) << "threads=" << threads;
    }
  }
}

TEST(InterceptSolveTest, RepeatedPipelineRunsGiveIdenticalBits) {
  // No intercept state survives a Run: a second cold Run on the same
  // pipeline starts its solve from 0 again and repeats every bit.
  dataflow::Executor executor(4);
  auto pipeline = api::PipelineBuilder()
                      .FromKvSim(exp::KvSimConfig::Small())
                      .WithOptions(api::Options::Paper())
                      .WithExecutor(&executor)
                      .Build();
  ASSERT_TRUE(pipeline.ok());
  const auto first = pipeline->Run();
  const auto second = pipeline->Run();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  const MultiLayerResult& a = first->inference;
  const MultiLayerResult& b = second->inference;
  EXPECT_GT(a.intercept_sweeps, 0);
  EXPECT_EQ(a.intercept_sweeps, b.intercept_sweeps);
  ASSERT_EQ(a.slot_correct_prob.size(), b.slot_correct_prob.size());
  for (size_t s = 0; s < a.slot_correct_prob.size(); ++s) {
    ASSERT_EQ(Bits(a.slot_correct_prob[s]), Bits(b.slot_correct_prob[s]))
        << "slot=" << s;
    ASSERT_EQ(Bits(a.slot_value_prob[s]), Bits(b.slot_value_prob[s]))
        << "slot=" << s;
  }
  for (size_t w = 0; w < a.source_accuracy.size(); ++w) {
    ASSERT_EQ(Bits(a.source_accuracy[w]), Bits(b.source_accuracy[w]))
        << "source=" << w;
  }
}

}  // namespace
}  // namespace kbt::core
