#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <ostream>

#include "stats/distributions.h"
#include "stats/rng.h"

namespace mlbench::stats {
namespace {

constexpr int kDraws = 50000;

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.NextU64() == b.NextU64();
  EXPECT_LT(equal, 3);
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(7);
  double mean = 0;
  for (int i = 0; i < kDraws; ++i) {
    double u = rng.NextDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    mean += u;
  }
  EXPECT_NEAR(mean / kDraws, 0.5, 0.01);
}

TEST(RngTest, BoundedAvoidsModuloBias) {
  Rng rng(11);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(7)];
  for (int c : counts) EXPECT_NEAR(c, kDraws / 7.0, 5 * std::sqrt(kDraws));
}

TEST(RngTest, SplitStreamsAreStableAndIndependent) {
  Rng base(42);
  Rng s1 = base.Split(3);
  base.NextU64();  // consuming from the parent must not change splits
  Rng s2 = Rng(42).Split(3);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(s1.NextU64(), s2.NextU64());
  Rng other = Rng(42).Split(4);
  EXPECT_NE(Rng(42).Split(3).NextU64(), other.NextU64());
}

struct MomentParams {
  const char* name;
  double mean;
  double var;
  double tol_mean;
  double tol_var;
  double (*draw)(Rng&);
};

// Print only the name, so the test name that CTest discovers from
// --gtest_list_tests does not embed pointer bytes that ASLR moves per build.
void PrintTo(const MomentParams& p, std::ostream* os) { *os << p.name; }

class MomentSweep : public ::testing::TestWithParam<MomentParams> {};

TEST_P(MomentSweep, SampleMomentsMatchTheory) {
  const auto& p = GetParam();
  Rng rng(2024);
  double sum = 0, sumsq = 0;
  for (int i = 0; i < kDraws; ++i) {
    double x = p.draw(rng);
    sum += x;
    sumsq += x * x;
  }
  double mean = sum / kDraws;
  double var = sumsq / kDraws - mean * mean;
  EXPECT_NEAR(mean, p.mean, p.tol_mean) << p.name;
  EXPECT_NEAR(var, p.var, p.tol_var) << p.name;
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, MomentSweep,
    ::testing::Values(
        MomentParams{"std_normal", 0.0, 1.0, 0.02, 0.05,
                     [](Rng& r) { return SampleStandardNormal(r); }},
        MomentParams{"normal_3_2", 3.0, 4.0, 0.04, 0.15,
                     [](Rng& r) { return SampleNormal(r, 3.0, 2.0); }},
        MomentParams{"gamma_2_3", 6.0, 18.0, 0.1, 1.2,
                     [](Rng& r) { return SampleGamma(r, 2.0, 3.0); }},
        MomentParams{"gamma_half", 0.5, 0.5, 0.02, 0.08,
                     [](Rng& r) { return SampleGamma(r, 0.5, 1.0); }},
        // InverseGamma(shape=4, rate=6): mean 2, var 4/( (3^2)(2) )*36=2
        MomentParams{"inv_gamma_4_6", 2.0, 2.0, 0.05, 0.5,
                     [](Rng& r) { return SampleInverseGamma(r, 4.0, 6.0); }},
        // Beta(2,3): mean 0.4, var 0.04
        MomentParams{"beta_2_3", 0.4, 0.04, 0.01, 0.005,
                     [](Rng& r) { return SampleBeta(r, 2.0, 3.0); }},
        // Exponential(2): mean .5, var .25
        MomentParams{"exp_2", 0.5, 0.25, 0.01, 0.03,
                     [](Rng& r) { return SampleExponential(r, 2.0); }},
        // InverseGaussian(mu=2, lambda=4): mean 2, var mu^3/lambda = 2
        MomentParams{"inv_gauss_2_4", 2.0, 2.0, 0.05, 0.35,
                     [](Rng& r) { return SampleInverseGaussian(r, 2.0, 4.0); }}),
    [](const ::testing::TestParamInfo<MomentParams>& info) {
      return info.param.name;
    });

TEST(BetaTest, TinyShapesNeverUnderflowToNaN) {
  // Regression: with shapes this small both Gamma draws underflow to 0 in
  // linear space, making x / (x + y) = 0/0 = NaN before the log-space
  // fallback existed.
  Rng rng(71);
  for (auto [a, b] : {std::pair<double, double>{1e-4, 1e-4},
                      {1e-6, 1e-3},
                      {1e-3, 1e-6},
                      {1e-5, 2.0},
                      {2.0, 1e-5}}) {
    for (int i = 0; i < 2000; ++i) {
      double v = SampleBeta(rng, a, b);
      ASSERT_TRUE(std::isfinite(v)) << "a=" << a << " b=" << b;
      ASSERT_GE(v, 0.0);
      ASSERT_LE(v, 1.0);
    }
  }
}

TEST(BetaTest, SkewMatchesTinyShapeRatio) {
  // Beta(a, b) with a << b should put nearly all mass near 0 and
  // vice versa; the log-space fallback must preserve the direction.
  Rng rng(72);
  double mean_small_a = 0, mean_small_b = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    mean_small_a += SampleBeta(rng, 1e-4, 1.0) / n;
    mean_small_b += SampleBeta(rng, 1.0, 1e-4) / n;
  }
  EXPECT_LT(mean_small_a, 0.05);
  EXPECT_GT(mean_small_b, 0.95);
}

TEST(CategoricalTest, FrequenciesMatchWeights) {
  Rng rng(5);
  linalg::Vector w{1.0, 2.0, 3.0, 4.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[SampleCategorical(rng, w)];
  for (int k = 0; k < 4; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(kDraws), (k + 1) / 10.0, 0.01);
  }
}

TEST(CategoricalTest, ZeroWeightNeverDrawn) {
  Rng rng(6);
  linalg::Vector w{0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(SampleCategorical(rng, w), 1u);
}

TEST(MultinomialTest, CountsSumToTrials) {
  Rng rng(9);
  auto counts = SampleMultinomial(rng, {0.2, 0.3, 0.5}, 1000);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0ULL), 1000ULL);
  EXPECT_NEAR(static_cast<double>(counts[2]), 500.0, 80.0);
}

TEST(AliasTableTest, MatchesLinearScanDistribution) {
  std::vector<double> w = {5, 1, 1, 1, 2};
  AliasTable table(w);
  Rng rng(13);
  std::vector<int> counts(w.size(), 0);
  for (int i = 0; i < kDraws; ++i) ++counts[table.Sample(rng)];
  double total = 10.0;
  for (std::size_t k = 0; k < w.size(); ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(kDraws), w[k] / total, 0.012);
  }
}

TEST(ZipfTest, WeightsDecayAsPowerLaw) {
  auto w = ZipfWeights(100, 1.0);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_NEAR(w[9] / w[99], 10.0, 1e-9);
}

TEST(DirichletTest, DrawsLieOnSimplexWithCorrectMean) {
  Rng rng(21);
  linalg::Vector alpha{1.0, 2.0, 7.0};
  linalg::Vector mean(3);
  for (int i = 0; i < kDraws; ++i) {
    auto x = SampleDirichlet(rng, alpha);
    ASSERT_NEAR(x.Sum(), 1.0, 1e-9);
    for (double v : x) ASSERT_GE(v, 0.0);
    mean += x;
  }
  mean /= kDraws;
  EXPECT_NEAR(mean[0], 0.1, 0.005);
  EXPECT_NEAR(mean[2], 0.7, 0.005);
}

TEST(MvnTest, MeanAndCovarianceRecovered) {
  Rng rng(31);
  linalg::Vector mu{1.0, -2.0};
  linalg::Matrix cov(2, 2);
  cov(0, 0) = 2.0;
  cov(0, 1) = cov(1, 0) = 0.6;
  cov(1, 1) = 1.0;
  linalg::Vector mean(2);
  linalg::Matrix second(2, 2);
  for (int i = 0; i < kDraws; ++i) {
    auto x = SampleMultivariateNormal(rng, mu, cov);
    ASSERT_TRUE(x.ok());
    mean += *x;
    second += linalg::Matrix::Outer(*x, *x);
  }
  mean /= kDraws;
  EXPECT_NEAR(mean[0], 1.0, 0.03);
  EXPECT_NEAR(mean[1], -2.0, 0.03);
  second *= 1.0 / kDraws;
  linalg::Matrix emp_cov = second - linalg::Matrix::Outer(mean, mean);
  EXPECT_NEAR(emp_cov(0, 0), 2.0, 0.08);
  EXPECT_NEAR(emp_cov(0, 1), 0.6, 0.05);
}

TEST(WishartTest, MeanIsDofTimesScale) {
  Rng rng(41);
  linalg::Matrix scale(2, 2);
  scale(0, 0) = 1.0;
  scale(0, 1) = scale(1, 0) = 0.3;
  scale(1, 1) = 2.0;
  double dof = 5.0;
  linalg::Matrix mean(2, 2);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    auto w = SampleWishart(rng, dof, scale);
    ASSERT_TRUE(w.ok());
    mean += *w;
  }
  mean *= 1.0 / n;
  EXPECT_NEAR(mean(0, 0), dof * 1.0, 0.15);
  EXPECT_NEAR(mean(0, 1), dof * 0.3, 0.1);
  EXPECT_NEAR(mean(1, 1), dof * 2.0, 0.3);
}

TEST(WishartTest, RejectsTooFewDof) {
  Rng rng(1);
  EXPECT_FALSE(SampleWishart(rng, 1.0, linalg::Matrix::Identity(3)).ok());
}

TEST(InverseWishartTest, DrawsAreSpd) {
  Rng rng(51);
  linalg::Matrix scale = linalg::Matrix::Identity(3);
  for (int i = 0; i < 200; ++i) {
    auto w = SampleInverseWishart(rng, 6.0, scale);
    ASSERT_TRUE(w.ok());
    EXPECT_TRUE(linalg::Cholesky(*w).ok());
  }
}

TEST(InverseWishartTest, MeanMatchesClosedForm) {
  // E[InvWishart(dof, S)] = S / (dof - d - 1) for dof > d + 1.
  Rng rng(61);
  linalg::Matrix scale = linalg::Matrix::Identity(2) * 3.0;
  double dof = 8.0;
  linalg::Matrix mean(2, 2);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    auto w = SampleInverseWishart(rng, dof, scale);
    ASSERT_TRUE(w.ok());
    mean += *w;
  }
  mean *= 1.0 / n;
  EXPECT_NEAR(mean(0, 0), 3.0 / (8.0 - 2.0 - 1.0), 0.05);
  EXPECT_NEAR(mean(0, 1), 0.0, 0.05);
}

TEST(LogPdfTest, NormalMatchesClosedForm) {
  // N(0,1) at 0: -0.5 log(2 pi)
  EXPECT_NEAR(NormalLogPdf(0, 0, 1), -0.9189385332046727, 1e-12);
  EXPECT_NEAR(NormalLogPdf(1, 0, 1), -0.9189385332046727 - 0.5, 1e-12);
}

TEST(LogPdfTest, MvnReducesToProductOfUnivariates) {
  linalg::Vector x{0.3, -1.1};
  linalg::Vector mu{0.0, 1.0};
  linalg::Matrix cov = linalg::Matrix::Diagonal(linalg::Vector{4.0, 0.25});
  auto lp = MultivariateNormalLogPdf(x, mu, cov);
  ASSERT_TRUE(lp.ok());
  double expect = NormalLogPdf(0.3, 0.0, 2.0) + NormalLogPdf(-1.1, 1.0, 0.5);
  EXPECT_NEAR(*lp, expect, 1e-10);
}

}  // namespace
}  // namespace mlbench::stats
