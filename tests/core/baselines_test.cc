#include "core/baselines.h"

#include <numeric>

#include <gtest/gtest.h>

#include "sim/fluid_queue.h"
#include "util/error.h"
#include "util/rng.h"

namespace rcbr::core {
namespace {

TEST(TokenBucket, Validation) {
  EXPECT_THROW(TokenBucket(-1.0, 1.0, 1.0), InvalidArgument);
  EXPECT_THROW(TokenBucket(1.0, -1.0, 1.0), InvalidArgument);
  EXPECT_THROW(TokenBucket(1.0, 1.0, -1.0), InvalidArgument);
  TokenBucket bucket(1.0, 1.0, 1.0);
  EXPECT_THROW(bucket.Offer(-1.0), InvalidArgument);
}

TEST(TokenBucket, ConformantTrafficPassesThrough) {
  TokenBucket bucket(5.0, 10.0, 100.0);
  for (int t = 0; t < 20; ++t) {
    const auto outcome = bucket.Offer(4.0);
    EXPECT_DOUBLE_EQ(outcome.sent_bits, 4.0);
    EXPECT_DOUBLE_EQ(outcome.lost_bits, 0.0);
  }
  EXPECT_DOUBLE_EQ(bucket.queue_bits(), 0.0);
}

TEST(TokenBucket, BurstPassesAgainstBucketDepth) {
  // Bucket starts full: a burst of bucket size + one slot's tokens passes
  // immediately.
  TokenBucket bucket(2.0, 10.0, 100.0);
  const auto outcome = bucket.Offer(12.0);
  EXPECT_DOUBLE_EQ(outcome.sent_bits, 10.0);
  EXPECT_DOUBLE_EQ(bucket.queue_bits(), 2.0);
}

TEST(TokenBucket, SustainedOverloadQueuesAtTokenRate) {
  TokenBucket bucket(3.0, 5.0, 1000.0);
  bucket.Offer(50.0);  // drain the initial bucket
  for (int t = 0; t < 10; ++t) {
    const auto outcome = bucket.Offer(10.0);
    EXPECT_DOUBLE_EQ(outcome.sent_bits, 3.0);  // token rate limited
  }
}

TEST(TokenBucket, SourceBufferOverflowCountsLoss) {
  TokenBucket bucket(1.0, 1.0, 5.0);
  double lost = 0;
  for (int t = 0; t < 10; ++t) lost += bucket.Offer(4.0).lost_bits;
  EXPECT_GT(lost, 0.0);
  EXPECT_DOUBLE_EQ(bucket.total_lost_bits(), lost);
  EXPECT_LE(bucket.queue_bits(), 5.0);
}

TEST(TokenBucket, OutputIsLeakyBucketConformant) {
  // Over any window, output <= bucket + rate * window (the (sigma, rho)
  // envelope).
  rcbr::Rng rng(3);
  const double rate = 4.0;
  const double depth = 12.0;
  TokenBucket bucket(rate, depth, 1e9);
  std::vector<double> sent;
  for (int t = 0; t < 500; ++t) {
    sent.push_back(bucket.Offer(rng.Uniform(0.0, 10.0)).sent_bits);
  }
  for (std::size_t start = 0; start < sent.size(); start += 37) {
    double acc = 0;
    for (std::size_t t = start; t < sent.size(); ++t) {
      acc += sent[t];
      const double window = static_cast<double>(t - start + 1);
      ASSERT_LE(acc, depth + rate * window + 1e-9);
    }
  }
}

TEST(TokenBucket, TotalsConsistent) {
  rcbr::Rng rng(5);
  TokenBucket bucket(2.0, 4.0, 6.0);
  double offered = 0;
  for (int t = 0; t < 200; ++t) {
    const double a = rng.Uniform(0.0, 6.0);
    offered += a;
    bucket.Offer(a);
  }
  EXPECT_NEAR(bucket.total_sent_bits() + bucket.total_lost_bits() +
                  bucket.queue_bits(),
              offered, 1e-6);
}

TEST(ShapeWithTokenBucket, MatchesIncrementalUse) {
  rcbr::Rng rng(7);
  std::vector<double> workload(100);
  for (double& a : workload) a = rng.Uniform(0.0, 8.0);
  const ShapedTrace shaped = ShapeWithTokenBucket(workload, 3.0, 6.0, 20.0);
  TokenBucket reference(3.0, 6.0, 20.0);
  for (std::size_t t = 0; t < workload.size(); ++t) {
    EXPECT_DOUBLE_EQ(shaped.sent_bits[t],
                     reference.Offer(workload[t]).sent_bits);
  }
  EXPECT_DOUBLE_EQ(shaped.lost_bits, reference.total_lost_bits());
}

TEST(MinRateForLoss, ZeroTargetMatchesLossless) {
  const std::vector<double> workload = {10, 0, 10, 0};
  const double r0 = MinRateForLoss(workload, 5.0, 0.0, 1e-9);
  EXPECT_NEAR(r0, 5.0, 1e-4);
}

TEST(MinRateForLoss, LooseTargetNeedsLessRate) {
  rcbr::Rng rng(9);
  std::vector<double> workload(2000);
  for (double& a : workload) a = rng.Uniform(0.0, 10.0);
  const double strict = MinRateForLoss(workload, 10.0, 1e-6);
  const double loose = MinRateForLoss(workload, 10.0, 1e-2);
  EXPECT_LE(loose, strict + 1e-9);
  EXPECT_GT(loose, 0.0);
}

TEST(MinRateForLoss, ResultMeetsTarget) {
  rcbr::Rng rng(11);
  std::vector<double> workload(1000);
  for (double& a : workload) a = rng.Uniform(0.0, 10.0);
  for (double target : {0.0, 1e-3, 1e-1}) {
    const double rate = MinRateForLoss(workload, 8.0, target, 1e-6);
    EXPECT_LE(
        sim::DrainConstant(workload, rate, 8.0).loss_fraction(), target);
  }
}

TEST(MinRateForLoss, MonotoneInBuffer) {
  rcbr::Rng rng(13);
  std::vector<double> workload(1000);
  for (double& a : workload) a = rng.Uniform(0.0, 10.0);
  double prev = 1e300;
  for (double buffer : {0.0, 5.0, 20.0, 100.0}) {
    const double rate = MinRateForLoss(workload, buffer, 1e-4);
    EXPECT_LE(rate, prev * 1.01);
    prev = rate;
  }
}

// At a zero loss target, MinRateForLoss is the smallest lossless constant
// rate: the empirical equivalent bandwidth of the workload at loss 0.
TEST(MinRateForLoss, LosslessExactForSimpleWorkload) {
  // Workload 10,0,10,0 with buffer 5: rate r needs max(10-r, ...) <= 5 and
  // drain before the next burst: r >= 5.
  const std::vector<double> workload = {10, 0, 10, 0};
  const double rate = MinRateForLoss(workload, 5.0, 0.0, 1e-9);
  EXPECT_NEAR(rate, 5.0, 1e-6);
}

TEST(MinRateForLoss, LosslessInfiniteBufferNeedsMeanOnly) {
  // With a huge buffer the needed rate approaches... actually with a
  // finite-horizon workload the constraint is weaker than the mean: only
  // the per-slot overflow matters. With B = sum of all bits, rate 0 works.
  const std::vector<double> workload = {10, 10, 10};
  EXPECT_NEAR(MinRateForLoss(workload, 30.0, 0.0, 1e-6), 0.0, 1e-6);
}

TEST(MinRateForLoss, LosslessZeroBufferNeedsPeak) {
  const std::vector<double> workload = {3, 7, 2};
  EXPECT_NEAR(MinRateForLoss(workload, 0.0, 0.0, 1e-9), 7.0, 1e-5);
}

TEST(MinRateForLoss, LosslessMonotoneInBuffer) {
  const std::vector<double> workload = {10, 0, 10, 0, 10, 0};
  double prev = 1e300;
  for (double buffer : {0.0, 2.0, 5.0, 10.0, 30.0}) {
    const double rate = MinRateForLoss(workload, buffer, 0.0, 1e-9);
    EXPECT_LE(rate, prev + 1e-9);
    prev = rate;
  }
}

TEST(MinRateForLoss, LosslessResultIsActuallyLossless) {
  const std::vector<double> workload = {4, 9, 1, 12, 0, 3};
  for (double buffer : {0.0, 3.0, 8.0}) {
    const double rate = MinRateForLoss(workload, buffer, 0.0, 1e-9);
    EXPECT_DOUBLE_EQ(sim::DrainConstant(workload, rate, buffer).lost_bits,
                     0.0);
  }
}

}  // namespace
}  // namespace rcbr::core
