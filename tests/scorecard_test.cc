// Scorecard: per-class accounting (under/over split, worst exemplar),
// drift detection against a baseline stamped at snapshot load / hot swap,
// and the drift gauge across evictions (the eviction rule itself is
// tested on util::ClassTable).
#include "obs/scorecard.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace cegraph::obs {
namespace {

ScorecardSample Sample(std::string_view key, double qerror, double estimate,
                       double truth, std::string_view estimator = "molp") {
  ScorecardSample sample;
  sample.class_key = key;
  sample.display = key;
  sample.line = key;
  sample.estimator = estimator;
  sample.qerror = qerror;
  sample.estimate = estimate;
  sample.truth = truth;
  return sample;
}

TEST(ScorecardTest, TracksUnderOverSplitAndWorstExemplar) {
  Scorecard scorecard;
  scorecard.RecordAt(Sample("fork", 2.0, 50, 100), 0);     // under
  scorecard.RecordAt(Sample("fork", 4.0, 400, 100), 1);    // over
  scorecard.RecordAt(Sample("fork", 8.0, 800, 100, "cs"), 2);  // over, worst
  scorecard.RecordAt(Sample("chain", 1.0, 10, 10), 2);     // exact

  const auto reports = scorecard.ReportAt(900, 2);
  ASSERT_EQ(reports.size(), 2u);
  // Sorted by hits descending: fork (3) before chain (1).
  EXPECT_EQ(reports[0].key, "fork");
  EXPECT_EQ(reports[0].hits, 3u);
  EXPECT_EQ(reports[0].under, 1u);
  EXPECT_EQ(reports[0].over, 2u);
  EXPECT_EQ(reports[0].qerror.count, 3u);
  EXPECT_DOUBLE_EQ(reports[0].qerror.max, 8.0);
  EXPECT_DOUBLE_EQ(reports[0].worst.qerror, 8.0);
  EXPECT_EQ(reports[0].worst.estimator, "cs");
  EXPECT_DOUBLE_EQ(reports[0].worst.estimate, 800);
  EXPECT_DOUBLE_EQ(reports[0].worst.truth, 100);
  EXPECT_EQ(reports[1].key, "chain");
  EXPECT_EQ(reports[1].under, 0u);
  EXPECT_EQ(reports[1].over, 0u);
}

TEST(ScorecardTest, DriftFlipsWhenTheWindowedMedianLeavesTheBaseline) {
  ScorecardOptions options;
  options.window = {1, 600};
  options.drift_min_samples = 4;
  options.drift_ratio = 2.0;
  Scorecard scorecard(options);
  std::vector<ScorecardClassReport> flips;
  scorecard.SetDriftCallback(
      [&flips](const ScorecardClassReport& report) { flips.push_back(report); });

  // 8 accurate samples: the 8th hit's evaluation stamps the baseline
  // (median ~= 2) lazily.
  for (int i = 0; i < 8; ++i) {
    scorecard.RecordAt(Sample("fork", 2.0, 50, 100), i);
  }
  EXPECT_FALSE(scorecard.AnyDrift());

  // The truth regime shifts: q-errors jump 10x. Once the windowed
  // median crosses 2x the baseline, the class flips exactly once.
  for (int i = 0; i < 24; ++i) {
    scorecard.RecordAt(Sample("fork", 20.0, 2000, 100), 10 + i);
  }
  EXPECT_TRUE(scorecard.AnyDrift());
  EXPECT_EQ(scorecard.drifted_classes(), 1u);
  ASSERT_EQ(flips.size(), 1u);
  EXPECT_EQ(flips[0].key, "fork");
  EXPECT_TRUE(flips[0].drifted);
  EXPECT_GT(flips[0].qerror.p50, flips[0].baseline_median * 2.0);

  // A hot swap re-stamps the baseline from the live window and clears
  // the verdict: the new regime is the new normal.
  scorecard.StampBaselineAt(40);
  EXPECT_FALSE(scorecard.AnyDrift());
  const auto reports = scorecard.ReportAt(600, 40);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].drifted);
  EXPECT_GT(reports[0].baseline_median, 4.0);  // stamped from the 20s
}

TEST(ScorecardTest, BaselineStampsLazilyForClassesBornAfterTheSwap) {
  ScorecardOptions options;
  options.window = {1, 600};
  options.drift_min_samples = 4;
  Scorecard scorecard(options);
  // Stamping with too few samples resets to "no baseline yet"...
  scorecard.RecordAt(Sample("fork", 2.0, 50, 100), 0);
  scorecard.StampBaselineAt(0);
  auto reports = scorecard.ReportAt(600, 0);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_DOUBLE_EQ(reports[0].baseline_median, 0.0);
  // ...and the first full-enough window stamps it.
  for (int i = 0; i < 8; ++i) {
    scorecard.RecordAt(Sample("fork", 2.0, 50, 100), 1 + i);
  }
  reports = scorecard.ReportAt(600, 9);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_GT(reports[0].baseline_median, 0.0);
}

TEST(ScorecardTest, EvictingADriftedClassLeavesTheDriftGauge) {
  ScorecardOptions options;
  options.max_classes = 2;
  options.window = {1, 600};
  options.drift_min_samples = 4;
  options.drift_ratio = 2.0;
  Scorecard scorecard(options);
  // "fork" stamps its baseline at ~2, then drifts to ~20 (32 hits).
  for (int i = 0; i < 8; ++i) {
    scorecard.RecordAt(Sample("fork", 2.0, 50, 100), i);
  }
  for (int i = 0; i < 24; ++i) {
    scorecard.RecordAt(Sample("fork", 20.0, 2000, 100), 10 + i);
  }
  ASSERT_EQ(scorecard.drifted_classes(), 1u);
  // "chain" is steady and outnumbers fork's hits.
  for (int i = 0; i < 40; ++i) {
    scorecard.RecordAt(Sample("chain", 2.0, 50, 100), 10 + i);
  }
  ASSERT_EQ(scorecard.drifted_classes(), 1u);

  // A third class evicts fork (fewest hits): the gauge drops with it.
  scorecard.RecordAt(Sample("star", 2.0, 50, 100), 50);
  EXPECT_EQ(scorecard.evictions(), 1u);
  EXPECT_EQ(scorecard.drifted_classes(), 0u);
  EXPECT_FALSE(scorecard.AnyDrift());
  const auto reports = scorecard.ReportAt(600, 50);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].key, "chain");
  EXPECT_EQ(reports[1].key, "star");
}

TEST(ScorecardTest, IgnoresUnusableQErrors) {
  Scorecard scorecard;
  scorecard.RecordAt(Sample("fork", 0.0, 0, 100), 0);
  scorecard.RecordAt(Sample("fork", -1.0, 1, 100), 0);
  EXPECT_EQ(scorecard.class_count(), 0u);
}

}  // namespace
}  // namespace cegraph::obs
