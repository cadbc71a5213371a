// Determinism and memoization guarantees of the batched instance miner:
// the mined result must be a pure function of MinerOptions, independent of
// the thread pool attached (or none), and the objective memo must only
// remove objective calls, never change a value.
#include "adversary/instance_miner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/job_table.h"
#include "helpers.h"
#include "offline/exact.h"
#include "sim/engine.h"
#include "support/thread_pool.h"

namespace fjs {
namespace {

MinerOptions small_options() {
  MinerOptions options;
  options.population = 24;
  options.rounds = 10;
  options.mutations_per_round = 12;
  options.jobs = 6;
  options.horizon = 8;
  options.max_laxity = 4;
  options.max_length = 3;
  return options;
}

TEST(MinerDeterminism, TrajectoryIdenticalAcrossThreadCounts) {
  for (const char* key : {"lazy", "batch"}) {
    const MinerResult serial = mine_worst_case(key, small_options());
    for (const std::size_t threads : {2u, 3u, 4u}) {
      ThreadPool pool(threads);
      MinerOptions options = small_options();
      options.pool = &pool;
      const MinerResult parallel = mine_worst_case(key, options);
      EXPECT_EQ(parallel.worst_ratio, serial.worst_ratio)
          << key << ", " << threads << " threads";
      EXPECT_EQ(parallel.trajectory, serial.trajectory)
          << key << ", " << threads << " threads";
      EXPECT_EQ(parallel.evaluations, serial.evaluations);
      EXPECT_EQ(parallel.worst_instance.to_string(),
                serial.worst_instance.to_string());
    }
  }
}

TEST(MinerDeterminism, MemoOffMatchesMemoOn) {
  const MinerResult memoized = mine_worst_case("lazy", small_options());
  MinerOptions raw = small_options();
  raw.use_objective_memo = false;
  const MinerResult unmemoized = mine_worst_case("lazy", raw);
  EXPECT_EQ(memoized.trajectory, unmemoized.trajectory);
  EXPECT_EQ(memoized.worst_ratio, unmemoized.worst_ratio);
  EXPECT_EQ(memoized.evaluations, unmemoized.evaluations);
  // Hill climbing revisits near-duplicates: the memo must actually bite.
  EXPECT_GT(memoized.memo_hits, 0u);
  EXPECT_EQ(unmemoized.memo_hits, 0u);
}

TEST(MinerDeterminism, EvaluationsCountSearchEffort) {
  const MinerOptions options = small_options();
  const MinerResult result = mine_worst_case("lazy", options);
  EXPECT_EQ(result.evaluations,
            options.population + options.rounds * options.mutations_per_round);
  EXPECT_EQ(result.trajectory.size(), options.rounds + 1);
}

TEST(MinerScreen, PrecutPreservesTrajectoryAndCountsRejects) {
  // The LB pre-screen may settle a candidate with the
  // span-free upper bound min(max d+p - min a, sum p) / max p instead of
  // calling the objective. Use an objective that bound provably dominates
  // (0.75x the bound itself, recomputed from the view) and pin that
  // screening changes nothing observable except the number of objective
  // calls: settled values differ from true values but both stay at or
  // below the frozen threshold, so the trajectory, worst instance and
  // evaluation counts are bit-identical.
  const auto objective = std::function<double(InstanceView, double, Time)>(
      [](InstanceView view, double, Time) {
        const double window = time_ratio(
            view.latest_completion() - view.earliest_arrival(),
            view.max_length());
        const double work =
            time_ratio(view.total_work(), view.max_length());
        return 0.75 * std::min(window, work);
      });
  MinerOptions off = small_options();
  off.screen_lb_precut = false;
  const MinerResult plain = mine_instance(objective, off);
  MinerOptions on = small_options();
  on.screen_lb_precut = true;
  const MinerResult screened = mine_instance(objective, on);
  EXPECT_EQ(plain.trajectory, screened.trajectory);
  EXPECT_EQ(plain.worst_ratio, screened.worst_ratio);
  EXPECT_EQ(plain.evaluations, screened.evaluations);
  EXPECT_EQ(plain.worst_instance.to_string(),
            screened.worst_instance.to_string());
  EXPECT_EQ(plain.screen_rejects, 0u);
  EXPECT_GT(screened.screen_rejects, 0u);
}

TEST(MinerScreen, WorstCaseMineScreensAndStaysConsistent) {
  // mine_worst_case opts into the pre-screen (its objective is span/OPT).
  // Shapes with few long jobs keep min(window, total work) / max length
  // near 1 for most mutations while the incumbent ratio climbs toward 2,
  // so the screen must actually bite; screened candidates count as
  // evaluations but not as objective calls.
  MinerOptions options = small_options();
  options.jobs = 4;
  options.horizon = 8;
  options.max_laxity = 2;
  options.max_length = 4;
  const MinerResult result = mine_worst_case("lazy", options);
  EXPECT_GT(result.screen_rejects, 0u);
  EXPECT_LE(result.screen_rejects,
            result.evaluations - result.memo_hits);
}

TEST(MinerScreen, BoundReadsThePatchedRowInsteadOfTheParent) {
  JobTable table;
  table.push_back(Time(0), Time(2), Time(1));
  table.push_back(Time(4), Time(4), Time(2));
  // Window [0, 6), sum p 3, max p 2.
  EXPECT_EQ(screen_ratio_bound(table.view()), std::optional<double>(1.5));
  // Row 1 patched to a = 10, d = 12, p = 4: window [0, 16), sum p 5.
  const Job patch{.id = 1, .arrival = Time(10), .deadline = Time(12),
                  .length = Time(4)};
  EXPECT_EQ(screen_ratio_bound(table.view(), 1, patch),
            std::optional<double>(1.25));
  EXPECT_EQ(screen_ratio_bound(JobTable{}.view()), std::nullopt);
}

TEST(MinerScreen, SumPFollowsSaturatingAddStepwise) {
  // Unvalidated rows whose running sum p saturates at Time::max() and then
  // meets a large negative length: each step clamps like
  // Time::saturating_add, so the sum falls back to about max / 2 instead
  // of staying clamped at max.
  const std::int64_t k_max = Time::max().ticks();
  JobTable table;
  for (const std::int64_t p : {k_max, k_max, -(k_max / 2)}) {
    table.push_back(Time::zero(), Time::zero(), Time(p));
  }
  Time sum_p = Time::zero();
  for (const Time p : table.view().lengths()) {
    sum_p = sum_p.saturating_add(p);
  }
  ASSERT_LT(sum_p, Time::max());
  // Window [0, max): d + p saturates at max for the long rows.
  EXPECT_EQ(screen_ratio_bound(table.view()),
            std::optional<double>(time_ratio(sum_p, Time::max())));
}

TEST(MinerBudget, UncertifiableCandidatesAreSkippedNotFatal) {
  // A custom objective wrapping a tiny solver budget: every candidate the
  // solver cannot certify scores 0 and the mine still completes.
  MinerOptions options = small_options();
  options.jobs = 8;
  std::size_t skips = 0;
  const MinerResult result = mine_instance(
      [&skips](const Instance& instance) {
        ExactOptions exact;
        exact.max_nodes = 40;  // tight enough to trip on some candidates
        const ExactResult opt = exact_optimal(instance, exact);
        if (!opt.optimal()) {
          ++skips;
          return 0.0;
        }
        return time_ratio(opt.span, Time(Time::kTicksPerUnit));
      },
      options);
  EXPECT_GE(result.worst_ratio, 0.0);
  EXPECT_EQ(result.trajectory.size(), options.rounds + 1);
}

}  // namespace
}  // namespace fjs
