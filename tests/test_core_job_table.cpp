// The columnar substrate's own contract (docs/DATA_MODEL.md): SoA
// storage, view aliasing under in-place mutation, the undo protocol,
// and view-computed stats matching the Instance-cached ones.
#include "core/job_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "support/assert.h"

namespace fjs {
namespace {

Time U(double units) { return Time::from_units(units); }

JobTable three_rows() {
  JobTable table;
  table.push_back(U(0), U(1), U(2));
  table.push_back(U(1), U(4), U(1));
  table.push_back(U(0.5), U(2), U(3));
  return table;
}

TEST(JobTable, RowsRoundTripThroughColumnsAndJobs) {
  const JobTable table = three_rows();
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table.arrivals()[1], U(1));
  EXPECT_EQ(table.deadlines()[2], U(2));
  EXPECT_EQ(table.lengths()[0], U(2));
  const Job row = table.job(2);
  EXPECT_EQ(row.id, 2u);
  EXPECT_EQ(row.arrival, U(0.5));
  EXPECT_EQ(row.deadline, U(2));
  EXPECT_EQ(row.length, U(3));
}

TEST(JobTable, AoSBridgeKeepsRowOrderAndReassignsIds) {
  std::vector<Job> jobs;
  jobs.push_back(Job{.id = 7, .arrival = U(3), .deadline = U(5),
                     .length = U(1)});
  jobs.push_back(Job{.id = 2, .arrival = U(0), .deadline = U(1),
                     .length = U(2)});
  const JobTable table(jobs);
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table.job(0).id, 0u);
  EXPECT_EQ(table.job(0).arrival, U(3));
  EXPECT_EQ(table.job(1).id, 1u);
  EXPECT_EQ(table.job(1).arrival, U(0));
}

TEST(JobTable, ViewAliasesInPlaceWritesWithoutInvalidation) {
  JobTable table = three_rows();
  const InstanceView view = table.view();  // taken BEFORE the mutation
  table.set(1, U(2), U(6), U(4));
  EXPECT_EQ(view.arrival(1), U(2));
  EXPECT_EQ(view.deadline(1), U(6));
  EXPECT_EQ(view.length(1), U(4));
  // Untouched rows are untouched.
  EXPECT_EQ(view.arrival(0), U(0));
  EXPECT_EQ(view.length(2), U(3));
}

TEST(JobTable, UndoRecordRestoresExactRow) {
  JobTable table = three_rows();
  const InstanceView view = table.view();
  const JobTable::Undo undo = table.undo_record(1);
  table.set(1, U(9), U(10), U(11));
  EXPECT_EQ(view.length(1), U(11));
  table.restore(undo);
  EXPECT_EQ(view.arrival(1), U(1));
  EXPECT_EQ(view.deadline(1), U(4));
  EXPECT_EQ(view.length(1), U(1));
}

TEST(JobTable, MaterializingFromViewDeepCopies) {
  JobTable table = three_rows();
  const JobTable copy(table.view());
  table.set(0, U(8), U(9), U(1));
  EXPECT_EQ(copy.job(0).arrival, U(0));  // copy unaffected by later writes
  const Instance owned{JobTable(copy.view())};
  EXPECT_EQ(owned.size(), 3u);
  EXPECT_EQ(owned.job(0).length, U(2));
}

TEST(InstanceView, DerivedStatsMatchInstanceCache) {
  const Instance inst{three_rows()};
  const InstanceView view = inst.view();
  EXPECT_DOUBLE_EQ(view.mu(), inst.mu());
  EXPECT_EQ(view.min_length(), inst.min_length());
  EXPECT_EQ(view.max_length(), inst.max_length());
  EXPECT_EQ(view.total_work(), inst.total_work());
  EXPECT_EQ(view.earliest_arrival(), inst.earliest_arrival());
  EXPECT_EQ(view.latest_completion(), inst.latest_completion());
  EXPECT_EQ(view.ids_by_arrival(), inst.ids_by_arrival());
  EXPECT_EQ(view.ids_by_deadline(), inst.ids_by_deadline());
}

TEST(InstanceView, SortedByArrivalAndGridPredicate) {
  JobTable sorted;
  sorted.push_back(U(0), U(1), U(1));
  sorted.push_back(U(1), U(2), U(1));
  EXPECT_TRUE(sorted.view().sorted_by_arrival());
  EXPECT_TRUE(sorted.view().is_multiple_of(Time(Time::kTicksPerUnit)));

  JobTable unsorted;
  unsorted.push_back(U(1), U(2), U(1));
  unsorted.push_back(U(0), U(1), U(1.5));
  EXPECT_FALSE(unsorted.view().sorted_by_arrival());
  EXPECT_FALSE(unsorted.view().is_multiple_of(Time(Time::kTicksPerUnit)));
}

TEST(InstanceView, JobsRangeAssemblesEveryRow) {
  const JobTable table = three_rows();
  const InstanceView view = table.view();
  std::size_t count = 0;
  for (const Job& job : view.jobs()) {
    EXPECT_EQ(job.arrival, view.arrival(job.id));
    EXPECT_EQ(job.length, view.length(job.id));
    ++count;
  }
  EXPECT_EQ(count, table.size());
}

TEST(InstanceView, ValidateRejectsBadScratchRows) {
  JobTable bad;
  bad.push_back(U(1), U(0), U(1));  // deadline before arrival
  EXPECT_THROW(bad.view().validate(), AssertionError);
  JobTable overflow;
  overflow.push_back(Time::zero(), Time::max(), Time::max());  // d+p overflows
  EXPECT_THROW(overflow.view().validate(), AssertionError);
}

TEST(InstanceView, TotalWorkSaturatesInsteadOfThrowing) {
  JobTable huge;
  huge.push_back(Time::zero(), Time::zero(), Time::max());
  huge.push_back(Time::zero(), Time::zero(), Time::max());
  bool overflowed = false;
  EXPECT_EQ(huge.view().total_work_saturating(&overflowed), Time::max());
  EXPECT_TRUE(overflowed);
  EXPECT_THROW(huge.view().total_work(), AssertionError);
}

TEST(JobTable, ColumnLengthMismatchIsRejectedByViewCtor) {
  std::vector<Time> two(2, Time::zero());
  std::vector<Time> three(3, Time::zero());
  EXPECT_THROW(InstanceView(two, three, two), AssertionError);
}

TEST(InstanceViewStats, EmptyAndSingleRowStats) {
  JobTable empty;
  EXPECT_EQ(empty.view().total_work(), Time::zero());
  JobTable one;
  one.push_back(U(2), U(3), U(4));
  const InstanceView v = one.view();
  EXPECT_EQ(v.min_length(), U(4));
  EXPECT_EQ(v.max_length(), U(4));
  EXPECT_EQ(v.total_work(), U(4));
  EXPECT_EQ(v.earliest_arrival(), U(2));
  EXPECT_EQ(v.latest_completion(), U(7));
  EXPECT_EQ(v.ids_by_arrival(), std::vector<JobId>{0});
}

TEST(InstanceViewStats, AllEqualKeysOrderByIdAtEveryScale) {
  // Every key ties: the (key, id) total order is the identity at any n.
  for (const std::size_t n : {3u, 7u, 64u, 65u, 200u}) {
    JobTable table;
    for (std::size_t i = 0; i < n; ++i) {
      table.push_back(U(5), U(6), U(1));
    }
    const std::vector<JobId> by_arrival = table.view().ids_by_arrival();
    const std::vector<JobId> by_deadline = table.view().ids_by_deadline();
    ASSERT_EQ(by_arrival.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(by_arrival[i], static_cast<JobId>(i)) << "n=" << n;
      EXPECT_EQ(by_deadline[i], static_cast<JobId>(i)) << "n=" << n;
    }
  }
}

TEST(InstanceViewStats, StatsMatchNaiveRecomputationAtEverySize) {
  // n = 1..8: each derived stat must equal the naive row-by-row
  // recomputation at every size.
  JobTable table;
  for (std::size_t n = 1; n <= 8; ++n) {
    const auto d = static_cast<double>(n);
    table.push_back(U(d), U(d + 2), U(9 - d));
    const InstanceView v = table.view();
    Time min_len = Time::max();
    Time max_len = Time::min();
    Time work = Time::zero();
    Time early = Time::max();
    Time late = Time::min();
    for (std::size_t i = 0; i < n; ++i) {
      min_len = std::min(min_len, v.length(static_cast<JobId>(i)));
      max_len = std::max(max_len, v.length(static_cast<JobId>(i)));
      work += v.length(static_cast<JobId>(i));
      early = std::min(early, v.arrival(static_cast<JobId>(i)));
      late = std::max(late, v.deadline(static_cast<JobId>(i)) +
                                v.length(static_cast<JobId>(i)));
    }
    EXPECT_EQ(v.min_length(), min_len) << "n=" << n;
    EXPECT_EQ(v.max_length(), max_len) << "n=" << n;
    EXPECT_EQ(v.total_work(), work) << "n=" << n;
    EXPECT_EQ(v.earliest_arrival(), early) << "n=" << n;
    EXPECT_EQ(v.latest_completion(), late) << "n=" << n;
  }
}

TEST(InstanceViewStats, NearMaxMagnitudesSaturateAndThrow) {
  // Near-Time::max() rows: total_work_saturating must saturate with the
  // flag set, the checked total_work must throw, and latest_completion
  // must throw on the unrepresentable d + p.
  JobTable table;
  table.push_back(Time::zero(), Time::max() - Time(1), Time(1));
  table.push_back(Time::zero(), Time::max(), Time(1));  // d + p overflows
  table.push_back(Time::zero(), Time::zero(), Time::max());
  bool overflowed = false;
  EXPECT_EQ(table.view().total_work_saturating(&overflowed), Time::max());
  EXPECT_TRUE(overflowed);
  EXPECT_THROW(table.view().total_work(), AssertionError);
  EXPECT_THROW(table.view().latest_completion(), AssertionError);
  // Drop the overflowing rows: the same paths come back exact.
  JobTable exact;
  exact.push_back(Time::zero(), Time::max() - Time(1), Time(1));
  EXPECT_EQ(exact.view().latest_completion(), Time::max());
  EXPECT_EQ(exact.view().total_work(), Time(1));
}

TEST(InstanceViewStats, SaturatingTotalWorkFlagsExactlyThePastMaxSums) {
  // The flag is set iff the exact sum of the (non-negative) lengths
  // exceeds Time::max(); otherwise the value is the exact sum. A negative
  // length (only an unvalidated scratch table holds one) is summed
  // exactly too, without signed overflow.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::vector<std::pair<std::vector<std::int64_t>, bool>> cases = {
      {{0}, false},
      {{kMax}, false},
      {{kMax, 1}, true},
      {{1, kMax}, true},
      {{kMax / 2, kMax / 2, 1}, false},
      {{kMax / 2, kMax / 2, 3}, true},
      {{5, 9, 13, 2, 0, 7, 11, 1, 3}, false},
      {std::vector<std::int64_t>(9, kMax / 8), true},
      {{-5}, false},
  };
  for (const auto& [lengths, past_max] : cases) {
    JobTable table;
    for (const std::int64_t p : lengths) {
      table.push_back(Time::zero(), Time::zero(), Time(p));
    }
    bool overflowed = !past_max;
    const Time total = table.view().total_work_saturating(&overflowed);
    EXPECT_EQ(overflowed, past_max) << table.view().to_string();
    if (past_max) {
      EXPECT_EQ(total, Time::max());
      EXPECT_THROW(table.view().total_work(), AssertionError);
    } else {
      std::int64_t exact = 0;
      for (const std::int64_t p : lengths) {
        exact += p;
      }
      EXPECT_EQ(total, Time(exact));
      EXPECT_EQ(table.view().total_work(), Time(exact));
    }
  }
}

TEST(InstanceViewStats, LatestCompletionReachesMaxAndThrowsPastEitherEnd) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  JobTable at_max;
  at_max.push_back(Time::zero(), Time(kMax - 5), Time(5));
  at_max.push_back(Time::zero(), Time(1), Time(1));
  EXPECT_EQ(at_max.view().latest_completion(), Time::max());
  // Unvalidated scratch rows: a negative d + p past Time::min() must
  // throw too, not wrap.
  JobTable below_min;
  below_min.push_back(Time::zero(), Time::min(), Time(-1));
  below_min.push_back(Time::zero(), Time::zero(), Time::zero());
  EXPECT_THROW(below_min.view().latest_completion(), AssertionError);
}

TEST(InstanceViewStats, OrderingsBreakDuplicateSignedKeysById) {
  // Heavy duplication, negative keys and both int64 extremes: the id
  // orderings must equal a stable sort by key (ties keep ascending ids).
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  JobTable table;
  std::vector<std::int64_t> keys(100);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = ((static_cast<std::int64_t>(i) * 2654435761LL) % 17) - 8;
  }
  keys[3] = kMax;
  keys[97] = Time::min().ticks();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    // Deadlines run the keys backwards so the two orderings differ.
    table.push_back(Time(keys[i]), Time(keys[keys.size() - 1 - i]), U(1));
  }
  const auto expect = [](const std::span<const Time> column) {
    std::vector<JobId> ids(column.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<JobId>(i);
    }
    std::stable_sort(ids.begin(), ids.end(), [&](JobId x, JobId y) {
      return column[x] < column[y];
    });
    return ids;
  };
  const InstanceView v = table.view();
  EXPECT_EQ(v.ids_by_arrival(), expect(v.arrivals()));
  EXPECT_EQ(v.ids_by_deadline(), expect(v.deadlines()));
}

}  // namespace
}  // namespace fjs
