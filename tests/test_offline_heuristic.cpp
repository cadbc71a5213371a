// Pins heuristic_optimal start for start against a reference copy of the
// full-scan formulation: every job's candidate starts come from every
// component of the whole union of the other n-1 intervals, rebuilt per job.
// The library scans only the intervals that meet a job's reach [a, d+p),
// which is exact (endpoints outside the reach clamp to a or d); these tests
// hold it to the same schedules on the families where that argument has
// edges: long jobs (the max-length scan cut), zero laxity with duplicate
// intervals (skip exactly one copy), same-tick ties and huge magnitudes.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/interval_set.h"
#include "fuzz/generator.h"
#include "helpers.h"
#include "offline/heuristic.h"
#include "support/rng.h"
#include "workload/suite.h"

namespace fjs {
namespace {

using testing::make_instance;

// ---- reference: the full-scan heuristic -----------------------------------

Time ref_clamp(Time value, Time lo, Time hi) {
  return std::max(lo, std::min(value, hi));
}

std::pair<Time, Time> ref_best_placement(const Job& j,
                                         const IntervalSet& others) {
  std::vector<Time> cands{j.arrival, j.deadline};
  for (const Interval& c : others.components()) {
    for (const Time e : {c.lo, c.hi}) {
      cands.push_back(ref_clamp(e, j.arrival, j.deadline));
      cands.push_back(ref_clamp(e - j.length, j.arrival, j.deadline));
    }
  }
  std::sort(cands.begin(), cands.end());
  cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
  Time best_start = j.deadline;
  Time best_marginal = Time::max();
  for (const Time s : cands) {
    const Time marginal = others.uncovered_measure(j.active_interval(s));
    if (marginal < best_marginal) {
      best_marginal = marginal;
      best_start = s;
    }
  }
  return {best_start, best_marginal};
}

std::vector<Time> ref_greedy(const Instance& inst,
                             const std::vector<JobId>& order) {
  std::vector<Time> starts(inst.size());
  IntervalSet placed;
  for (const JobId id : order) {
    const Job& j = inst.job(id);
    starts[id] = ref_best_placement(j, placed).first;
    placed.add(j.active_interval(starts[id]));
  }
  return starts;
}

bool ref_improve_pass(const Instance& inst, std::vector<Time>& starts,
                      const std::vector<JobId>& order) {
  bool moved = false;
  for (const JobId id : order) {
    const Job& j = inst.job(id);
    std::vector<Interval> rest;
    for (JobId other = 0; other < inst.size(); ++other) {
      if (other != id) {
        rest.push_back(inst.job(other).active_interval(starts[other]));
      }
    }
    const IntervalSet others(std::move(rest));
    const Time current = others.uncovered_measure(j.active_interval(starts[id]));
    const auto [best_start, best_marginal] = ref_best_placement(j, others);
    if (best_marginal < current) {
      starts[id] = best_start;
      moved = true;
    }
  }
  return moved;
}

Time ref_span(const Instance& inst, const std::vector<Time>& starts) {
  std::vector<Interval> intervals;
  for (JobId id = 0; id < inst.size(); ++id) {
    intervals.push_back(inst.job(id).active_interval(starts[id]));
  }
  return IntervalSet(std::move(intervals)).measure();
}

struct RefResult {
  Time span = Time::max();
  std::vector<Time> starts;
};

RefResult ref_heuristic(const Instance& inst, const HeuristicOptions& options) {
  Rng rng(options.seed);
  std::vector<std::vector<JobId>> orders;
  orders.push_back(inst.ids_by_deadline());
  orders.push_back(inst.ids_by_arrival());
  std::vector<JobId> by_length = inst.ids_by_deadline();
  std::stable_sort(by_length.begin(), by_length.end(), [&](JobId a, JobId b) {
    return inst.job(a).length > inst.job(b).length;
  });
  orders.push_back(std::move(by_length));
  for (int r = 0; r < options.restarts; ++r) {
    std::vector<JobId> shuffled = inst.ids_by_arrival();
    rng.shuffle(shuffled);
    orders.push_back(std::move(shuffled));
  }
  RefResult best;
  std::vector<JobId> pass_order = inst.ids_by_deadline();
  for (const auto& order : orders) {
    std::vector<Time> starts = ref_greedy(inst, order);
    for (int pass = 0; pass < options.max_passes; ++pass) {
      rng.shuffle(pass_order);
      if (!ref_improve_pass(inst, starts, pass_order)) {
        break;
      }
    }
    const Time span = ref_span(inst, starts);
    if (best.starts.empty() || span < best.span) {
      best.span = span;
      best.starts = starts;
    }
  }
  return best;
}

// ---- comparison ------------------------------------------------------------

/// The option sets the library runs the heuristic with: the default, the
/// ratio sweeps' (E7/E10) and the exact solver's incumbent seed.
std::vector<HeuristicOptions> option_sets() {
  return {HeuristicOptions{},
          HeuristicOptions{.restarts = 1, .max_passes = 8},
          HeuristicOptions{.restarts = 0, .max_passes = 8}};
}

void expect_same_as_reference(const Instance& inst, const std::string& what) {
  for (const HeuristicOptions& options : option_sets()) {
    const HeuristicResult got = heuristic_optimal(inst, options);
    const RefResult want = ref_heuristic(inst, options);
    ASSERT_EQ(got.span, want.span)
        << what << " restarts=" << options.restarts;
    for (JobId id = 0; id < inst.size(); ++id) {
      ASSERT_EQ(got.schedule.start(id), want.starts[id])
          << what << " restarts=" << options.restarts << " job " << id;
    }
  }
}

TEST(HeuristicPin, StandardSuiteAtN400) {
  std::uint64_t seed = 17;
  for (const NamedWorkload& family : standard_suite()) {
    WorkloadConfig config = family.config;
    config.job_count = 400;
    expect_same_as_reference(generate_workload(config, seed++), family.name);
  }
}

TEST(HeuristicPin, FuzzEdgeCaseInstances) {
  FuzzGenConfig config;
  config.max_jobs = 40;
  config.p_zero_laxity = 0.4;
  config.p_tie = 0.6;
  config.p_duplicate_job = 0.2;
  config.p_huge = 0.1;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    expect_same_as_reference(generate_fuzz_instance(config, seed),
                             "fuzz seed " + std::to_string(seed));
  }
}

TEST(HeuristicPin, OneLongJobAmongShortOnes) {
  // The scan of a short job starts after lo <= a - max_len; the long job's
  // interval begins far to the left of most windows yet covers them.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    InstanceBuilder builder;
    for (int i = 0; i < 150; ++i) {
      const double a = static_cast<double>(rng.uniform_int(0, 200)) / 2.0;
      const double lax = static_cast<double>(rng.uniform_int(0, 8)) / 2.0;
      const double p = static_cast<double>(rng.uniform_int(1, 4)) / 2.0;
      builder.add(a, a + lax, p);
    }
    const double long_a = static_cast<double>(rng.uniform_int(0, 40));
    builder.add(long_a, long_a + static_cast<double>(rng.uniform_int(0, 30)),
                60.0 + static_cast<double>(rng.uniform_int(0, 20)));
    expect_same_as_reference(builder.build(),
                             "long job seed " + std::to_string(seed));
  }
}

TEST(HeuristicPin, ZeroLaxityDuplicates) {
  // Identical rigid intervals: each job must drop exactly one copy of its
  // own interval from "everyone else", never all of them.
  expect_same_as_reference(
      make_instance({{0, 0, 2}, {0, 0, 2}, {0, 0, 2}, {1, 3, 2}, {2, 2, 1},
                     {2, 2, 1}, {3, 6, 4}}),
      "hand-built duplicates");
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    InstanceBuilder builder;
    for (int i = 0; i < 60; ++i) {
      const double a = static_cast<double>(rng.uniform_int(0, 30));
      const double p = static_cast<double>(rng.uniform_int(1, 5));
      const int copies = static_cast<int>(rng.uniform_int(1, 3));
      for (int c = 0; c < copies; ++c) {
        builder.add(a, a, p);
      }
      if (rng.uniform_int(0, 3) == 0) {
        builder.add(a, a + static_cast<double>(rng.uniform_int(1, 6)), p);
      }
    }
    expect_same_as_reference(builder.build(),
                             "zero-laxity seed " + std::to_string(seed));
  }
}

TEST(HeuristicPin, SpanReachingTimeMaxKeepsASchedule) {
  // [0, Time::max()) is a legal active interval; its span equals the
  // "no incumbent yet" sentinel and must still produce a schedule.
  InstanceBuilder builder;
  builder.add_ticks(Time::zero(), Time::zero(), Time::max());
  builder.add_ticks(Time(5), Time(9), Time(3));
  const Instance inst = builder.build();
  const HeuristicResult result = heuristic_optimal(inst);
  EXPECT_EQ(result.span, Time::max());
  EXPECT_EQ(result.schedule.start(0), Time::zero());
  expect_same_as_reference(inst, "span at Time::max()");
}

}  // namespace
}  // namespace fjs
