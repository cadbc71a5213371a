#include "offline/heuristic.h"

#include <algorithm>
#include <vector>

#include "core/interval_set.h"
#include "support/assert.h"
#include "support/rng.h"

namespace fjs {
namespace {

Time clamp_time(Time value, Time lo, Time hi) {
  return std::max(lo, std::min(value, hi));
}

/// Candidate starts for job j against a fixed set of other intervals:
/// window endpoints plus alignments of either end of j's interval with any
/// endpoint of the fixed union. The marginal-span function is piecewise
/// linear with breakpoints exactly here. Only components that meet j's
/// reach [a, d+p) are scanned: an endpoint e <= a clamps (as e and e-p) to
/// a, and e >= d+p clamps to d, both of which are candidates already.
void collect_candidates(const Job& j, const IntervalSet& others,
                        std::vector<Time>& out) {
  out.clear();
  out.push_back(j.arrival);
  out.push_back(j.deadline);
  const std::vector<Interval>& comps = others.components();
  const Time reach_end = j.latest_completion();
  auto it = std::partition_point(
      comps.begin(), comps.end(),
      [&](const Interval& c) { return c.hi <= j.arrival; });
  for (; it != comps.end() && it->lo < reach_end; ++it) {
    for (const Time e : {it->lo, it->hi}) {
      out.push_back(clamp_time(e, j.arrival, j.deadline));
      out.push_back(clamp_time(e - j.length, j.arrival, j.deadline));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

/// Best start for j given others; returns (start, marginal uncovered
/// measure).
std::pair<Time, Time> best_placement(const Job& j, const IntervalSet& others,
                                     std::vector<Time>& scratch) {
  collect_candidates(j, others, scratch);
  Time best_start = j.deadline;
  Time best_marginal = Time::max();
  for (const Time s : scratch) {
    const Time marginal = others.uncovered_measure(j.active_interval(s));
    if (marginal < best_marginal) {
      best_marginal = marginal;
      best_start = s;
    }
  }
  return {best_start, best_marginal};
}

/// Greedy construction: place jobs in `order`, each at its best alignment
/// against the union of already-placed intervals.
Schedule greedy(const Instance& inst, const std::vector<JobId>& order) {
  Schedule sched(inst.size());
  IntervalSet placed;
  std::vector<Time> scratch;
  for (const JobId id : order) {
    const Job& j = inst.job(id);
    const auto [start, marginal] = best_placement(j, placed, scratch);
    sched.set_start(id, start);
    placed.add(j.active_interval(start));
  }
  return sched;
}

/// One full coordinate-descent pass; returns true if any job moved.
bool improve_pass(const Instance& inst, std::vector<Time>& starts,
                  const std::vector<JobId>& order) {
  bool moved = false;
  std::vector<Time> scratch;
  // Every job's active interval plus the same list sorted by left
  // endpoint, maintained across moves with replace_in_sorted.
  std::vector<Interval> intervals(inst.size());
  std::vector<Interval> sorted;
  sorted.reserve(inst.size());
  for (JobId id = 0; id < inst.size(); ++id) {
    intervals[id] = inst.job(id).active_interval(starts[id]);
    sorted.push_back(intervals[id]);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  const Time max_len = inst.max_length();
  IntervalSet others;
  for (const JobId id : order) {
    const Job& j = inst.job(id);
    // "Everyone else's union", restricted to the intervals that meet j's
    // reach [a, d+p): every candidate start and every marginal depends on
    // the union only inside the reach. An interval with lo <= a - max_len
    // ends by a, so a binary search skips all of those; the rest of the
    // scan is sorted by lo, so each add_hint is O(1).
    const Time reach_end = j.latest_completion();
    const Time scan_after = j.arrival.saturating_sub(max_len);
    auto it = std::partition_point(
        sorted.begin(), sorted.end(),
        [&](const Interval& iv) { return iv.lo <= scan_after; });
    others.clear();
    bool skipped = false;
    for (; it != sorted.end() && it->lo < reach_end; ++it) {
      if (!skipped && *it == intervals[id]) {
        skipped = true;  // drop exactly one instance of this job's interval
        continue;
      }
      if (it->hi > j.arrival) {
        others.add_hint(*it);
      }
    }
    const Time current_marginal =
        others.uncovered_measure(j.active_interval(starts[id]));
    const auto [best_start, best_marginal] = best_placement(j, others, scratch);
    if (best_marginal < current_marginal) {
      const Interval old_iv = intervals[id];
      starts[id] = best_start;
      intervals[id] = j.active_interval(best_start);
      IntervalSet::replace_in_sorted(sorted, old_iv, intervals[id]);
      moved = true;
    }
  }
  return moved;
}

Time span_of(const Instance& inst, const std::vector<Time>& starts) {
  std::vector<Interval> intervals;
  intervals.reserve(inst.size());
  for (JobId id = 0; id < inst.size(); ++id) {
    intervals.push_back(inst.job(id).active_interval(starts[id]));
  }
  return IntervalSet(std::move(intervals)).measure();
}

}  // namespace

HeuristicResult heuristic_optimal(const Instance& instance,
                                  HeuristicOptions options) {
  if (instance.empty()) {
    return HeuristicResult{.span = Time::zero(), .schedule = Schedule(0)};
  }
  Rng rng(options.seed);

  std::vector<std::vector<JobId>> orders;
  orders.push_back(instance.ids_by_deadline());
  orders.push_back(instance.ids_by_arrival());
  // Longest-first greedy tends to build good "anchors" for short jobs.
  {
    std::vector<JobId> by_length = instance.ids_by_deadline();
    std::stable_sort(by_length.begin(), by_length.end(),
                     [&](JobId a, JobId b) {
                       return instance.job(a).length > instance.job(b).length;
                     });
    orders.push_back(std::move(by_length));
  }
  for (int r = 0; r < options.restarts; ++r) {
    std::vector<JobId> shuffled = instance.ids_by_arrival();
    rng.shuffle(shuffled);
    orders.push_back(std::move(shuffled));
  }

  Time best_span = Time::max();
  std::vector<Time> best_starts;
  std::vector<JobId> pass_order = instance.ids_by_deadline();
  for (const auto& order : orders) {
    Schedule seed_sched = greedy(instance, order);
    std::vector<Time> starts(instance.size());
    for (JobId id = 0; id < instance.size(); ++id) {
      starts[id] = seed_sched.start(id);
    }
    for (int pass = 0; pass < options.max_passes; ++pass) {
      rng.shuffle(pass_order);
      if (!improve_pass(instance, starts, pass_order)) {
        break;
      }
    }
    const Time span = span_of(instance, starts);
    // The first order always seeds the incumbent: a span of exactly
    // Time::max() (a union reaching the end of the time axis) is legal.
    if (best_starts.empty() || span < best_span) {
      best_span = span;
      best_starts = starts;
    }
  }

  Schedule schedule = Schedule::from_starts(best_starts);
  schedule.validate(instance);
  return HeuristicResult{.span = best_span, .schedule = std::move(schedule)};
}

Time heuristic_span(const Instance& instance, HeuristicOptions options) {
  return heuristic_optimal(instance, options).span;
}

}  // namespace fjs
