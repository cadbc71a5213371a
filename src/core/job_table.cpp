#include "core/job_table.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "support/telemetry.h"

namespace fjs {
namespace {

// Always 0: the vector kernel layer that counted lanes is gone. It stays
// registered here, in a translation unit every binary links, because
// perfbench's per-layer `support.simd.lanes_used` metric reads it and
// drops the metric when the counter is missing; retire both together.
telemetry::Counter g_tm_simd_lanes_used{"simd.lanes_used",
                                        telemetry::Stability::kDeterministic};

/// Fills `out` with 0..n-1 ordered by (keys[id], id).
void sort_ids_by_key(std::span<const Time> keys, std::vector<JobId>& out) {
  out.resize(keys.size());
  std::iota(out.begin(), out.end(), JobId{0});
  std::sort(out.begin(), out.end(), [keys](JobId x, JobId y) {
    if (keys[x] != keys[y]) {
      return keys[x] < keys[y];
    }
    return x < y;
  });
}

}  // namespace

double InstanceView::mu() const {
  FJS_REQUIRE(!empty(), "mu of empty instance");
  const auto [lo, hi] = std::minmax_element(lengths_.begin(), lengths_.end());
  return time_ratio(*hi, *lo);
}

Time InstanceView::min_length() const {
  FJS_REQUIRE(!empty(), "min_length of empty instance");
  return *std::min_element(lengths_.begin(), lengths_.end());
}

Time InstanceView::max_length() const {
  FJS_REQUIRE(!empty(), "max_length of empty instance");
  return *std::max_element(lengths_.begin(), lengths_.end());
}

Time InstanceView::total_work() const {
  Time total = Time::zero();
  for (const Time p : lengths_) {
    total = total.checked_add(p);
  }
  return total;
}

Time InstanceView::total_work_saturating(bool* overflowed) const {
  // Lengths are positive in a validated table, so there the sum only ever
  // clips at Time::max(). An unvalidated scratch table may hold
  // non-positive lengths; those clip at Time::min(), never overflow.
  bool clipped = false;
  Time total = Time::zero();
  for (const Time p : lengths_) {
    std::int64_t sum = 0;
    if (__builtin_add_overflow(total.ticks(), p.ticks(), &sum)) {
      clipped = true;
      total = p > Time::zero() ? Time::max() : Time::min();
    } else {
      total = Time(sum);
    }
  }
  if (overflowed != nullptr) {
    *overflowed = clipped;
  }
  return total;
}

Time InstanceView::earliest_arrival() const {
  FJS_REQUIRE(!empty(), "earliest_arrival of empty instance");
  return *std::min_element(arrivals_.begin(), arrivals_.end());
}

Time InstanceView::latest_completion() const {
  FJS_REQUIRE(!empty(), "latest_completion of empty instance");
  Time m = Time::min();
  for (std::size_t i = 0; i < deadlines_.size(); ++i) {
    m = std::max(m, deadlines_[i].checked_add(lengths_[i]));
  }
  return m;
}

void InstanceView::ids_by_arrival(std::vector<JobId>& out) const {
  sort_ids_by_key(arrivals_, out);
}

void InstanceView::ids_by_deadline(std::vector<JobId>& out) const {
  sort_ids_by_key(deadlines_, out);
}

std::vector<JobId> InstanceView::ids_by_arrival() const {
  std::vector<JobId> ids;
  ids_by_arrival(ids);
  return ids;
}

std::vector<JobId> InstanceView::ids_by_deadline() const {
  std::vector<JobId> ids;
  ids_by_deadline(ids);
  return ids;
}

bool InstanceView::sorted_by_arrival() const {
  return std::is_sorted(arrivals_.begin(), arrivals_.end());
}

bool InstanceView::is_multiple_of(Time quantum) const {
  FJS_REQUIRE(quantum > Time::zero(), "is_multiple_of: quantum must be > 0");
  const std::int64_t q = quantum.ticks();
  for (std::size_t i = 0; i < size(); ++i) {
    if (arrivals_[i].ticks() % q != 0 || deadlines_[i].ticks() % q != 0 ||
        lengths_[i].ticks() % q != 0) {
      return false;
    }
  }
  return true;
}

void InstanceView::validate() const {
  for (std::size_t i = 0; i < size(); ++i) {
    const Job j = job(static_cast<JobId>(i));
    FJS_REQUIRE(j.valid(), "Instance: invalid job " + j.to_string());
    // d + p must be representable: a job may legally start at its
    // starting deadline, so its completion reaches d + p. Enforcing this
    // here makes latest_completion() and the engine's completion pushes
    // provably overflow-free (length > 0 keeps max() - length safe).
    FJS_REQUIRE(j.deadline <= Time::max() - j.length,
                "Instance: job " + j.to_string() +
                    " has deadline + length past Time::max()");
  }
}

std::string InstanceView::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < size(); ++i) {
    os << job(static_cast<JobId>(i)).to_string() << '\n';
  }
  return os.str();
}

JobTable::JobTable(const std::vector<Job>& jobs) {
  reserve(jobs.size());
  for (const Job& j : jobs) {
    push_back(j);
  }
}

JobTable::JobTable(InstanceView view) {
  reserve(view.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    arrival_.push_back(view.arrivals()[i]);
    deadline_.push_back(view.deadlines()[i]);
    length_.push_back(view.lengths()[i]);
  }
}

}  // namespace fjs
