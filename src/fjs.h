// Umbrella header for libfjs — pulls in the full public API.
//
// Fine-grained headers are preferred for compile time; this exists for
// quick experiments and downstream prototyping.
#pragma once

#include "analysis/convergence.h"
#include "analysis/flag_forest.h"
#include "analysis/gantt.h"
#include "analysis/instance_stats.h"
#include "analysis/ratio.h"
#include "analysis/report.h"
#include "analysis/svg.h"
#include "analysis/sweep.h"
#include "adversary/clairvoyant_lb.h"
#include "adversary/instance_miner.h"
#include "adversary/nonclairvoyant_lb.h"
#include "adversary/tightness.h"
#include "core/instance.h"
#include "core/interval.h"
#include "core/interval_set.h"
#include "core/job.h"
#include "core/job_table.h"
#include "core/schedule.h"
#include "core/span_tracker.h"
#include "core/time.h"
#include "busytime/busytime.h"
#include "dbp/packing.h"
#include "dbp/pipeline.h"
#include "dbp/simulator.h"
#include "offline/exact.h"
#include "offline/heuristic.h"
#include "offline/lower_bound.h"
#include "schedulers/batch.h"
#include "schedulers/batch_plus.h"
#include "schedulers/classify_by_duration.h"
#include "schedulers/doubler.h"
#include "schedulers/eager.h"
#include "schedulers/lazy.h"
#include "schedulers/overlap.h"
#include "schedulers/profit.h"
#include "schedulers/randomized.h"
#include "schedulers/registry.h"
#include "offline/certify.h"
#include "sim/conformance.h"
#include "sim/engine.h"
#include "sim/length_oracle.h"
#include "sim/portfolio.h"
#include "sim/scheduler.h"
#include "sim/source.h"
#include "sim/trace.h"
#include "sim/trace_check.h"
#include "support/object_pool.h"
#include "support/telemetry.h"
#include "offline/annealing.h"
#include "workload/cloud_trace.h"
#include "workload/generator.h"
#include "workload/suite.h"
#include "workload/transforms.h"

namespace fjs {

/// Library version, matching the CMake project version.
inline constexpr const char* kVersion = "1.0.0";

}  // namespace fjs
