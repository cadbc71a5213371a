// fjs_cli — run any registered scheduler on a workload or an instance file
// and inspect the result (metrics, ratio bracket, ASCII Gantt chart).
//
//   fjs_cli --scheduler batch+ --workload bimodal --jobs 40 --seed 7 --gantt
//   fjs_cli --scheduler profit:k=2 --file my_instance.txt --stats
//   fjs_cli --scheduler cdb --workload heavy-tail --svg timeline.svg
//   fjs_cli --list
//
// Instance file format (units): first line N, then N lines "a d p".
#include <charconv>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "analysis/gantt.h"
#include "analysis/instance_stats.h"
#include "analysis/ratio.h"
#include "analysis/report.h"
#include "analysis/svg.h"
#include "schedulers/registry.h"
#include "sim/engine.h"
#include "support/assert.h"
#include "support/string_util.h"
#include "workload/suite.h"

namespace {

using namespace fjs;

int usage() {
  std::cerr
      << "usage: fjs_cli [--scheduler KEY] [--workload NAME | --file PATH]\n"
         "               [--jobs N] [--seed S] [--gantt] [--stats]\n"
         "               [--timeline] [--svg PATH] [--save-schedule PATH]\n"
         "               [--list]\n";
  return 2;
}

/// A whole-string decimal count, or nullopt.
std::optional<std::uint64_t> parse_count(const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  return value;
}

std::optional<WorkloadConfig> find_workload(const std::string& name) {
  for (const auto& named : standard_suite()) {
    if (named.name == name) {
      return named.config;
    }
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scheduler_key = "batch+";
  std::string workload = "uniform-hi-lax";
  std::string file;
  std::uint64_t jobs = 30;
  std::uint64_t seed = 1;
  bool gantt = false;
  bool stats = false;
  bool timeline = false;
  std::string svg_path;
  std::string save_schedule_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::exit(usage());
      }
      return argv[++i];
    };
    if (arg == "--scheduler") {
      scheduler_key = next();
    } else if (arg == "--workload") {
      workload = next();
    } else if (arg == "--file") {
      file = next();
    } else if (arg == "--jobs" || arg == "--seed") {
      const std::string text = next();
      const auto value = parse_count(text);
      if (!value.has_value() || (arg == "--jobs" && *value == 0)) {
        std::cerr << "invalid " << arg << " '" << text << "'\n";
        return 1;
      }
      (arg == "--jobs" ? jobs : seed) = *value;
    } else if (arg == "--gantt") {
      gantt = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--timeline") {
      timeline = true;
    } else if (arg == "--svg") {
      svg_path = next();
    } else if (arg == "--save-schedule") {
      save_schedule_path = next();
    } else if (arg == "--list") {
      std::cout << "schedulers:";
      for (const auto& key : known_scheduler_keys()) {
        std::cout << ' ' << key;
      }
      std::cout << "\nworkloads:";
      for (const auto& named : standard_suite()) {
        std::cout << ' ' << named.name;
      }
      std::cout << '\n';
      return 0;
    } else {
      return usage();
    }
  }

  std::unique_ptr<OnlineScheduler> scheduler;
  try {
    scheduler = make_scheduler(scheduler_key);
  } catch (const AssertionError&) {
    std::cerr << "unknown scheduler '" << scheduler_key << "' (see --list)\n";
    return 1;
  }

  Instance instance;
  if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "cannot open " << file << '\n';
      return 1;
    }
    try {
      instance = Instance::parse(in);
    } catch (const AssertionError&) {
      std::cerr << "cannot parse " << file
                << " (want N, then N valid lines \"a d p\")\n";
      return 1;
    }
    if (instance.empty()) {
      std::cerr << file << " has no jobs\n";
      return 1;
    }
  } else {
    const auto config = find_workload(workload);
    if (!config.has_value()) {
      std::cerr << "unknown workload '" << workload << "' (see --list)\n";
      return 1;
    }
    WorkloadConfig cfg = *config;
    cfg.job_count = static_cast<std::size_t>(jobs);
    instance = generate_workload(cfg, seed);
  }

  const SimulationResult result =
      simulate(instance, *scheduler, scheduler->requires_clairvoyance());
  const ScheduleMetrics metrics =
      compute_metrics(result.instance, result.schedule);

  std::cout << scheduler->name() << " on " << result.instance.size()
            << " jobs (mu=" << format_double(result.instance.mu(), 3)
            << ")\n"
            << "  span             " << metrics.span.to_string() << '\n'
            << "  makespan end     " << metrics.makespan_end.to_string()
            << '\n'
            << "  max concurrency  " << metrics.max_concurrency << '\n'
            << "  total delay      " << metrics.total_delay.to_string()
            << '\n'
            << "  span / work      "
            << format_double(metrics.span_over_work, 3) << '\n';

  const RatioBracket bracket =
      measure_ratio(instance, scheduler_key, OptMethod::kBracket);
  std::cout << "  ratio bracket    ["
            << format_double(bracket.ratio_lower(), 3) << ", "
            << format_double(bracket.ratio_upper(), 3) << "]  (vs heuristic"
            << " OPT " << bracket.opt_upper.to_string() << ", certified LB "
            << bracket.opt_lower.to_string() << ")\n";

  if (stats) {
    std::cout << '\n'
              << compute_instance_stats(result.instance).to_string() << '\n'
              << guarantee_table(result.instance);
  }
  if (timeline) {
    std::cout << '\n'
              << analyze_timeline(result.instance, result.schedule)
                     .to_string();
  }
  if (gantt) {
    std::cout << '\n'
              << render_gantt(result.instance, result.schedule);
  }
  if (!svg_path.empty()) {
    if (write_svg_timeline(result.instance, result.schedule, svg_path)) {
      std::cout << "wrote " << svg_path << '\n';
    } else {
      std::cerr << "failed to write " << svg_path << '\n';
      return 1;
    }
  }
  if (!save_schedule_path.empty()) {
    std::ofstream out(save_schedule_path);
    if (!out) {
      std::cerr << "failed to write " << save_schedule_path << '\n';
      return 1;
    }
    result.schedule.write(out);
    std::cout << "wrote " << save_schedule_path << '\n';
  }
  return 0;
}
