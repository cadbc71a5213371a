// `reproduce`: the paper reproduction, the repository's headline number.
//
// Why: the only workload that runs the adversary constructions (E1-E6),
// dbp/busytime (E8, E11) and the runner's CSV/JSON emission, mixing every
// layer in the proportions the reproduction uses.
//
// A unit is one experiments::run_experiments call over every registered
// experiment except e9 (google-benchmark microbenchmarks timed by their
// own harness): full profile, jobs = 1, base seed = the run seed, output
// into the scratch directory with force.
#include <filesystem>
#include <sstream>

#include "common.h"
#include "experiments/registry.h"
#include "experiments/runner.h"

namespace fjs::bench {
namespace {

using experiments::Experiment;
using experiments::RunReport;
using experiments::RunnerOptions;

class ReproduceWorkload final : public Workload {
 public:
  explicit ReproduceWorkload(const RunConfig& config) : config_(config) {}

  void setup() override {
    selection_.clear();
    for (const Experiment* e : experiments::experiment_registry()) {
      if (e->name() != "e9") {
        selection_.push_back(e);
      }
    }
    std::filesystem::create_directories(config_.scratch_dir);
    options_.smoke = false;
    options_.jobs = 1;
    options_.seed = config_.seed;
    options_.out_root = config_.scratch_dir;
    options_.run_id = "reproduce";
    options_.force = true;
    options_.quiet = true;
    // Warm-up: one full reproduction; its verdicts are the reference.
    reference_ = experiments::verdicts_json(
                     experiments::run_experiments(selection_, options_))
                     .dump(0);
  }

  void build_reference(Outcome& out) override {
    out.check(JsonValue::parse(reference_).get("all_passed").as_bool(),
              "reproduce: the reference run has failing verdicts");
  }

  std::size_t cycle_units() const override { return 1; }

  double run_unit(std::size_t, Outcome& out) override {
    const RunReport report = experiments::run_experiments(selection_, options_);
    account(report, "reproduce", out);
    return static_cast<double>(report.records.size());
  }

  /// One run_experiments call per experiment, a span around each; the
  /// merged verdicts must equal the single-call reference.
  double run_traced_unit(std::size_t, Outcome& out) override {
    RunReport merged;
    merged.smoke = options_.smoke;
    merged.base_seed = options_.seed;
    for (std::size_t i = 0; i < selection_.size(); ++i) {
      RunnerOptions options = options_;
      options.run_id = "trace-" + selection_[i]->name();
      ScopedSpan span(kSpanExperiment, static_cast<std::uint16_t>(i));
      RunReport report = experiments::run_experiments({selection_[i]}, options);
      for (auto& record : report.records) {
        merged.records.push_back(std::move(record));
      }
    }
    account(merged, "traced reproduce", out);
    return static_cast<double>(merged.records.size());
  }

  void layer_metrics(const std::vector<Span>& spans,
                     const CounterDelta& counters, std::size_t units,
                     Outcome& out) override {
    std::vector<double> total_ms(selection_.size(), 0.0);
    for (const Span& s : spans) {
      if (s.name == kSpanExperiment) {
        total_ms[s.tag] += ms_between(s.t0, s.t1);
      }
    }
    for (std::size_t i = 0; i < selection_.size(); ++i) {
      const std::string name = "experiments." + selection_[i]->name() + "_ms";
      // Experiments registered after e16 have no metric of their own.
      for (const Metric& m : out.metrics) {
        if (m.name == name) {
          set_metric(out, name, total_ms[i] / static_cast<double>(units));
        }
      }
    }
    set_metric(out, "experiments.verdicts", static_cast<double>(verdicts_));
    counter_metrics(counters, units, out);
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "reproduce: " << selection_.size()
       << " experiments (all but e9), full profile, jobs=1, base seed "
       << config_.seed;
    return os.str();
  }

 private:
  void account(const RunReport& report, const char* what, Outcome& out) {
    std::size_t verdicts = 0;
    std::size_t failed = 0;
    for (const auto& record : report.records) {
      verdicts += record.verdicts.size();
      for (const auto& v : record.verdicts) {
        failed += v.pass ? 0 : 1;
      }
      if (!record.error.empty()) {
        ++verdicts;
        ++failed;
        out.check_failed(std::string(what) + " " + record.name +
                         " raised: " + record.error);
      }
    }
    verdicts_ = verdicts;
    const bool same =
        out.check(experiments::verdicts_json(report).dump(0) == reference_,
                  std::string(what) + ": verdicts differ from the reference");
    out.check(report.all_passed(), std::string(what) + ": a verdict failed");
    out.attempted += verdicts;
    out.failed += same ? failed : verdicts;
  }

  RunConfig config_;
  std::vector<const Experiment*> selection_;
  RunnerOptions options_;
  std::string reference_;
  std::size_t verdicts_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_reproduce(const RunConfig& config) {
  return std::make_unique<ReproduceWorkload>(config);
}

}  // namespace fjs::bench
