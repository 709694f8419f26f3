// Shared vocabulary of the flow-job benchmark: clocks, job tables, samples,
// the metric set and the helpers every workload uses to fill it.
//
// A job is one (design, preset, seed, knobs) RTL->GDS flow. Every workload
// fills a JobTable with the distinct jobs it ran and a vector of JobSample,
// one per job attempted; the end-to-end metrics are computed from those in
// one place (report_end_to_end) so all four workloads define them alike.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eurochip/flow/flow.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/util/digest.hpp"

namespace perfbench {

namespace flow = eurochip::flow;
namespace rtl = eurochip::rtl;
namespace util = eurochip::util;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// --- clocks ---------------------------------------------------------------

double now_ms();            ///< steady clock
double thread_cpu_ms();     ///< CPU time of the calling thread
double process_cpu_ms();    ///< user + system CPU of the whole process
double peak_rss_mb();       ///< high-water resident set size



// --- statistics -----------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty input.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

// --- designs and jobs -----------------------------------------------------

/// A catalog design, shared so hub jobs can hold it without copying.
struct Design {
  std::string name;  ///< catalog entry name ("alu", "mul16" is "multiplier")
  std::shared_ptr<const rtl::Module> module;
};

std::vector<Design> make_catalog(int scale);

/// One distinct job of a workload: the inputs and the verdict the first
/// run of it produced. Later runs of the same job must reproduce it.
struct JobInfo {
  std::size_t design = 0;  ///< index into the workload's catalog
  flow::FlowConfig config;
  bool ok = false;
  std::string verdict;     ///< error text when !ok
  util::Digest digest;     ///< artifact digest when ok
  flow::PpaReport ppa;
  std::size_t runs = 0;
};

/// Distinct jobs keyed by their inputs; also checks that every repeat of a
/// job reproduces its first verdict and artifact digest.
class JobTable {
 public:
  std::size_t intern(std::size_t design, const flow::FlowConfig& config);
  /// Records one run's verdict; returns false (and explains on stderr) if
  /// it differs from the job's first verdict.
  bool record(std::size_t job, bool ok, const std::string& verdict,
              const util::Digest& digest, const flow::PpaReport& ppa);
  [[nodiscard]] const JobInfo& operator[](std::size_t i) const {
    return jobs_[i];
  }
  [[nodiscard]] std::size_t size() const { return jobs_.size(); }

 private:
  std::vector<JobInfo> jobs_;
  std::map<std::string, std::size_t> index_;
};

/// Artifact digest of a finished flow, by the recipe hub::make_flow_job
/// uses. Only the serial workloads use it, to compare their own runs with
/// each other; service jobs are checked against make_flow_job itself.
util::Digest artifact_digest(const flow::FlowArtifacts& a);

/// 32 hex digits of a digest. util::Digest::hex() shifts a 64-bit word by
/// 64 for the first digit of each word, which is undefined behaviour.
std::string to_hex(const util::Digest& d);

/// Design configuration every workload starts from: sky130ish, open
/// preset, FlowConfig defaults otherwise (threads = 0, as users get).
flow::FlowConfig base_config();

/// Config of the set-up's warm-up job: base_config() at threads = 1. Pool
/// helpers join a loop only if they wake in time, so with threads = 0 the
/// warm-up's CPU time would depend on timing rather than on the work.
flow::FlowConfig warmup_config();

/// One attempted job as the client saw it.
struct JobSample {
  std::size_t job = 0;
  double turnaround_ms = 0.0;
  bool ok = false;         ///< flow verdict: succeeded
  bool no_verdict = false; ///< the service never produced a flow verdict
};

// --- metrics --------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (--trace 0) and per-layer metrics (--trace 1), in the
/// order they are printed. Must match BENCHMARK.json.
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

/// The flow steps of reference_template() and the per-layer names they are
/// reported under.
struct StepName {
  const char* step;
  const char* layer;
};
extern const std::vector<StepName> kSteps;

/// The util::trace kernel spans folded into per-layer metrics.
extern const std::vector<StepName> kKernelSpans;

class Report {
 public:
  void set(const std::string& name, double value);
  void fail(const std::string& why);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Prints the last-line JSON object with every metric of `specs`;
  /// metrics never set are reported as 0.
  void print_json(std::ostream& out,
                  const std::vector<MetricSpec>& specs) const;

 private:
  bool correct_ = true;
  std::map<std::string, double> values_;
};

/// A stretch of the measured region holding samples [first, last). Rates,
/// CPU per job and turnaround percentiles are computed per window and
/// reported as the median over windows, so a burst of noise from other
/// tenants of the host moves one window rather than the result.
struct Window {
  std::size_t first = 0, last = 0;
  double wall_ms = 0.0, cpu_ms = 0.0;
};

/// Cuts the measured region into windows as samples arrive.
class WindowClock {
 public:
  void start();
  /// Closes the current window after the first `end` samples.
  void close(std::size_t end);
  /// Milliseconds since the current window opened.
  [[nodiscard]] double open_ms() const;
  /// Closes the last window; one shorter than half of `min_ms` is merged
  /// into its predecessor instead of standing alone.
  std::vector<Window> finish(std::size_t end, double min_ms);

 private:
  std::vector<Window> windows_;
  std::size_t first_ = 0;
  double wall0_ = 0.0, cpu0_ = 0.0;
};

/// Timed set-ups per CPU and run; setup_s is the median of all of them.
inline constexpr std::size_t kSetupRepeats = 6;

/// Times `setup` kSetupRepeats times on each allowed CPU, pinned to one CPU
/// at a time in turn, then runs it once more unpinned: that is the set-up
/// the workload keeps. `teardown` runs untimed before each round. Prints
/// the per-set-up process CPU and wall times and returns setup_s: the
/// median CPU time of one set-up, in seconds.
double time_setups(const std::function<void()>& teardown,
                   const std::function<void()>& setup);

/// Fills every end-to-end metric, and the wall-clock jobs_per_s and
/// turnaround percentiles, from the samples of one measured region.
void report_end_to_end(Report& report, const JobTable& table,
                       const std::vector<Design>& catalog,
                       const std::vector<JobSample>& samples,
                       const std::vector<Window>& windows, double setup_s,
                       double rss_mb);

/// Cells of the final netlist (PpaReport::cell_count: mapped, with scan
/// inserted) per succeeded job; the synth.map.cells work count.
double mean_cells(const JobTable& table, const std::vector<JobSample>& samples);

/// Sums util::trace kernel spans (by kKernelSpans name) recorded since the
/// last util::trace::start() into `totals_ms`.
void fold_kernel_spans(std::map<std::string, double>& totals_ms);

// --- output checks (checks.cpp) -------------------------------------------

/// Maps every distinct design x preset of `table` (scan disabled) and
/// checks the mapped netlist against the RTL simulator on seeded random
/// vectors. Runs outside any timed region.
void check_mapped_equivalence(Report& report, const JobTable& table,
                              const std::vector<Design>& catalog,
                              std::uint64_t seed);

/// Re-runs every distinct job of `table` as a bare flow (make_flow_job's
/// work on a default JobContext: no cache, no service) and checks its
/// verdict and artifact digest against the one the workload recorded.
void check_against_bare_flows(Report& report, const JobTable& table,
                              const std::vector<Design>& catalog);

/// Prints one row per distinct job: design, preset, knobs, verdict, PPA
/// and artifact digest, so an artifact change shows up in a diff.
void print_job_rows(std::ostream& out, const JobTable& table,
                    const std::vector<Design>& catalog);

// --- workloads -------------------------------------------------------------

void run_serial(const Args& args, int scale, Report& report);
void run_hub_resubmit(const Args& args, Report& report);
void run_fed_skewed(const Args& args, Report& report);

}  // namespace perfbench
