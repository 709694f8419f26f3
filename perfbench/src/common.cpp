#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "eurochip/flow/fingerprint.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/util/trace.hpp"

namespace perfbench {

// --- clocks ---------------------------------------------------------------

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double clock_ms(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}
}  // namespace

double thread_cpu_ms() { return clock_ms(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_ms() { return clock_ms(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- statistics -----------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// --- designs and jobs -----------------------------------------------------

std::vector<Design> make_catalog(int scale) {
  std::vector<Design> out;
  for (rtl::designs::CatalogEntry& e : rtl::designs::standard_catalog(scale)) {
    out.push_back({e.name, std::make_shared<const rtl::Module>(
                               std::move(e.module))});
  }
  return out;
}

flow::FlowConfig base_config() {
  flow::FlowConfig cfg;
  cfg.node = eurochip::pdk::standard_node("sky130ish").value();
  return cfg;
}

flow::FlowConfig warmup_config() {
  flow::FlowConfig cfg = base_config();
  cfg.threads = 1;
  return cfg;
}

std::size_t JobTable::intern(std::size_t design,
                             const flow::FlowConfig& config) {
  char key[160];
  std::snprintf(key, sizeof key, "%zu|%d|%.17g|%llu", design,
                static_cast<int>(config.quality), config.utilization,
                static_cast<unsigned long long>(config.seed));
  const auto [it, inserted] = index_.emplace(key, jobs_.size());
  if (inserted) {
    JobInfo info;
    info.design = design;
    info.config = config;
    jobs_.push_back(std::move(info));
  }
  return it->second;
}

bool JobTable::record(std::size_t job, bool ok, const std::string& verdict,
                      const util::Digest& digest, const flow::PpaReport& ppa) {
  JobInfo& info = jobs_[job];
  if (info.runs++ == 0) {
    info.ok = ok;
    info.verdict = verdict;
    info.digest = digest;
    info.ppa = ppa;
    return true;
  }
  if (info.ok == ok && info.verdict == verdict && info.digest == digest) {
    return true;
  }
  std::cerr << "perfbench: job " << job << " changed its result: "
            << (info.ok ? to_hex(info.digest) : info.verdict) << " -> "
            << (ok ? to_hex(digest) : verdict) << "\n";
  return false;
}

std::string to_hex(const util::Digest& d) {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(d.hi),
                static_cast<unsigned long long>(d.lo));
  return buf;
}

util::Digest artifact_digest(const flow::FlowArtifacts& a) {
  util::Hasher h;
  h.str("eurochip.artifact.v1");
  if (a.mapped) h.digest(flow::digest_of(*a.mapped));
  if (a.placed) h.digest(flow::digest_of(*a.placed));
  if (a.routed) h.digest(flow::digest_of(*a.routed));
  h.bytes(a.gds_bytes.data(), a.gds_bytes.size());
  return h.finalize();
}

// --- metrics --------------------------------------------------------------

const std::vector<MetricSpec> kEndToEnd = {
    {"cpu_ms_per_job", "ms"},
    {"succeeded_share", "share"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"qor.fmax_mhz.geomean", "MHz"},
    {"qor.area_um2.geomean", "um2"},
    {"qor.power_uw.geomean", "uW"},
};

const std::vector<StepName> kSteps = {
    {"library", "pdk.library"},   {"elaborate", "synth.elaborate"},
    {"synth", "synth.opt"},       {"map", "synth.map"},
    {"dft", "synth.dft"},         {"place", "place"},
    {"cts", "cts"},               {"route", "route"},
    {"sta", "timing.sta"},        {"power", "power"},
    {"drc", "drc"},               {"gds", "gds"},
};

const std::vector<StepName> kKernelSpans = {
    {"place.global", "place.global.ms"},
    {"place.legalize", "place.legalize.ms"},
    {"place.detailed", "place.detailed.ms"},
    {"route.initial", "route.initial.ms"},
    {"route.ripup", "route.ripup.ms"},
    {"sta.arrival", "timing.sta.arrival.ms"},
    {"power.activity", "power.activity.ms"},
    {"cache.probe", "flow.cache.probe.ms"},
};

namespace {
std::vector<MetricSpec> per_layer_specs() {
  std::vector<MetricSpec> out;
  static std::vector<std::string> names;  // keeps the c_str()s alive
  names.reserve(2 * kSteps.size());
  for (const StepName& s : kSteps) {
    names.push_back(std::string(s.layer) + ".ms");
    names.push_back(std::string(s.layer) + ".cpu_ms");
  }
  for (const std::string& n : names) out.push_back({n.c_str(), "ms"});
  const std::vector<MetricSpec> rest = {
      {"jobs_per_s", "1/s"},
      {"turnaround_ms.p50", "ms"},
      {"turnaround_ms.p90", "ms"},
      {"synth.map.cells", "cells/job"},
      {"route.unroutable", "count"},
      {"failed_share", "share"},
      {"util.pool.helper_cpu_share", "share"},
      {"flow.cache.hit_share", "share"},
      {"flow.cache.restored_step_share", "share"},
      {"flow.cache.lookup_ms", "ms"},
      {"flow.cache.store_ms", "ms"},
      {"flow.cache.bytes", "B"},
      {"flow.cache.evictions", "1/job"},
      {"flow.serialize.encode_ms", "ms"},
      {"flow.serialize.decode_ms", "ms"},
      {"flow.serialize.bytes", "B"},
      {"flow.serialize.decode_vs_copy", "x"},
      {"hub.queue_wait_ms.p50", "ms"},
      {"hub.queue_wait_ms.p90", "ms"},
      {"hub.non_step_ms", "ms"},
      {"hub.worker_util", "share"},
      {"hub.cpu_util", "share"},
      {"fed.submit_ms", "ms"},
      {"fed.steal_share", "share"},
      {"fed.l2.hit_share", "share"},
      {"fed.l2.publishes", "1/job"},
      {"fed.hub_imbalance", "x"},
      {"trace.overhead_share", "share"},
      {"trace.step_coverage", "share"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  for (const StepName& k : kKernelSpans) out.push_back({k.layer, "ms"});
  return out;
}
}  // namespace

const std::vector<MetricSpec> kPerLayer = per_layer_specs();

void Report::set(const std::string& name, double value) {
  values_[name] = value;
}

void Report::fail(const std::string& why) {
  correct_ = false;
  std::cerr << "perfbench: check failed: " << why << "\n";
}

void Report::print_json(std::ostream& out,
                        const std::vector<MetricSpec>& specs) const {
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : specs) {
    const auto it = values_.find(m.name);
    double v = it == values_.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + std::string(m.name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  out << json << std::endl;
}

void WindowClock::start() {
  windows_.clear();
  first_ = 0;
  wall0_ = now_ms();
  cpu0_ = process_cpu_ms();
}

void WindowClock::close(std::size_t end) {
  const double wall = now_ms();
  const double cpu = process_cpu_ms();
  windows_.push_back({first_, end, wall - wall0_, cpu - cpu0_});
  first_ = end;
  wall0_ = wall;
  cpu0_ = cpu;
}

double WindowClock::open_ms() const { return now_ms() - wall0_; }

std::vector<Window> WindowClock::finish(std::size_t end, double min_ms) {
  if (end > first_ || windows_.empty()) close(end);
  if (windows_.size() > 1 && windows_.back().wall_ms < min_ms / 2) {
    const Window tail = windows_.back();
    windows_.pop_back();
    windows_.back().last = tail.last;
    windows_.back().wall_ms += tail.wall_ms;
    windows_.back().cpu_ms += tail.cpu_ms;
  }
  return windows_;
}

void report_end_to_end(Report& report, const JobTable& table,
                       const std::vector<Design>& catalog,
                       const std::vector<JobSample>& samples,
                       const std::vector<Window>& windows, double setup_s,
                       double rss_mb) {
  std::vector<double> rate, p50, p90, cpu_per_job;
  double wall_ms = 0.0;
  for (const Window& w : windows) {
    if (w.last == w.first) continue;
    const double n = static_cast<double>(w.last - w.first);
    std::vector<double> turnaround;
    for (std::size_t i = w.first; i < w.last; ++i) {
      turnaround.push_back(samples[i].turnaround_ms);
    }
    rate.push_back(n / (w.wall_ms / 1e3));
    p50.push_back(quantile(turnaround, 0.5));
    p90.push_back(quantile(turnaround, 0.9));
    cpu_per_job.push_back(w.cpu_ms / n);
    wall_ms += w.wall_ms;
  }
  std::size_t ok = 0;
  std::size_t no_verdict = 0;
  // QoR is a geomean over (design, preset) groups of each group's geomean
  // over its succeeded jobs, so the mix of designs a time-bounded run
  // happens to reach does not move it.
  struct Group {
    double log_fmax = 0.0, log_area = 0.0, log_power = 0.0;
    std::size_t n = 0;
  };
  std::map<std::pair<std::size_t, int>, Group> groups;
  for (const JobSample& s : samples) {
    if (s.no_verdict) ++no_verdict;
    if (!s.ok) continue;
    ++ok;
    const JobInfo& job = table[s.job];
    Group& g = groups[{job.design, static_cast<int>(job.config.quality)}];
    g.log_fmax += std::log(job.ppa.fmax_mhz);
    g.log_area += std::log(job.ppa.area_um2);
    g.log_power += std::log(job.ppa.power_uw);
    ++g.n;
  }
  double fmax = 0.0, area = 0.0, power = 0.0;
  for (const auto& [key, g] : groups) {
    fmax += g.log_fmax / static_cast<double>(g.n);
    area += g.log_area / static_cast<double>(g.n);
    power += g.log_power / static_cast<double>(g.n);
  }
  const double n_groups = static_cast<double>(std::max<std::size_t>(1, groups.size()));
  const double n = static_cast<double>(std::max<std::size_t>(1, samples.size()));

  report.attempted = samples.size();
  report.failed = no_verdict;
  report.set("jobs_per_s", median(rate));
  report.set("turnaround_ms.p50", median(p50));
  report.set("turnaround_ms.p90", median(p90));
  report.set("cpu_ms_per_job", median(cpu_per_job));
  report.set("succeeded_share", static_cast<double>(ok) / n);
  report.set("setup_s", setup_s);
  report.set("peak_rss_mb", rss_mb);
  report.set("qor.fmax_mhz.geomean", std::exp(fmax / n_groups));
  report.set("qor.area_um2.geomean", std::exp(area / n_groups));
  report.set("qor.power_uw.geomean", std::exp(power / n_groups));

  std::printf(
      "summary jobs=%zu distinct=%zu designs=%zu windows=%zu wall_ms=%.1f "
      "succeeded=%zu failed_share=%.6f (%zu/%zu) no_verdict=%zu\n",
      samples.size(), table.size(), catalog.size(), windows.size(), wall_ms, ok,
      static_cast<double>(samples.size() - ok) / n, samples.size() - ok,
      samples.size(), no_verdict);
}

double time_setups(const std::function<void()>& teardown,
                   const std::function<void()>& setup) {
  // A set-up takes milliseconds, and on a shared host one CPU can run much
  // slower than another for seconds at a time, so each timed set-up is
  // pinned to the next CPU in turn. Threads a set-up starts inherit that.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  std::vector<double> cpu_ms, wall_ms;
  for (std::size_t r = 0; r < kSetupRepeats * cpus.size(); ++r) {
    teardown();
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[r % cpus.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
    const double t0 = now_ms();
    const double c0 = process_cpu_ms();
    setup();
    cpu_ms.push_back(process_cpu_ms() - c0);
    wall_ms.push_back(now_ms() - t0);
  }
  // The set-up the workload keeps runs unpinned, so the threads it starts
  // may use every CPU.
  sched_setaffinity(0, sizeof allowed, &allowed);
  teardown();
  setup();
  std::printf("setup cpu_ms=%.3f (q1 %.3f, q3 %.3f) wall_ms=%.3f, medians of %zu on %zu cpus\n",
              median(cpu_ms), quantile(cpu_ms, 0.25), quantile(cpu_ms, 0.75),
              median(wall_ms), cpu_ms.size(), cpus.size());
  return median(cpu_ms) / 1e3;
}

double mean_cells(const JobTable& table, const std::vector<JobSample>& samples) {
  double cells = 0.0, ok = 0.0;
  for (const JobSample& s : samples) {
    if (!s.ok) continue;
    cells += static_cast<double>(table[s.job].ppa.cell_count);
    ok += 1.0;
  }
  return ok > 0.0 ? cells / ok : 0.0;
}

void fold_kernel_spans(std::map<std::string, double>& totals_ms) {
  for (const util::trace::Event& e : util::trace::snapshot()) {
    if (e.kind != util::trace::Event::Kind::kSpan) continue;
    for (const StepName& k : kKernelSpans) {
      if (e.name == k.step) totals_ms[k.layer] += e.dur_us / 1e3;
    }
  }
}

}  // namespace perfbench
