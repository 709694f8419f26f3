// catalog_serial and sized_serial: one student on an idle machine.
//
// Every job of the catalog at both presets runs one at a time through the
// reference flow with no cache, in whole passes (each pass in a fresh
// seeded order) until the run's time is up, so every pass attempts the
// same 32 jobs and failed jobs are counted, never dropped.
//
// The traced run times each flow step from outside: it executes a
// FlowTemplate built by copying every reference_template() step (same
// name, same fingerprint) with its `run` wrapped in wall and thread-CPU
// timers, interleaved job by job with the plain template so the two can be
// compared for identical artifacts and for tracing overhead.
#include <cstdio>
#include <iostream>
#include <string>

#include "common.hpp"
#include "eurochip/util/rng.hpp"
#include "eurochip/util/trace.hpp"

namespace perfbench {

namespace {


/// Per-step totals the wrapped template accumulates.
struct StepTimes {
  std::vector<double> wall_ms = std::vector<double>(kSteps.size(), 0.0);
  std::vector<double> cpu_ms = std::vector<double>(kSteps.size(), 0.0);
  std::string failed_step;  ///< step that failed in the latest run
};

std::size_t step_index(const std::string& name) {
  for (std::size_t i = 0; i < kSteps.size(); ++i) {
    if (name == kSteps[i].step) return i;
  }
  return kSteps.size();
}

flow::FlowTemplate timed_template(const flow::FlowTemplate& plain,
                                  StepTimes* times) {
  flow::FlowTemplate t(plain.name());
  for (const flow::FlowStep& s : plain.steps()) {
    const std::size_t idx = step_index(s.name);
    t.add_step({s.name,
                [run = s.run, name = s.name, idx, times](flow::FlowContext& ctx) {
                  const double w0 = now_ms();
                  const double c0 = thread_cpu_ms();
                  util::Status status = run(ctx);
                  if (idx < kSteps.size()) {
                    times->wall_ms[idx] += now_ms() - w0;
                    times->cpu_ms[idx] += thread_cpu_ms() - c0;
                  }
                  if (!status.ok()) times->failed_step = name;
                  return status;
                },
                s.fingerprint});
  }
  return t;
}

struct Verdict {
  bool ok = false;
  std::string text;
  util::Digest digest;
  flow::PpaReport ppa;
};

Verdict verdict_of(const util::Result<flow::FlowResult>& r) {
  Verdict v;
  v.ok = r.ok();
  if (v.ok) {
    v.digest = artifact_digest(r->artifacts);
    v.ppa = r->ppa;
  } else {
    v.text = r.status().to_string();
  }
  return v;
}

}  // namespace

void run_serial(const Args& args, int scale, Report& report) {
  // Set-up: generate the designs and the job list, and run one small
  // warm-up flow. Repeated and reported as a median.
  const rtl::Module warmup = rtl::designs::alu(12);
  std::vector<Design> catalog;
  JobTable table;
  std::vector<std::size_t> jobs;
  const double setup_s = time_setups([] {}, [&] {
    catalog = make_catalog(scale);
    table = JobTable{};
    jobs.clear();
    for (std::size_t d = 0; d < catalog.size(); ++d) {
      for (flow::FlowQuality q :
           {flow::FlowQuality::kOpen, flow::FlowQuality::kCommercial}) {
        flow::FlowConfig cfg = base_config();
        cfg.quality = q;
        jobs.push_back(table.intern(d, cfg));
      }
    }
    if (!flow::run_reference_flow(warmup, warmup_config()).ok()) {
      report.fail("warm-up flow failed");
    }
  });

  util::Rng rng(args.seed);
  const double budget_ms = args.seconds * 1e3;
  const flow::FlowTemplate plain = flow::reference_template();
  StepTimes times;
  const flow::FlowTemplate timed = timed_template(plain, &times);

  if (args.trace) {
    for (std::size_t j = 0; j < table.size(); ++j) {
      std::vector<util::Digest> k1, k2;
      std::vector<bool> a1, a2;
      const rtl::Module& m = *catalog[table[j].design].module;
      plain.step_keys(m, table[j].config, &k1, &a1);
      timed.step_keys(m, table[j].config, &k2, &a2);
      if (k1 != k2 || a1 != a2) {
        report.fail(catalog[table[j].design].name +
                    ": wrapped template changes step_keys");
      }
    }
  }

  std::vector<JobSample> samples;
  double plain_cpu_ms = 0.0, plain_wall_ms = 0.0;
  double traced_cpu_ms = 0.0, traced_wall_ms = 0.0;
  std::map<std::string, double> kernel_ms;
  std::vector<char> unroutable(table.size(), 0);

  auto record = [&](std::size_t j, const Verdict& v) {
    if (!table.record(j, v.ok, v.text, v.digest, v.ppa)) {
      report.fail(catalog[table[j].design].name +
                  ": result differs from its first run");
    }
  };
  auto run_plain = [&](std::size_t j) {
    const flow::FlowConfig& cfg = table[j].config;
    const double c0 = process_cpu_ms();
    const double t0 = now_ms();
    const auto r = plain.execute(*catalog[table[j].design].module, cfg);
    const double dt = now_ms() - t0;
    plain_wall_ms += dt;
    plain_cpu_ms += process_cpu_ms() - c0;
    const Verdict v = verdict_of(r);
    samples.push_back({j, dt, v.ok, false});
    record(j, v);
  };
  auto run_traced = [&](std::size_t j) {
    const flow::FlowConfig& cfg = table[j].config;
    times.failed_step.clear();
    util::trace::start();
    const double c0 = process_cpu_ms();
    const double t0 = now_ms();
    const auto r = timed.execute(*catalog[table[j].design].module, cfg);
    traced_wall_ms += now_ms() - t0;
    traced_cpu_ms += process_cpu_ms() - c0;
    util::trace::stop();
    fold_kernel_spans(kernel_ms);
    util::trace::clear();
    if (times.failed_step == "route") unroutable[j] = 1;
    record(j, verdict_of(r));
  };

  const double t0 = now_ms();
  WindowClock clock;
  clock.start();
  // One window per pass: every window holds the same 32 jobs.
  std::size_t turn = 0;
  std::vector<std::size_t> order = jobs;
  do {
    rng.shuffle(order);
    for (std::size_t j : order) {
      if (!args.trace) {
        run_plain(j);
      } else if (turn++ % 2 == 0) {
        run_plain(j);
        run_traced(j);
      } else {
        run_traced(j);
        run_plain(j);
      }
    }
    clock.close(samples.size());
  } while (now_ms() - t0 < budget_ms);
  // Serial runs keep no per-job state, so RSS levels off early.
  const double rss_mb = peak_rss_mb();

  if (!args.trace) {
    report_end_to_end(report, table, catalog, samples,
                      clock.finish(samples.size(), 0.0), setup_s, rss_mb);
  } else {
    // Wall-clock metrics from the plain runs alone.
    report_end_to_end(report, table, catalog, samples,
                      {{0, samples.size(), plain_wall_ms, plain_cpu_ms}},
                      setup_s, rss_mb);
    const double n = static_cast<double>(samples.size());
    double step_wall = 0.0, step_cpu = 0.0;
    for (std::size_t i = 0; i < kSteps.size(); ++i) {
      report.set(std::string(kSteps[i].layer) + ".ms", times.wall_ms[i] / n);
      report.set(std::string(kSteps[i].layer) + ".cpu_ms", times.cpu_ms[i] / n);
      step_wall += times.wall_ms[i];
      step_cpu += times.cpu_ms[i];
    }
    report.set("synth.map.cells", mean_cells(table, samples));
    std::size_t n_unroutable = 0, n_failed = 0;
    for (char u : unroutable) n_unroutable += u;
    for (const JobSample& s : samples) n_failed += s.ok ? 0 : 1;
    report.set("route.unroutable", static_cast<double>(n_unroutable));
    report.set("failed_share", static_cast<double>(n_failed) / n);
    report.set("util.pool.helper_cpu_share",
               (traced_cpu_ms - step_cpu) / traced_cpu_ms);
    report.set("trace.overhead_share", traced_cpu_ms / plain_cpu_ms - 1.0);
    report.set("trace.step_coverage", step_wall / traced_wall_ms);
    for (const auto& [name, ms] : kernel_ms) report.set(name, ms / n);
    std::printf("traced plain_wall_ms=%.1f traced_wall_ms=%.1f "
                "step_coverage=%.4f overhead_cpu=%.4f\n",
                plain_wall_ms, traced_wall_ms, step_wall / traced_wall_ms,
                traced_cpu_ms / plain_cpu_ms - 1.0);
    // Both templates ran every job; count each flow run as attempted.
    report.attempted = 2 * samples.size();
  }

  check_mapped_equivalence(report, table, catalog, args.seed);
  print_job_rows(std::cout, table, catalog);
}

}  // namespace perfbench
