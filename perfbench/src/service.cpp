// hub_resubmit and fed_skewed: flow jobs through the hub and the federation.
//
// Both are closed loops driven from one thread: a fixed set of simulated
// students each keeps exactly one job in flight and submits the next one
// when the previous verdict arrives. There are more students than workers,
// so jobs queue. Each student draws its jobs from its own seeded stream,
// so the jobs a student submits depend only on --seed, never on timing.
//
// Completion is learned from the service: one waiter thread per student
// blocks in the service's wait() on that student's job in flight and hands
// the record to the client thread, so turnaround runs from submit() to the
// verdict in hand, and a job that ends without its work running (cancelled,
// timed out, orphaned) is collected like any other. Each JobSpec's work
// function is wrapped only to read the worker thread's CPU time.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "eurochip/fed/federation.hpp"
#include "eurochip/flow/serialize.hpp"
#include "eurochip/hub/server.hpp"
#include "eurochip/util/rng.hpp"
#include "eurochip/util/trace.hpp"

namespace perfbench {

namespace hub = eurochip::hub;
namespace fed = eurochip::fed;

namespace {

/// Simulated students per worker: enough to keep every worker busy and a
/// queue in front of them. An assumption, not a measured class size.
constexpr int kStudentsPerWorker = 3;
/// Cache budgets. The runs outgrow them, so residency (and peak RSS)
/// levels off instead of growing with the number of jobs a run completes.
constexpr std::size_t kHubCacheBytes = 64u << 20;
constexpr std::size_t kFedL1Bytes = 32u << 20;
constexpr std::size_t kFedL2Bytes = 64u << 20;
/// Measurement window: long enough for hundreds of jobs per window.
constexpr double kWindowMs = 1000.0;
/// Jobs after which peak RSS is read. By then every cache budget is full,
/// but the services keep every job record, so RSS read at the end of a run
/// would grow with the jobs the run finishes; read at a fixed job count it
/// measures memory rather than throughput.
constexpr std::size_t kRssJobs = 1000;
/// Distinct jobs whose cached snapshots the traced run probes.
constexpr std::size_t kProbeJobs = 16;

int worker_count() {
  return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 2u, 64u));
}

/// What the client thread knows about one student.
struct Student {
  util::Rng rng;
  std::size_t design = 0;
  flow::FlowConfig config;
  std::size_t submitted = 0;    ///< jobs submitted so far
  std::uint64_t id = 0;         ///< job in flight
  double submit_ms = 0.0;
  std::size_t job = 0;          ///< JobTable index of the job in flight
};

/// One attempted job with what its record says about the service.
struct ServiceSample {
  JobSample sample;
  double queue_wait_ms = 0.0;
  double run_ms = 0.0;
  std::size_t cache_hits = 0;
  std::vector<double> step_ms = std::vector<double>(kSteps.size(), 0.0);
};

/// The service under test, seen through its public submit/wait calls.
struct Service {
  std::function<util::Result<std::uint64_t>(hub::JobSpec)> submit;
  std::function<util::Result<hub::JobRecord>(std::uint64_t)> wait;
  int capacity = 0;
};

/// Students whose job has ended, in completion order, one waiter thread
/// per student. A waiter only reports the end; the client thread fetches
/// the record itself, so records are allocated and freed on one thread and
/// the waiters leave the process's heap as the service left it.
class Completions {
 public:
  struct Done {
    std::size_t student;
    double at_ms;  ///< when wait() returned
  };

  Completions(const Service& service, std::size_t students)
      : slots_(students) {
    for (std::size_t s = 0; s < students; ++s) {
      waiters_.emplace_back([this, &service, s] { wait_loop(service, s); });
    }
  }
  ~Completions() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      quit_ = true;
    }
    for (Slot& slot : slots_) slot.cv.notify_one();
    for (std::thread& t : waiters_) t.join();
  }

  /// Hands job `id` to the student's waiter.
  void watch(std::size_t student, std::uint64_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_[student].id = id;
    slots_[student].pending = true;
    slots_[student].cv.notify_one();
  }
  Done pop() {
    std::unique_lock<std::mutex> lock(mu_);
    ready_cv_.wait(lock, [this] { return !ready_.empty(); });
    const Done d = ready_.front();
    ready_.pop_front();
    return d;
  }
  /// CPU time the waiter threads have used so far.
  [[nodiscard]] double cpu_ms() const {
    return static_cast<double>(cpu_us_.load()) / 1e3;
  }

 private:
  struct Slot {
    std::condition_variable cv;
    std::uint64_t id = 0;
    bool pending = false;
  };

  void wait_loop(const Service& service, std::size_t s) {
    Slot& slot = slots_[s];
    double c0 = thread_cpu_ms();
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      slot.cv.wait(lock, [&] { return slot.pending || quit_; });
      if (!slot.pending) break;
      slot.pending = false;
      const std::uint64_t id = slot.id;
      lock.unlock();
      (void)service.wait(id);
      const double at = now_ms();
      const double c1 = thread_cpu_ms();
      cpu_us_ += static_cast<std::uint64_t>((c1 - c0) * 1e3);
      c0 = c1;
      lock.lock();
      ready_.push_back({s, at});
      ready_cv_.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable ready_cv_;
  std::deque<Done> ready_;
  std::vector<Slot> slots_;
  bool quit_ = false;
  std::atomic<std::uint64_t> cpu_us_{0};
  std::vector<std::thread> waiters_;
};

/// Picks a student's next job from the student's own stream.
using NextJob = std::function<void(Student&)>;

struct LoopResult {
  std::vector<ServiceSample> samples;
  std::vector<Window> windows;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  double worker_flow_cpu_ms = 0.0;  ///< worker-thread CPU inside the flows
  double client_cpu_ms = 0.0;       ///< client and waiter threads
  double submit_ms = 0.0;           ///< total time inside submit()
  double rss_mb = 0.0;              ///< peak RSS once kRssJobs completed
};

LoopResult closed_loop(const Service& service, std::size_t students,
                       std::uint64_t seed, double budget_ms,
                       const std::vector<Design>& catalog, JobTable& table,
                       const NextJob& next_job, Report& report) {
  LoopResult out;
  std::atomic<std::uint64_t> flow_cpu_us{0};
  std::vector<Student> st;
  for (std::size_t i = 0; i < students; ++i) {
    st.push_back({util::Rng(seed * 1000003u + i), 0, base_config(), 0, 0, 0.0, 0});
  }
  Completions done(service, students);

  auto submit = [&](std::size_t s) {
    Student& stu = st[s];
    next_job(stu);
    ++stu.submitted;
    stu.job = table.intern(stu.design, stu.config);
    hub::JobSpec spec = hub::make_flow_job(
        catalog[stu.design].name + "#" + std::to_string(s),
        catalog[stu.design].module, stu.config);
    spec.member = s % 4;
    spec.tier = static_cast<eurochip::edu::LearnerTier>(s % 3);
    spec.work = [inner = std::move(spec.work),
                 &flow_cpu_us](hub::JobContext& ctx) {
      const double c0 = thread_cpu_ms();
      const util::Status status = inner(ctx);
      flow_cpu_us += static_cast<std::uint64_t>((thread_cpu_ms() - c0) * 1e3);
      return status;
    };
    stu.submit_ms = now_ms();
    auto id = service.submit(std::move(spec));
    out.submit_ms += now_ms() - stu.submit_ms;
    if (!id.ok()) {
      report.fail("submit rejected: " + id.status().to_string());
      ServiceSample rejected;
      rejected.sample = {stu.job, now_ms() - stu.submit_ms, false, true};
      out.samples.push_back(rejected);
      return false;
    }
    stu.id = *id;
    done.watch(s, stu.id);
    return true;
  };

  const double client_c0 = thread_cpu_ms();
  const double c0 = process_cpu_ms();
  const double t0 = now_ms();
  WindowClock clock;
  clock.start();
  std::size_t in_flight = 0;
  for (std::size_t s = 0; s < students; ++s) in_flight += submit(s) ? 1 : 0;
  while (in_flight > 0) {
    const Completions::Done d = done.pop();
    --in_flight;
    Student& stu = st[d.student];
    const auto rec = service.wait(stu.id);  // ended: returns at once
    ServiceSample smp;
    smp.sample.job = stu.job;
    smp.sample.turnaround_ms = d.at_ms - stu.submit_ms;
    if (!rec.ok() || (rec->state != hub::JobState::kSucceeded &&
                      rec->state != hub::JobState::kFailed)) {
      smp.sample.no_verdict = true;
      report.fail(catalog[stu.design].name + ": no verdict: " +
                  (rec.ok() ? std::string(hub::to_string(rec->state))
                            : rec.status().to_string()));
    } else {
      const bool ok = rec->state == hub::JobState::kSucceeded;
      smp.sample.ok = ok;
      smp.queue_wait_ms = rec->queue_wait_ms;
      smp.run_ms = rec->run_ms;
      smp.cache_hits = rec->cache_hits;
      for (const flow::StepRecord& step : rec->steps) {
        if (step.cached) continue;
        for (std::size_t i = 0; i < kSteps.size(); ++i) {
          if (step.name == kSteps[i].step) smp.step_ms[i] += step.runtime_ms;
        }
      }
      if (!table.record(stu.job, ok, ok ? "" : rec->status.to_string(),
                        rec->artifact_digest, rec->ppa)) {
        report.fail(catalog[stu.design].name +
                    ": job result differs from an earlier run of it");
      }
    }
    out.samples.push_back(smp);
    if (out.samples.size() == kRssJobs) out.rss_mb = peak_rss_mb();
    if (clock.open_ms() >= kWindowMs) clock.close(out.samples.size());
    if (now_ms() - t0 < budget_ms && submit(d.student)) ++in_flight;
  }
  out.windows = clock.finish(out.samples.size(), kWindowMs);
  if (out.samples.size() < kRssJobs) out.rss_mb = peak_rss_mb();
  out.wall_ms = now_ms() - t0;
  out.cpu_ms = process_cpu_ms() - c0;
  out.client_cpu_ms = thread_cpu_ms() - client_c0 + done.cpu_ms();
  out.worker_flow_cpu_ms = static_cast<double>(flow_cpu_us.load()) / 1e3;
  return out;
}

std::vector<JobSample> job_samples(const LoopResult& r) {
  std::vector<JobSample> out;
  for (const ServiceSample& s : r.samples) out.push_back(s.sample);
  return out;
}

/// Times FlowCache lookup (a deep copy out of the cache), store (a deep
/// copy into a fresh cache) and the serialize v3 round trip on the cached
/// snapshots of the workload's own most recent distinct jobs.
void probe_cache(Report& report, const JobTable& table,
                 const std::vector<Design>& catalog,
                 const std::vector<flow::FlowCache*>& caches) {
  const flow::FlowTemplate tmpl = flow::reference_template();
  flow::FlowCache fresh(flow::FlowCache::Options{1u << 30, nullptr});
  double lookup = 0.0, store = 0.0, encode = 0.0, decode = 0.0, bytes = 0.0;
  std::size_t n = 0;
  const std::size_t first = table.size() > kProbeJobs ? table.size() - kProbeJobs : 0;
  for (std::size_t j = first; j < table.size(); ++j) {
    const rtl::Module& m = *catalog[table[j].design].module;
    std::vector<util::Digest> keys;
    std::vector<bool> keyable;
    tmpl.step_keys(m, table[j].config, &keys, &keyable);
    for (const util::Digest& key : keys) {
      flow::FlowCache* cache = nullptr;
      for (flow::FlowCache* c : caches) {
        if (c->contains(key)) cache = c;
      }
      if (cache == nullptr) continue;
      flow::FlowContext ctx;
      ctx.artifacts.design = &m;
      double t = now_ms();
      if (!cache->lookup(key, ctx)) continue;
      lookup += now_ms() - t;
      t = now_ms();
      fresh.store(key, ctx);
      store += now_ms() - t;
      t = now_ms();
      const std::vector<std::uint8_t> wire = flow::serialize_snapshot(ctx);
      encode += now_ms() - t;
      flow::FlowContext back;
      back.artifacts.design = &m;
      t = now_ms();
      const util::Status st = flow::deserialize_snapshot(wire, back);
      decode += now_ms() - t;
      if (!st.ok() || flow::serialize_snapshot(back) != wire) {
        report.fail("serialize round trip changed a snapshot: " + st.to_string());
      }
      bytes += static_cast<double>(wire.size());
      ++n;
    }
  }
  if (n == 0) {
    report.fail("cache probe found no resident snapshots");
    return;
  }
  const double dn = static_cast<double>(n);
  report.set("flow.cache.lookup_ms", lookup / dn);
  report.set("flow.cache.store_ms", store / dn);
  report.set("flow.serialize.encode_ms", encode / dn);
  report.set("flow.serialize.decode_ms", decode / dn);
  report.set("flow.serialize.bytes", bytes / dn);
  report.set("flow.serialize.decode_vs_copy", decode / lookup);
  std::printf("probe snapshots=%zu lookup_ms=%.4f decode_ms=%.4f\n", n,
              lookup / dn, decode / dn);
}

/// Per-layer metrics every service workload reports from its records.
void report_service_layers(Report& report, const LoopResult& r,
                           const JobTable& table, int capacity,
                           const std::map<std::string, double>& kernel_ms) {
  const double n = static_cast<double>(std::max<std::size_t>(1, r.samples.size()));
  std::vector<double> step_ms(kSteps.size(), 0.0), waits;
  double run_ms = 0.0, non_step = 0.0, hits = 0.0, restored = 0.0;
  double failed = 0.0, step_total = 0.0;
  for (const ServiceSample& s : r.samples) {
    double steps = 0.0;
    for (std::size_t i = 0; i < kSteps.size(); ++i) {
      step_ms[i] += s.step_ms[i];
      steps += s.step_ms[i];
    }
    step_total += steps;
    waits.push_back(s.queue_wait_ms);
    run_ms += s.run_ms;
    non_step += s.run_ms - steps;
    hits += s.cache_hits > 0 ? 1.0 : 0.0;
    restored += static_cast<double>(s.cache_hits);
    failed += s.sample.ok ? 0.0 : 1.0;
  }
  for (std::size_t i = 0; i < kSteps.size(); ++i) {
    report.set(std::string(kSteps[i].layer) + ".ms", step_ms[i] / n);
  }
  std::size_t unroutable = 0;
  for (std::size_t j = 0; j < table.size(); ++j) {
    if (!table[j].ok && table[j].verdict.find("'route'") != std::string::npos) {
      ++unroutable;
    }
  }
  report.set("synth.map.cells", mean_cells(table, job_samples(r)));
  report.set("route.unroutable", static_cast<double>(unroutable));
  report.set("failed_share", failed / n);
  report.set("util.pool.helper_cpu_share",
             (r.cpu_ms - r.worker_flow_cpu_ms - r.client_cpu_ms) / r.cpu_ms);
  report.set("flow.cache.hit_share", hits / n);
  report.set("flow.cache.restored_step_share",
             restored / (n * static_cast<double>(kSteps.size())));
  report.set("hub.queue_wait_ms.p50", quantile(waits, 0.5));
  report.set("hub.queue_wait_ms.p90", quantile(waits, 0.9));
  report.set("hub.non_step_ms", non_step / n);
  report.set("hub.worker_util", run_ms / (capacity * r.wall_ms));
  report.set("hub.cpu_util", r.cpu_ms / (capacity * r.wall_ms));
  report.set("trace.step_coverage", step_total / run_ms);
  for (const auto& [name, ms] : kernel_ms) report.set(name, ms / n);
}

// --- the two service workloads ----------------------------------------------

/// A model of the classroom iterate loop: a student usually edits their
/// last job — resubmits it unchanged, moves the utilization, or flips the
/// preset — and otherwise starts a fresh catalog design with a new seed.
/// The shares are assumptions; no measured submission trace backs them.
NextJob resubmit_students(std::size_t n_designs) {
  return [n_designs](Student& s) {
    static constexpr double kUtil[] = {0.5, 0.55, 0.6, 0.65, 0.7};
    const double r = s.rng.uniform();
    if (s.submitted == 0 || r >= 0.75) {
      s.design = s.rng.index(n_designs);
      s.config = base_config();
      s.config.quality = s.rng.chance(0.5) ? flow::FlowQuality::kOpen
                                           : flow::FlowQuality::kCommercial;
      s.config.seed = 1 + s.rng.next() % 1000000;
    } else if (r < 0.40) {
      // identical resubmit
    } else if (r < 0.60) {
      s.config.utilization = kUtil[s.rng.index(5)];
    } else {
      s.config.quality = s.config.quality == flow::FlowQuality::kOpen
                             ? flow::FlowQuality::kCommercial
                             : flow::FlowQuality::kOpen;
    }
  };
}

/// Design popularity falls off as 1/rank over the catalog order (an
/// assumed skew), so the consistent-hash ring loads the hubs unevenly; every job has its own
/// seed, so the back-end steps always run and every store reaches L2.
NextJob skewed_clients(std::size_t n_designs) {
  std::vector<double> cdf;
  double total = 0.0;
  for (std::size_t i = 0; i < n_designs; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf.push_back(total);
  }
  return [cdf, total](Student& s) {
    const double u = s.rng.uniform() * total;
    s.design = std::min<std::size_t>(
        static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                 cdf.begin()),
        cdf.size() - 1);
    s.config = base_config();
    s.config.quality = s.rng.chance(0.5) ? flow::FlowQuality::kOpen
                                         : flow::FlowQuality::kCommercial;
    s.config.seed = 1 + s.rng.next() % 1000000000;
  };
}

/// The service under test and the workload state it serves. Exactly one of
/// `server` (hub_resubmit) and `federation` (fed_skewed) is set.
struct Workload {
  std::vector<Design> catalog;
  JobTable table;
  std::unique_ptr<flow::FlowCache> cache;
  std::unique_ptr<hub::JobServer> server;
  std::unique_ptr<fed::FederatedService> federation;
  Service service;

  [[nodiscard]] std::vector<flow::FlowCache*> caches() const {
    if (server) return {cache.get()};
    std::vector<flow::FlowCache*> out;
    for (std::size_t i = 0; i < federation->num_hubs(); ++i) {
      out.push_back(&federation->l1_cache(i));
    }
    return out;
  }
  void shutdown() {
    if (server) server->shutdown();
    if (federation) federation->shutdown();
  }
  void reset() {
    server.reset();
    federation.reset();
    cache.reset();
  }
};

void build_hub(Workload& w) {
  w.cache = std::make_unique<flow::FlowCache>(
      flow::FlowCache::Options{kHubCacheBytes, nullptr});
  hub::JobServer::Options o;
  o.capacity = worker_count();
  o.cache = w.cache.get();
  w.server = std::make_unique<hub::JobServer>(o);
  hub::JobServer* server = w.server.get();
  w.service.capacity = server->capacity();
  w.service.submit = [server](hub::JobSpec spec) -> util::Result<std::uint64_t> {
    auto id = server->submit(std::move(spec));
    if (!id.ok()) return id.status();
    return *id;
  };
  w.service.wait = [server](std::uint64_t id) { return server->wait(id); };
}

void build_fed(Workload& w) {
  fed::FederatedService::Options o;
  o.hubs = 2;
  o.hub_options.capacity = std::max(1, worker_count() / 2);
  o.l1_bytes = kFedL1Bytes;
  o.remote.max_bytes = kFedL2Bytes;
  o.remote.sleep_on_transfer = false;
  o.steal = true;
  w.federation = std::make_unique<fed::FederatedService>(o);
  w.federation->start();
  fed::FederatedService* f = w.federation.get();
  w.service.capacity = 0;
  for (std::size_t i = 0; i < f->num_hubs(); ++i) {
    w.service.capacity += f->hub(i).capacity();
  }
  w.service.submit = [f](hub::JobSpec spec) { return f->submit(std::move(spec)); };
  w.service.wait = [f](std::uint64_t id) { return f->wait(id); };
}

/// Set-up: builds the catalog and the service and runs one small warm-up
/// job through it. Repeated (tearing the previous service down untimed);
/// the last one is kept. Returns setup_s.
double timed_setup(Workload& w, void (*build)(Workload&), Report& report) {
  static const auto warmup =
      std::make_shared<const rtl::Module>(rtl::designs::alu(12));
  return time_setups([&] { w.reset(); }, [&] {
    w.catalog = make_catalog(1);
    w.table = JobTable{};
    build(w);
    const auto id = w.service.submit(
        hub::make_flow_job("warm-up", warmup, warmup_config()));
    const auto rec = id.ok() ? w.service.wait(*id)
                             : util::Result<hub::JobRecord>(id.status());
    if (!rec.ok() || rec->state != hub::JobState::kSucceeded) {
      report.fail("warm-up job failed");
    }
  });
}

void report_fed_layers(Report& report, fed::FederatedService& f,
                       const LoopResult& r) {
  const fed::FederatedService::Stats st = f.stats();
  const fed::RemoteCache::Stats l2 = f.remote_cache()->stats();
  const double n = static_cast<double>(std::max<std::size_t>(1, r.samples.size()));
  double most = 0.0, total = 0.0;
  for (std::size_t i = 0; i < f.num_hubs(); ++i) {
    const hub::MetricsRegistry& m = f.hub(i).metrics();
    const double ran = static_cast<double>(m.counter("jobs_succeeded") +
                                           m.counter("jobs_failed"));
    most = std::max(most, ran);
    total += ran;
  }
  report.set("fed.submit_ms", r.submit_ms / n);
  report.set("fed.steal_share",
             static_cast<double>(st.stolen) /
                 static_cast<double>(std::max<std::uint64_t>(1, st.submitted)));
  report.set("fed.l2.hit_share",
             static_cast<double>(l2.fetch_hits) /
                 static_cast<double>(
                     std::max<std::uint64_t>(1, l2.fetch_hits + l2.fetch_misses)));
  report.set("fed.l2.publishes", static_cast<double>(l2.publishes) / n);
  report.set("fed.hub_imbalance",
             total > 0.0 ? most / (total / static_cast<double>(f.num_hubs())) : 0.0);
}

std::size_t no_verdicts(const LoopResult& r) {
  std::size_t n = 0;
  for (const ServiceSample& s : r.samples) n += s.sample.no_verdict ? 1 : 0;
  return n;
}

void run_service(const Args& args, Report& report, void (*build)(Workload&),
                 NextJob (*students_for)(std::size_t)) {
  Workload w;
  const double setup_s = timed_setup(w, build, report);
  const NextJob next_job = students_for(w.catalog.size());
  const auto students =
      static_cast<std::size_t>(kStudentsPerWorker * w.service.capacity);
  auto loop = [&](double budget_ms) {
    return closed_loop(w.service, students, args.seed, budget_ms, w.catalog,
                       w.table, next_job, report);
  };
  if (!args.trace) {
    const LoopResult r = loop(args.seconds * 1e3);
    w.shutdown();
    report_end_to_end(report, w.table, w.catalog, job_samples(r), r.windows,
                      setup_s, r.rss_mb);
    check_against_bare_flows(report, w.table, w.catalog);
    print_job_rows(std::cout, w.table, w.catalog);
    return;
  }
  // Half the time untraced, half traced on a fresh service. The untraced
  // half gives the wall-clock metrics; its CPU per job against the traced
  // half's is the tracing overhead; per-layer numbers come from the
  // traced half.
  const LoopResult plain = loop(args.seconds * 5e2);
  w.shutdown();
  report_end_to_end(report, w.table, w.catalog, job_samples(plain),
                    plain.windows, setup_s, plain.rss_mb);
  check_against_bare_flows(report, w.table, w.catalog);
  w.reset();
  w.table = JobTable{};
  build(w);
  std::map<std::string, double> kernel_ms;
  util::trace::start();
  const LoopResult r = loop(args.seconds * 5e2);
  util::trace::stop();
  fold_kernel_spans(kernel_ms);
  util::trace::clear();

  report_service_layers(report, r, w.table, w.service.capacity, kernel_ms);
  std::size_t bytes = 0;
  std::uint64_t evictions = 0;
  for (flow::FlowCache* c : w.caches()) {
    const flow::FlowCache::Stats cs = c->stats();
    bytes += cs.bytes;
    evictions += cs.evictions;
  }
  report.set("flow.cache.bytes", static_cast<double>(bytes));
  report.set("flow.cache.evictions",
             static_cast<double>(evictions) / static_cast<double>(r.samples.size()));
  if (w.federation) report_fed_layers(report, *w.federation, r);
  probe_cache(report, w.table, w.catalog, w.caches());
  w.shutdown();
  const auto per_job = [](const LoopResult& x) {
    return x.cpu_ms / static_cast<double>(std::max<std::size_t>(1, x.samples.size()));
  };
  report.set("trace.overhead_share", per_job(r) / per_job(plain) - 1.0);
  report.attempted = plain.samples.size() + r.samples.size();
  report.failed = no_verdicts(plain) + no_verdicts(r);
  check_against_bare_flows(report, w.table, w.catalog);
  print_job_rows(std::cout, w.table, w.catalog);
}

}  // namespace

void run_hub_resubmit(const Args& args, Report& report) {
  run_service(args, report, build_hub, resubmit_students);
}

void run_fed_skewed(const Args& args, Report& report) {
  run_service(args, report, build_fed, skewed_clients);
}

}  // namespace perfbench
