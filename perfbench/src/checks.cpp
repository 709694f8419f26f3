// Output checks. They run after the measured region, so they never count
// toward any metric, and any mismatch marks the run incorrect.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <set>
#include <thread>

#include "common.hpp"
#include "eurochip/hub/job.hpp"
#include "eurochip/netlist/simulator.hpp"
#include "eurochip/rtl/simulator.hpp"
#include "eurochip/util/rng.hpp"

namespace perfbench {

namespace hub = eurochip::hub;

namespace {

constexpr int kEquivalenceCycles = 64;

/// Splits an elaborated port name "sig[3]" into ("sig", 3).
bool split_bit_name(const std::string& port, std::string* signal, int* bit) {
  const std::size_t open = port.rfind('[');
  if (open == std::string::npos || port.back() != ']') return false;
  *signal = port.substr(0, open);
  *bit = std::atoi(port.c_str() + open + 1);
  return true;
}

/// For each netlist port, the (RTL port index, bit) it carries.
bool bind_ports(const rtl::Module& m, const std::vector<rtl::SignalId>& ids,
                const std::vector<eurochip::netlist::Port>& ports,
                std::vector<std::pair<std::size_t, int>>* out) {
  for (const eurochip::netlist::Port& p : ports) {
    std::string name;
    int bit = 0;
    if (!split_bit_name(p.name, &name, &bit)) return false;
    std::size_t idx = ids.size();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (m.signal(ids[i]).name == name) idx = i;
    }
    if (idx == ids.size() || bit < 0 || bit >= m.signal(ids[idx]).width) {
      return false;
    }
    out->push_back({idx, bit});
  }
  return true;
}

/// Lockstep simulation of the mapped netlist against the RTL simulator on
/// seeded random input words; returns an empty string when they agree.
std::string compare_with_rtl(const rtl::Module& m,
                             const eurochip::netlist::Netlist& mapped,
                             std::uint64_t seed) {
  auto rtl_sim = rtl::Simulator::create(m);
  auto nl_sim = eurochip::netlist::Simulator::create(mapped);
  if (!rtl_sim.ok()) return "rtl simulator: " + rtl_sim.status().to_string();
  if (!nl_sim.ok()) return "netlist simulator: " + nl_sim.status().to_string();
  const auto in_ids = m.inputs();
  const auto out_ids = m.outputs();
  std::vector<std::pair<std::size_t, int>> in_bits, out_bits;
  if (!bind_ports(m, in_ids, mapped.inputs(), &in_bits) ||
      !bind_ports(m, out_ids, mapped.outputs(), &out_bits)) {
    return "netlist ports do not match the RTL ports";
  }
  rtl_sim->reset();
  nl_sim->reset();
  util::Rng rng(seed);
  std::vector<std::uint64_t> words(in_ids.size());
  std::vector<bool> bits(in_bits.size());
  for (int c = 0; c < kEquivalenceCycles; ++c) {
    for (std::size_t i = 0; i < words.size(); ++i) {
      const int w = m.signal(in_ids[i]).width;
      words[i] = rng.next() & (w >= 64 ? ~0uLL : (1uLL << w) - 1);
    }
    for (std::size_t i = 0; i < bits.size(); ++i) {
      bits[i] = ((words[in_bits[i].first] >> in_bits[i].second) & 1) != 0;
    }
    const auto ref = rtl_sim->step(words);
    const auto got = nl_sim->step(bits);
    for (std::size_t o = 0; o < got.size(); ++o) {
      const bool want = ((ref[out_bits[o].first] >> out_bits[o].second) & 1) != 0;
      if (got[o] != want) {
        return "output " + mapped.outputs()[o].name + " differs at cycle " +
               std::to_string(c);
      }
    }
  }
  return "";
}

}  // namespace

void check_mapped_equivalence(Report& report, const JobTable& table,
                              const std::vector<Design>& catalog,
                              std::uint64_t seed) {
  flow::FlowTemplate front = flow::reference_template();
  for (const char* step : {"place", "cts", "route", "sta", "power", "drc", "gds"}) {
    front.remove_step(step);
  }
  std::set<std::pair<std::size_t, int>> done;
  for (std::size_t j = 0; j < table.size(); ++j) {
    const JobInfo& job = table[j];
    if (!done.insert({job.design, static_cast<int>(job.config.quality)}).second) {
      continue;
    }
    flow::FlowConfig cfg = job.config;
    cfg.insert_scan = false;
    const Design& d = catalog[job.design];
    const std::string what = d.name + "/" + flow::to_string(cfg.quality);
    auto mapped = front.execute(*d.module, cfg);
    if (!mapped.ok()) {
      report.fail(what + ": mapping failed: " + mapped.status().to_string());
      continue;
    }
    const std::string diff = compare_with_rtl(
        *d.module, *mapped->artifacts.mapped, seed * 0x9E3779B97F4A7C15uLL + j);
    if (!diff.empty()) report.fail(what + ": mapped netlist != RTL: " + diff);
  }
}

void check_against_bare_flows(Report& report, const JobTable& table,
                              const std::vector<Design>& catalog) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<std::string> errors;
  auto worker = [&] {
    for (std::size_t j = next++; j < table.size(); j = next++) {
      const JobInfo& job = table[j];
      flow::FlowConfig cfg = job.config;
      cfg.threads = 1;  // artifacts are identical at any thread count
      // The hub's own flow job, run on a bare context (no cache, no
      // server), so the digest is the hub's definition of it.
      hub::JobContext ctx;
      const util::Status status =
          hub::make_flow_job("bare", catalog[job.design].module, cfg).work(ctx);
      const bool ok = status.ok();
      const std::string verdict = ok ? "" : status.to_string();
      const util::Digest digest = ok ? ctx.artifact_digest : util::Digest{};
      if (ok != job.ok || verdict != job.verdict || digest != job.digest) {
        std::lock_guard<std::mutex> lock(mu);
        errors.push_back(catalog[job.design].name + " job " + std::to_string(j) +
                         ": service gave " +
                         (job.ok ? to_hex(job.digest) : job.verdict) +
                         ", bare flow gave " + (ok ? to_hex(digest) : verdict));
      }
    }
  };
  const unsigned n = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < n; ++i) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) report.fail(e);
}

void print_job_rows(std::ostream& out, const JobTable& table,
                    const std::vector<Design>& catalog) {
  char line[512];
  for (std::size_t j = 0; j < table.size(); ++j) {
    const JobInfo& job = table[j];
    std::snprintf(line, sizeof line,
                  "row %-12s %-10s util=%.2f seed=%llu runs=%zu %s cells=%zu "
                  "area_um2=%.3f fmax_mhz=%.3f power_uw=%.4f %s\n",
                  catalog[job.design].name.c_str(),
                  flow::to_string(job.config.quality), job.config.utilization,
                  static_cast<unsigned long long>(job.config.seed), job.runs,
                  job.ok ? "ok" : "FAILED", job.ppa.cell_count,
                  job.ppa.area_um2, job.ppa.fmax_mhz, job.ppa.power_uw,
                  job.ok ? to_hex(job.digest).c_str() : job.verdict.c_str());
    out << line;
  }
}

}  // namespace perfbench
