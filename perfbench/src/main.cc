// dcat_perfbench: the repository's benchmark.
//
//   dcat_perfbench --workload=mix-line|ctl-resctrl|fleet-hybrid --seed=N
//                  --seconds=S --trace=0|1 --workdir=DIR [--git-sha=SHA]
//                  [--smoke]
//
// Closed loop: one driver, each control interval starts when the previous
// one has finished. Only fleet-hybrid runs shards in parallel, on a pool of
// exactly nproc jobs. Every number is host time (or an exact simulated
// count); the simulated socket is not validated against hardware and no
// accuracy figure is claimed.
//
// --trace=0 measures the end-to-end metrics; --trace=1 re-runs the same
// units with the timing decorators of layers.h installed and reports the
// per-layer metrics. Either way the last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A failed correctness gate prints it with "correct": false and exits 1.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/layers.h"
#include "perfbench/src/primitives.h"
#include "perfbench/src/shards.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/fleet/fleet.h"
#include "src/policies/registry.h"
#include "src/telemetry/trace.h"
#include "src/verify/scenario.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string workdir;
  std::string git_sha = "unknown";
};

// --- results ---

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// The host's speed drifts by a fifth or more over minutes (other tenants'
// memory traffic and CPU load), so raw times of two runs differ by more
// than any useful regression bound. Before each measured piece of work the
// harness therefore times two fixed references, neither of which calls the
// program: random 8-byte reads over 32 MiB (memory latency, which the line
// simulator is bound by) and number formatting plus hashing (the
// compute-bound kind of work of trace writing and the controller). Each
// pass's times are scaled by the geometric mean of the two references'
// speed against a host where they take kReferenceReadNs and
// kReferenceFormatNs. Across runs, the two together tracked the drift
// better than either alone on every workload. Every pass prints its raw
// figures too.
constexpr double kReferenceReadNs = 16.0;
constexpr double kReferenceFormatNs = 300.0;

double ReferenceReadNs() {
  static const std::vector<uint64_t> buffer((32u << 20) / sizeof(uint64_t), 1);
  constexpr int kReads = 200000;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  uint64_t sum = 0;
  const auto start = Clock::now();
  for (int i = 0; i < kReads; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += buffer[(x >> 16) % buffer.size()];
  }
  const double ns = SecondsSince(start) * 1e9 / kReads;
  static volatile uint64_t sink = 0;
  sink = sink + sum;
  return ns;
}

double ReferenceFormatNs() {
  constexpr int kItems = 20000;
  std::string text;
  char buf[32];
  const auto start = Clock::now();
  for (int i = 0; i < kItems; ++i) {
    const int n = std::snprintf(buf, sizeof(buf), "%.6g,", i * 1.37);
    text.append(buf, static_cast<size_t>(n));
  }
  uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash = (hash ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  }
  const double ns = SecondsSince(start) * 1e9 / kItems;
  static volatile uint64_t sink = 0;
  sink = sink + hash;
  return ns;
}

// Both references, taken right before one measured piece of work.
struct HostSpeed {
  double read_ns = kReferenceReadNs;
  double format_ns = kReferenceFormatNs;

  static HostSpeed Measure() { return {ReferenceReadNs(), ReferenceFormatNs()}; }
  // Multiplier from host time to the reference host's.
  double Scale() const {
    return std::sqrt(kReferenceReadNs / read_ns * kReferenceFormatNs / format_ns);
  }
};

// Peak resident set of the process so far (ru_maxrss is KiB on Linux).
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// The measured work of one pass (a sweep over the workload's units, or one
// fleet round): raw seconds, intervals, L1 references, every tick's raw
// latency, and the references taken before its pieces.
struct Pass {
  double seconds = 0.0;
  uint64_t ticks = 0, accesses = 0;
  std::vector<double> tick_s;
  double read_ns_sum = 0.0, format_ns_sum = 0.0;
  uint64_t references = 0;

  // The pass's mean host speed.
  HostSpeed Speed() const {
    if (references == 0) {
      return HostSpeed{};
    }
    const double n = static_cast<double>(references);
    return {read_ns_sum / n, format_ns_sum / n};
  }
  double Scale() const { return Speed().Scale(); }
};

// Accumulates the gate over every unit a run executed, and its measured
// work pass by pass.
struct Run {
  std::vector<double> setup_s;      // one per unit or shard, scaled
  std::vector<double> raw_setup_s;  // the same, as measured
  uint64_t ticks = 0, failed = 0, units = 0;
  std::vector<Pass> passes;
  Pass current;
  double measured_s = 0.0;  // over every pass
  // Peak resident set at the end of the first pass, which ran every unit
  // shape once; later passes repeat them on top of the allocator's history.
  double first_pass_peak_rss_mb = 0.0;
  std::string gate_error;
  // Digest of the traces of the first pass, plus its exact counts.
  uint64_t digest = 1469598103934665603ULL;
  uint64_t digest_units = 0;
  ShardResult pass0;  // counts only
  // Distinct threads that ran units or shards: the jobs actually used.
  std::mutex threads_mu;
  std::set<std::thread::id> threads;

  void NoteThread() {
    std::lock_guard<std::mutex> lock(threads_mu);
    threads.insert(std::this_thread::get_id());
  }
  // One construction, timed right after measuring `speed`, and scaled like
  // the measured work.
  void AddSetup(const HostSpeed& speed, double seconds) {
    raw_setup_s.push_back(seconds);
    setup_s.push_back(seconds * speed.Scale());
  }
  void Fail(const std::string& why) {
    if (gate_error.empty()) {
      gate_error = why;
    }
  }
  void AddDigest(const ShardResult& r) {
    digest = (digest ^ r.trace_digest) * 1099511628211ULL;
    ++digest_units;
    pass0.l1_refs += r.l1_refs;
    pass0.l2_refs += r.l2_refs;
    pass0.llc_refs += r.llc_refs;
    pass0.llc_misses += r.llc_misses;
    pass0.phase_changes += r.phase_changes;
    pass0.allocations += r.allocations;
    pass0.mask_change_ticks += r.mask_change_ticks;
    pass0.ticks += r.ticks;
  }
  // Gate accounting of one finished unit.
  void Add(const std::string& label, const ShardResult& r) {
    ++units;
    ticks += r.ticks;
    failed += r.failed_ticks;
    if (!r.first_violation.empty()) {
      Fail(label + ": invariant violation at " + r.first_violation);
    } else if (r.failed_ticks > 0) {
      Fail(label + ": failed applies");
    }
  }
  // One measured piece of work of the current pass, timed right after
  // measuring `speed`.
  void Measure(const HostSpeed& speed, double seconds, uint64_t intervals, uint64_t refs,
               const std::vector<double>& tick_latencies) {
    measured_s += seconds;
    current.read_ns_sum += speed.read_ns;
    current.format_ns_sum += speed.format_ns;
    ++current.references;
    current.seconds += seconds;
    current.ticks += intervals;
    current.accesses += refs;
    current.tick_s.insert(current.tick_s.end(), tick_latencies.begin(), tick_latencies.end());
  }
  void EndPass() {
    if (current.ticks > 0) {
      passes.push_back(std::move(current));
      if (passes.size() == 1) {
        first_pass_peak_rss_mb = PeakRssMb();
      }
    }
    current = Pass{};
  }
  // Scaled totals over every pass.
  double ScaledSeconds() const {
    double s = 0.0;
    for (const Pass& p : passes) {
      s += p.seconds * p.Scale();
    }
    return s;
  }
  // p50 over every scaled tick latency of the run. Taken per pass instead,
  // ctl-resctrl's spread over ten seeds doubled (0.07 to 0.145).
  double TickP50() const {
    std::vector<double> all;
    for (const Pass& p : passes) {
      for (const double t : p.tick_s) {
        all.push_back(t * p.Scale());
      }
    }
    return Quantile(all, 0.5);
  }
  // p99 of each pass's scaled tick latencies, median over passes: a burst
  // of host interference moves one pass's tail, not the median.
  double TickP99() const {
    std::vector<double> per_pass;
    for (const Pass& p : passes) {
      per_pass.push_back(Quantile(p.tick_s, 0.99) * p.Scale());
    }
    return Quantile(per_pass, 0.5);
  }
  size_t TickSamples() const {
    size_t n = 0;
    for (const Pass& p : passes) {
      n += p.tick_s.size();
    }
    return n;
  }
  uint64_t MeasuredTicks() const {
    uint64_t n = 0;
    for (const Pass& p : passes) {
      n += p.ticks;
    }
    return n;
  }
  uint64_t MeasuredAccesses() const {
    uint64_t n = 0;
    for (const Pass& p : passes) {
      n += p.accesses;
    }
    return n;
  }
};

// Per-layer totals of the traced units.
struct Layers {
  ShardResult sum;
  std::vector<double> resctrl_apply_s;  // per call
  std::vector<double> unit_busy_s;      // per unit (the "shard" spread)
  double busy_wall_s = 0.0;             // wall time those units took
  size_t jobs = 1;
  double traced_s = 0.0, untraced_s = 0.0;  // same units, both ways

  void Add(const ShardResult& r) {
    sum.ticks += r.ticks;
    sum.l1_refs += r.l1_refs;
    sum.l2_refs += r.l2_refs;
    sum.llc_refs += r.llc_refs;
    sum.llc_misses += r.llc_misses;
    sum.line_accesses += r.line_accesses;
    sum.ctl_s += r.ctl_s;
    sum.ctl_layers_s += r.ctl_layers_s;
    sum.phase_changes += r.phase_changes;
    sum.allocations += r.allocations;
    sum.mask_change_ticks += r.mask_change_ticks;
    sum.metrics_series = std::max(sum.metrics_series, r.metrics_series);
    sum.fidelity_coverage += r.fidelity_coverage * static_cast<double>(r.ticks);
    sum.fidelity_fallbacks += r.fidelity_fallbacks;
    sum.interval.Merge(r.interval);
    sum.tick.Merge(r.tick);
    sum.sim.Merge(r.sim);
    sum.sim_apply.Merge(r.sim_apply);
    sum.resctrl_apply.Merge(r.resctrl_apply);
    sum.pqos_read.Merge(r.pqos_read);
    sum.mon_read.Merge(r.mon_read);
    sum.journal.Merge(r.journal);
    sum.trace_sink.Merge(r.trace_sink);
    sum.checker_sink.Merge(r.checker_sink);
    sum.mask_writes += r.mask_writes;
    sum.changed_mask_writes += r.changed_mask_writes;
    sum.journal_bytes += r.journal_bytes;
    sum.journal_records += r.journal_records;
    sum.trace_bytes += r.trace_bytes;
    sum.trace_events += r.trace_events;
    resctrl_apply_s.insert(resctrl_apply_s.end(), r.resctrl_apply.samples.begin(),
                           r.resctrl_apply.samples.end());
  }
};

// CPUs this process may run on: the affinity mask, which `nproc` reports
// too, not the machine's CPU count.
size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max<unsigned>(std::thread::hardware_concurrency(), 1);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t index) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + index;
  return dcat::SplitMix64(state) % 1000000007ULL + 2;
}

// --- workloads ---

// One unit of a line workload: a scenario under one policy.
struct LineUnit {
  dcat::Scenario scenario;
  ShardOptions options;
  std::string label;
};

// A run repeats passes over its units until its time is up; pass p gets
// fresh workload seeds derived from (--seed, p), so a run averages over many
// controller trajectories while its traffic shape stays fixed.
using UnitsForPass = std::function<std::vector<LineUnit>(size_t pass)>;

// mix-line: RandomScenario mixes (the fuzz corpus shape) under every
// registered policy at line fidelity. The mixes are a fixed set of draws,
// RandomScenario(1..8), so that every seed measures the same traffic shape;
// --seed picks every tenant's workload seed (access streams, page mappings).
std::vector<LineUnit> MixLineUnits(const Args& args, size_t pass) {
  const uint64_t mixes = args.smoke ? 1 : 8;
  std::vector<LineUnit> units;
  for (uint64_t i = 0; i < mixes; ++i) {
    dcat::Scenario scenario = dcat::RandomScenario(1 + i);
    scenario.seed = DeriveSeed(args.seed, pass * 1000 + i);
    for (const std::string& policy : dcat::PolicyRegistry::Global().Names()) {
      LineUnit unit{scenario, ShardOptions{}, ""};
      unit.options.policy = policy;
      unit.options.cycles_per_interval = 2e5;
      unit.label = "mix " + std::to_string(1 + i) + " seed " + std::to_string(scenario.seed) +
                   " / " + policy;
      units.push_back(unit);
    }
  }
  return units;
}

// ctl-resctrl: a dense daemon-shaped socket — nine two-vCPU tenants fill
// all 18 cores, every third one phased — on short intervals, with the
// resctrl tee and the memory journal, under every registered policy. On
// 1e4-cycle intervals the controller re-decides about every other tick.
// The tenants are cheap to simulate so that the apply path carries the
// tick: with an MLR-4M tenant in place of the first lookbusy, the line
// model's refills after each shrink outweighed the applies.
dcat::Scenario DenseScenario(uint64_t seed, uint32_t intervals) {
  static const char* const kTenants[] = {"lookbusy", "lookbusy", "phased-mlr",
                                         "redis",    "lookbusy", "phased-mlr",
                                         "idle",     "spec:povray", "phased-mlr"};
  dcat::Scenario scenario;
  scenario.seed = seed;
  scenario.machine = "xeon-e5";
  scenario.intervals = intervals;
  for (dcat::TenantId id = 1; id <= 9; ++id) {
    // Baselines of 1-2 ways: nine tenants fit the 20-way LLC.
    scenario.initial.push_back(dcat::TenantSetup{
        .id = id, .workload = kTenants[id - 1], .baseline_ways = 1 + id % 2});
  }
  return scenario;
}

std::vector<LineUnit> CtlResctrlUnits(const Args& args, size_t pass) {
  const size_t scenarios = args.smoke ? 1 : 2;
  std::vector<LineUnit> units;
  for (size_t i = 0; i < scenarios; ++i) {
    const dcat::Scenario scenario =
        DenseScenario(DeriveSeed(args.seed, pass * 1000 + 100 + i), args.smoke ? 20 : 200);
    for (const std::string& policy : dcat::PolicyRegistry::Global().Names()) {
      LineUnit unit{scenario, ShardOptions{}, ""};
      unit.options.policy = policy;
      unit.options.cycles_per_interval = 1e4;
      unit.options.resctrl_tee = true;
      unit.options.resctrl_dir = args.workdir + "/resctrl";
      unit.label = "dense seed " + std::to_string(scenario.seed) + " / " + policy;
      units.push_back(unit);
    }
  }
  return units;
}

// Runs one unit to the end. Untraced units without the resctrl tee run on
// a real dcat::Host (its admission, removal and Step); traced units, and
// the tee, which Host cannot take, run on the benchmark's own loop.
ShardResult RunLineUnit(const LineUnit& unit, bool traced, bool keep_trace, double* setup_s,
                        Run* run) {
  ShardOptions options = unit.options;
  options.traced = traced;
  options.keep_trace = keep_trace;
  run->NoteThread();
  const auto start = Clock::now();
  if (!traced && !options.resctrl_tee) {
    HostShard shard(unit.scenario, options);
    *setup_s = SecondsSince(start);
    while (!shard.done()) {
      shard.RunInterval();
    }
    return shard.Finish();
  }
  LineShard shard(unit.scenario, options);
  *setup_s = SecondsSince(start);
  if (!shard.ok()) {
    run->Fail(unit.label + ": fake resctrl tree failed to initialize");
    return ShardResult{};
  }
  while (!shard.done()) {
    shard.RunInterval();
  }
  return shard.Finish();
}

// Untraced: units back to back, in whole passes over the list, until
// `seconds` of measured time; the first pass feeds the digest.
void MeasureLine(const Args& args, const UnitsForPass& units_for, Run* run) {
  for (size_t pass = 0;; ++pass) {
    for (const LineUnit& unit : units_for(pass)) {
      const HostSpeed speed = HostSpeed::Measure();
      double setup = 0.0;
      const ShardResult r =
          RunLineUnit(unit, /*traced=*/false, /*keep_trace=*/false, &setup, run);
      run->Add(unit.label, r);
      run->AddSetup(speed, setup);
      run->Measure(speed, r.interval.seconds, r.interval.calls, r.measured_accesses,
                   r.tick.samples);
      if (pass == 0) {
        run->AddDigest(r);
      }
    }
    run->EndPass();
    if (run->measured_s >= args.seconds || !run->gate_error.empty()) {
      return;
    }
  }
}

// Traced: every unit runs untraced (the reference, as the untraced run
// runs it) and traced; the two JSONL traces must be byte-identical.
// mix-line units are also replayed through RunScenario itself, whose trace
// the untraced run must match.
void TraceLinePass(const std::vector<LineUnit>& units, bool check_run_scenario,
                   Clock::time_point wall_start, double seconds, Run* run, Layers* layers) {
  for (const LineUnit& unit : units) {
    double setup = 0.0;
    const ShardResult plain = RunLineUnit(unit, /*traced=*/false, /*keep_trace=*/true, &setup, run);
    const auto traced_start = Clock::now();
    const ShardResult traced = RunLineUnit(unit, /*traced=*/true, /*keep_trace=*/true, &setup, run);
    layers->busy_wall_s += SecondsSince(traced_start);
    run->Add(unit.label, traced);
    run->AddDigest(traced);
    layers->Add(traced);
    layers->unit_busy_s.push_back(traced.interval.seconds);
    layers->untraced_s += plain.interval.seconds;
    layers->traced_s += traced.interval.seconds;
    if (traced.trace != plain.trace) {
      run->Fail(unit.label + ": traced run changed the decision trace: " +
                dcat::DescribeTraceDivergence(plain.trace, traced.trace));
    }
    if (check_run_scenario) {
      dcat::RunOptions options;
      options.policy = unit.options.policy;
      options.cycles_per_interval = unit.options.cycles_per_interval;
      const dcat::ScenarioResult reference = dcat::RunScenario(unit.scenario, options);
      if (reference.trace != plain.trace) {
        run->Fail(unit.label + ": benchmark run diverged from RunScenario: " +
                  dcat::DescribeTraceDivergence(reference.trace, plain.trace));
      }
    }
    if (SecondsSince(wall_start) >= seconds || !run->gate_error.empty()) {
      break;
    }
  }
}

void TraceLine(const Args& args, const UnitsForPass& units_for, bool check_run_scenario,
               Run* run, Layers* layers) {
  const auto wall_start = Clock::now();
  for (size_t pass = 0; SecondsSince(wall_start) < args.seconds && run->gate_error.empty();
       ++pass) {
    TraceLinePass(units_for(pass), check_run_scenario, wall_start, args.seconds, run, layers);
  }
}

// fleet-hybrid: the fleet layer's steady mix over 4 x nproc shards at hybrid
// fidelity, fanned out over a pool of nproc jobs. Each shard is built (the
// set-up), then runs kFleetWarmup line-heavy intervals untimed; the
// measured region is the steady state, where the hybrid fast path carries
// the simulation and the controller's own bookkeeping and telemetry do the
// work.
constexpr uint32_t kFleetWarmup = 20;

dcat::FleetConfig FleetFor(const Args& args, size_t jobs, uint32_t steady_intervals) {
  dcat::FleetConfig config;
  config.hosts = static_cast<uint32_t>(args.smoke ? 2 : 4 * jobs);
  config.sockets_per_host = 1;
  config.jobs = jobs;
  config.base_seed = DeriveSeed(args.seed, 200);
  config.policy = "max-fairness";
  config.cycles_per_interval = 1e6;
  config.mix = dcat::FleetConfig::Mix::kSteady;
  config.intervals = kFleetWarmup + steady_intervals;
  config.fidelity.mode = dcat::FidelityMode::kHybrid;
  // A stationary mix: the rate models stay valid for a long time, so a
  // tenant is re-simulated at line level only every 4096 analytic ticks —
  // the line model stays on the measured path, as a small share.
  config.fidelity.resample_every = 4096;
  return config;
}

ShardOptions FleetShardOptions(const dcat::FleetConfig& config, uint32_t shard, bool keep_trace) {
  const dcat::RunOptions run_options = dcat::FleetShardRunOptions(config, shard);
  ShardOptions options;
  options.policy = run_options.policy;
  options.cycles_per_interval = run_options.cycles_per_interval;
  options.fidelity = run_options.fidelity;
  options.keep_trace = keep_trace;
  options.warmup_intervals = kFleetWarmup;
  return options;
}

// Builds shard `s` (timed: the set-up) without warming it up.
std::unique_ptr<HostShard> BuildShard(const dcat::FleetConfig& config, uint32_t s,
                                      bool keep_trace, bool traced, double* setup_s) {
  ShardOptions options = FleetShardOptions(config, s, keep_trace);
  options.traced = traced;
  const dcat::Scenario scenario = dcat::FleetShardScenario(config, s);
  const auto start = Clock::now();
  auto shard = std::make_unique<HostShard>(scenario, options);
  *setup_s = SecondsSince(start);
  return shard;
}

void WarmUp(HostShard* shard) {
  for (uint32_t i = 0; i < kFleetWarmup; ++i) {
    shard->RunInterval();
  }
}

// Rounds of: build every shard on the driver thread, one at a time (the
// set-up, each after measuring the host's speed), warm them up on the pool
// untimed, then step all shards to the end on the pool in windows of
// kFleetWindow intervals, with a barrier after each; a window's wall time
// is one measurement.
constexpr uint32_t kFleetWindow = 2000;

void MeasureFleet(const Args& args, const dcat::FleetConfig& config, dcat::ThreadPool& pool,
                  Run* run) {
  const uint32_t shards = config.shard_count();
  for (size_t round = 0;; ++round) {
    std::vector<std::unique_ptr<HostShard>> hosts(shards);
    for (uint32_t s = 0; s < shards; ++s) {
      const HostSpeed speed = HostSpeed::Measure();
      double setup = 0.0;
      hosts[s] = BuildShard(config, s, /*keep_trace=*/false, /*traced=*/false, &setup);
      run->AddSetup(speed, setup);
    }
    pool.ParallelFor(0, shards, [&](size_t s) { WarmUp(hosts[s].get()); });
    while (!hosts[0]->done()) {
      const HostSpeed speed = HostSpeed::Measure();
      std::vector<size_t> samples_before(shards);
      std::vector<uint64_t> refs_before(shards);
      for (uint32_t s = 0; s < shards; ++s) {
        samples_before[s] = hosts[s]->tick_samples();
        refs_before[s] = hosts[s]->l1_refs_now();
      }
      const auto start = Clock::now();
      pool.ParallelFor(0, shards, [&](size_t s) {
        run->NoteThread();
        for (uint32_t i = 0; i < kFleetWindow && !hosts[s]->done(); ++i) {
          hosts[s]->RunInterval();
        }
      });
      const double wall = SecondsSince(start);
      uint64_t ticks = 0;
      uint64_t refs = 0;
      double step_s = 0.0;
      for (uint32_t s = 0; s < shards; ++s) {
        const std::vector<double>& lat = hosts[s]->tick_latencies();
        ticks += lat.size() - samples_before[s];
        refs += hosts[s]->l1_refs_now() - refs_before[s];
        step_s = std::accumulate(lat.begin() + samples_before[s], lat.end(), step_s);
      }
      // One latency sample per window, its mean Host::Step: the per-step
      // p50 of this steady hybrid tick moved by up to 40% between passes of
      // one run, and spread 0.17-0.19 (IQR/median) over ten seeds, while
      // the mean follows the throughput.
      run->Measure(speed, wall, ticks, refs, {Ratio(step_s, static_cast<double>(ticks))});
    }
    run->EndPass();
    for (uint32_t s = 0; s < shards; ++s) {
      const ShardResult r = hosts[s]->Finish();
      run->Add("fleet shard " + std::to_string(s), r);
      if (round == 0) {
        run->AddDigest(r);
      }
    }
    // A smoke round measures only milliseconds; one is enough.
    if (args.smoke || run->measured_s >= args.seconds || !run->gate_error.empty()) {
      return;
    }
  }
}

// Traced fleet: shards standalone, each untraced then traced with timed
// sinks and workloads (the traces must match), while the time budget
// lasts; then every shard through RunScenario(FleetShardScenario,
// FleetShardRunOptions) on the pool for the shard spread — whose traces
// must match the benchmark's loop.
void TraceFleet(const Args& args, const dcat::FleetConfig& config, dcat::ThreadPool& pool,
                Run* run, Layers* layers) {
  const uint32_t shards = config.shard_count();
  std::vector<std::string> traces(shards);
  const auto wall_start = Clock::now();
  for (uint32_t s = 0; s < shards; ++s) {
    ShardResult results[2];
    for (const bool traced : {false, true}) {
      double setup = 0.0;
      const std::unique_ptr<HostShard> shard =
          BuildShard(config, s, /*keep_trace=*/true, traced, &setup);
      WarmUp(shard.get());
      while (!shard->done()) {
        shard->RunInterval();
      }
      results[traced] = shard->Finish();
    }
    run->Add("fleet shard " + std::to_string(s), results[1]);
    run->AddDigest(results[1]);
    layers->Add(results[1]);
    layers->untraced_s += results[0].interval.seconds;
    layers->traced_s += results[1].interval.seconds;
    if (results[1].trace != results[0].trace) {
      run->Fail("fleet shard " + std::to_string(s) + ": traced run changed the trace: " +
                dcat::DescribeTraceDivergence(results[0].trace, results[1].trace));
    }
    traces[s] = results[0].trace;
    if (SecondsSince(wall_start) >= args.seconds / 2) {
      break;
    }
  }
  std::vector<double> busy(shards);
  std::vector<std::string> reference(shards);
  const auto start = Clock::now();
  pool.ParallelFor(0, shards, [&](size_t s) {
    run->NoteThread();
    const auto shard_start = Clock::now();
    const uint32_t shard = static_cast<uint32_t>(s);
    reference[s] = dcat::RunScenario(dcat::FleetShardScenario(config, shard),
                                     dcat::FleetShardRunOptions(config, shard))
                       .trace;
    busy[s] = SecondsSince(shard_start);
  });
  layers->busy_wall_s = SecondsSince(start);
  layers->unit_busy_s = busy;
  layers->jobs = pool.num_threads();
  for (uint32_t s = 0; s < shards; ++s) {
    if (!traces[s].empty() && reference[s] != traces[s]) {
      run->Fail("fleet shard " + std::to_string(s) + ": benchmark loop diverged from RunScenario: " +
                dcat::DescribeTraceDivergence(reference[s], traces[s]));
    }
  }
}

// --- reporting ---

// `rss_baseline_mb` is the harness's own resident set (binary and reference
// buffer) before any workload ran; peak_rss_mb is the program's growth
// above it over the first pass.
std::vector<Metric> EndToEnd(const Run& run, double rss_baseline_mb) {
  const double seconds = run.ScaledSeconds();
  return {
      {"setup_s", Quantile(run.setup_s, 0.5), "s"},
      {"sim_accesses_per_s", Ratio(static_cast<double>(run.MeasuredAccesses()), seconds), "1/s"},
      {"ticks_per_s", Ratio(static_cast<double>(run.MeasuredTicks()), seconds), "1/s"},
      {"tick_us_p50", run.TickP50() * 1e6, "us"},
      {"tick_us_p99", run.TickP99() * 1e6, "us"},
      {"peak_rss_mb", run.first_pass_peak_rss_mb - rss_baseline_mb, "MB"},
  };
}

// The per-layer metrics every workload reports, then (`extra`) the ones
// whose layer only some workloads reach.
void PerLayer(const Layers& l, const std::vector<Primitive>& primitives,
              std::vector<Metric>* common, std::vector<Metric>* extra) {
  const ShardResult& s = l.sum;
  const double ticks = static_cast<double>(std::max<uint64_t>(s.interval.calls, 1));
  const double mean_busy =
      l.unit_busy_s.empty() ? 0.0 : Ratio(std::accumulate(l.unit_busy_s.begin(),
                                                          l.unit_busy_s.end(), 0.0),
                                          static_cast<double>(l.unit_busy_s.size()));
  const double max_busy =
      l.unit_busy_s.empty() ? 0.0 : *std::max_element(l.unit_busy_s.begin(), l.unit_busy_s.end());
  const double sum_busy = mean_busy * static_cast<double>(l.unit_busy_s.size());
  *common = {
      {"sim.run_s", s.sim.seconds, "s"},
      {"sim.ns_per_access", Ratio(s.sim.seconds * 1e9, static_cast<double>(s.line_accesses)),
       "ns"},
      {"sim.l1_refs", static_cast<double>(s.l1_refs), "count"},
      {"sim.l2_refs", static_cast<double>(s.l2_refs), "count"},
      {"sim.llc_refs", static_cast<double>(s.llc_refs), "count"},
      {"sim.llc_misses", static_cast<double>(s.llc_misses), "count"},
  };
  for (const Primitive& p : primitives) {
    common->push_back({p.name, p.ns, "ns"});
  }
  const std::vector<Metric> rest = {
      {"ctl.tick_s", s.ctl_s, "s"},
      {"ctl.self_us_per_tick", (s.ctl_s - s.ctl_layers_s) * 1e6 / ticks, "us"},
      {"ctl.allocations", static_cast<double>(s.allocations), "count"},
      {"ctl.phase_changes", static_cast<double>(s.phase_changes), "count"},
      {"ctl.applies", static_cast<double>(s.mask_change_ticks), "count"},
      {"trace.s", s.trace_sink.seconds, "s"},
      {"trace.bytes", static_cast<double>(s.trace_bytes), "bytes"},
      {"trace.events", static_cast<double>(s.trace_events), "count"},
      {"checker.s", s.checker_sink.seconds, "s"},
      {"metrics.series", static_cast<double>(s.metrics_series), "count"},
      {"fidelity.coverage", Ratio(s.fidelity_coverage, static_cast<double>(s.ticks)), "ratio"},
      {"fidelity.fallbacks", static_cast<double>(s.fidelity_fallbacks), "count"},
      {"host.step_us_p50", Quantile(s.interval.samples, 0.5) * 1e6, "us"},
      {"fleet.shard_s_mean", mean_busy, "s"},
      {"fleet.shard_s_max", max_busy, "s"},
      {"fleet.imbalance", Ratio(max_busy, mean_busy), "ratio"},
      {"fleet.scaling_efficiency",
       Ratio(sum_busy, static_cast<double>(l.jobs) * l.busy_wall_s), "ratio"},
      {"trace_overhead_pct", Ratio(l.traced_s - l.untraced_s, l.untraced_s) * 100.0, "%"},
  };
  common->insert(common->end(), rest.begin(), rest.end());
  if (s.sim_apply.calls > 0) {
    *extra = {
        {"pqos.sim_apply_calls", static_cast<double>(s.sim_apply.calls), "count"},
        {"pqos.sim_apply_s", s.sim_apply.seconds, "s"},
        {"pqos.read_calls", static_cast<double>(s.pqos_read.calls), "count"},
        {"pqos.read_s", s.pqos_read.seconds, "s"},
        {"pqos.changed_write_ratio",
         Ratio(static_cast<double>(s.changed_mask_writes), static_cast<double>(s.mask_writes)),
         "ratio"},
        {"mon.read_calls", static_cast<double>(s.mon_read.calls), "count"},
        {"mon.read_s", s.mon_read.seconds, "s"},
    };
  }
  if (s.resctrl_apply.calls > 0) {
    extra->push_back(
        {"pqos.resctrl_apply_calls", static_cast<double>(s.resctrl_apply.calls), "count"});
    extra->push_back({"pqos.resctrl_apply_s", s.resctrl_apply.seconds, "s"});
    extra->push_back(
        {"pqos.resctrl_apply_us_p50", Quantile(l.resctrl_apply_s, 0.5) * 1e6, "us"});
    extra->push_back(
        {"pqos.resctrl_apply_us_p99", Quantile(l.resctrl_apply_s, 0.99) * 1e6, "us"});
  }
  if (s.journal.calls > 0) {
    extra->push_back({"journal.s", s.journal.seconds, "s"});
    extra->push_back({"journal.records", static_cast<double>(s.journal_records), "count"});
    extra->push_back({"journal.bytes", static_cast<double>(s.journal_bytes), "bytes"});
  }
}

void PrintMetricLines(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

// Host-time split of a traced run: where the measured intervals (each with
// its churn) went.
void PrintBreakdown(const Layers& l) {
  const ShardResult& s = l.sum;
  const double total = s.interval.seconds;
  if (total <= 0) {
    return;
  }
  std::printf("host-time breakdown of %.3f s of intervals:\n", total);
  const std::vector<std::pair<const char*, double>> rows = {
      {"sim (line model)", s.sim.seconds},
      {"pqos apply (SimPqos)", s.sim_apply.seconds},
      {"pqos apply (resctrl)", s.resctrl_apply.seconds},
      {"pqos reads", s.pqos_read.seconds},
      {"monitor reads", s.mon_read.seconds},
      {"journal", s.journal.seconds},
      {"trace writer", s.trace_sink.seconds},
      {"invariant checker", s.checker_sink.seconds},
  };
  double named = 0.0;
  for (const auto& [name, seconds] : rows) {
    named += seconds;
    std::printf("  %-24s %7.2f%%\n", name, 100.0 * seconds / total);
  }
  std::printf("  %-24s %7.2f%%  (controller, fidelity planning, loop)\n", "rest",
              100.0 * (total - named) / total);
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      const size_t n = std::string(flag).size();
      return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      args->workload = v;
    } else if (const char* v = value("--seed=")) {
      if (!dcat::ParseUint64(v, &args->seed)) return false;
    } else if (const char* v = value("--seconds=")) {
      if (!dcat::ParseDouble(v, &args->seconds) || args->seconds <= 0) return false;
    } else if (const char* v = value("--trace=")) {
      if (std::string(v) != "0" && std::string(v) != "1") return false;
      args->trace = std::string(v) == "1";
    } else if (const char* v = value("--workdir=")) {
      args->workdir = v;
    } else if (const char* v = value("--git-sha=")) {
      args->git_sha = v;
    } else if (arg == "--smoke") {
      args->smoke = true;
    } else {
      std::fprintf(stderr, "dcat_perfbench: unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return !args->workdir.empty() &&
         (args->workload == "mix-line" || args->workload == "ctl-resctrl" ||
          args->workload == "fleet-hybrid");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dcat_perfbench --workload=mix-line|ctl-resctrl|fleet-hybrid --seed=N "
                 "--seconds=S --trace=0|1 --workdir=DIR [--git-sha=SHA] [--smoke]\n");
    return 2;
  }
  // Maps and touches the reference buffer, so the baseline below holds it.
  ReferenceReadNs();
  const double rss_baseline_mb = PeakRssMb();
  const size_t nproc = AvailableCpus();
  const size_t configured_jobs = args.workload == "fleet-hybrid" ? nproc : 1;
  dcat::ThreadPool pool(configured_jobs);

  std::printf("dcat_perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d%s\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0,
              args.smoke ? " (smoke)" : "");
  std::printf(
      "note: host time only; the simulated socket is not validated against hardware and no "
      "accuracy figure is claimed.\n");

  Run run;
  Layers layers;
  size_t expected_jobs = 1;
  if (args.workload == "mix-line") {
    std::printf(
        "note: mix-line starts every scenario with cold simulated caches on purpose: every "
        "fuzz and figure run pays that cost. Construction is set-up (setup_s), not timed.\n");
    const UnitsForPass units = [&](size_t pass) { return MixLineUnits(args, pass); };
    args.trace ? TraceLine(args, units, /*check_run_scenario=*/true, &run, &layers)
               : MeasureLine(args, units, &run);
  } else if (args.workload == "ctl-resctrl") {
    const UnitsForPass units = [&](size_t pass) { return CtlResctrlUnits(args, pass); };
    args.trace ? TraceLine(args, units, /*check_run_scenario=*/false, &run, &layers)
               : MeasureLine(args, units, &run);
  } else {
    const uint32_t steady = args.smoke ? 20 : (args.trace ? 4500 : 30000);
    const dcat::FleetConfig config = FleetFor(args, configured_jobs, steady);
    expected_jobs = std::min<size_t>(configured_jobs, config.shard_count());
    std::printf(
        "note: fleet-hybrid measures the steady state: %u shards on %zu jobs, each built as "
        "set-up and warmed up for %u intervals untimed, then %u measured intervals. Its tick "
        "latency is one Host::Step of a shard (Host owns the controller there).\n",
        config.shard_count(), pool.num_threads(), kFleetWarmup, steady);
    args.trace ? TraceFleet(args, config, pool, &run, &layers)
               : MeasureFleet(args, config, pool, &run);
  }

  std::printf("trace digest: %016" PRIx64 " over %" PRIu64 " units (%" PRIu64
              " ticks); sim.l1_refs=%" PRIu64 " sim.l2_refs=%" PRIu64 " sim.llc_refs=%" PRIu64
              " sim.llc_misses=%" PRIu64 " ctl.phase_changes=%" PRIu64
              " ctl.allocations=%" PRIu64 " ctl.applies=%" PRIu64 "\n",
              run.digest, run.digest_units, run.pass0.ticks, run.pass0.l1_refs,
              run.pass0.l2_refs, run.pass0.llc_refs, run.pass0.llc_misses,
              run.pass0.phase_changes, run.pass0.allocations, run.pass0.mask_change_ticks);
  run.EndPass();
  // The jobs that actually ran work, against the configured pool: a fleet
  // run on fewer threads than nproc measures something else. A smoke run's
  // shards are too short for every worker to be sure to pick one up.
  std::printf(
      "env: {\"nproc\": %zu, \"online_cpus\": %u, \"pool_threads\": %zu, \"configured_jobs\": "
      "%zu, \"jobs_used\": %zu, \"build_type\": \"%s\", \"compiler\": \"%s\", \"git_sha\": "
      "\"%s\", \"host_l2_bytes\": %ld, \"host_l3_bytes\": %ld}\n",
      nproc, std::thread::hardware_concurrency(), pool.num_threads(), configured_jobs,
      run.threads.size(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, args.git_sha.c_str(),
      sysconf(_SC_LEVEL2_CACHE_SIZE), sysconf(_SC_LEVEL3_CACHE_SIZE));
  if (!args.smoke && run.threads.size() != expected_jobs) {
    run.Fail("work ran on " + std::to_string(run.threads.size()) + " threads, configured " +
             std::to_string(expected_jobs));
  }
  std::printf("samples: %" PRIu64 " units, %zu passes, %.2f s measured, %zu set-ups (raw median "
              "%.6g s)\n",
              run.units, run.passes.size(), run.measured_s, run.setup_s.size(),
              Quantile(run.raw_setup_s, 0.5));
  for (size_t i = 0; i < run.passes.size(); ++i) {
    const Pass& p = run.passes[i];
    std::printf("  pass %zu (raw): %" PRIu64 " ticks in %.3f s: %.6g accesses/s, %.6g ticks/s, "
                "tick p50 %.1f us, p99 %.1f us; references: read %.2f ns, format %.1f ns -> scale %.3f\n",
                i, p.ticks, p.seconds, Ratio(static_cast<double>(p.accesses), p.seconds),
                Ratio(static_cast<double>(p.ticks), p.seconds), Quantile(p.tick_s, 0.5) * 1e6,
                Quantile(p.tick_s, 0.99) * 1e6, p.Speed().read_ns, p.Speed().format_ns, p.Scale());
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    const std::vector<Primitive> primitives = MeasurePrimitives(args.seed, args.smoke ? 0.02 : 1);
    std::vector<Metric> extra;
    PerLayer(layers, primitives, &metrics, &extra);
    PrintBreakdown(layers);
    PrintMetricLines("per-layer metrics:", metrics);
    PrintMetricLines("workload-specific per-layer metrics:", extra);
  } else {
    metrics = EndToEnd(run, rss_baseline_mb);
    PrintMetricLines("end-to-end metrics:", metrics);
    std::printf("  (tick latency quantiles: median over %zu passes of %zu samples)\n",
                run.passes.size(), run.TickSamples());
  }
  const bool correct = run.gate_error.empty() && run.ticks > 0;
  if (!correct) {
    std::printf("CORRECTNESS GATE FAILED: %s\n",
                run.gate_error.empty() ? "no ticks ran" : run.gate_error.c_str());
  }
  PrintResult(correct, std::max<uint64_t>(run.ticks, 1), run.failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
