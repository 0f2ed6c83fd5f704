// The benchmark's per-socket drivers.
//
// A shard is one socket under one dCat controller running one Scenario,
// built in the constructor (the set-up the benchmark reports as setup_s)
// and advanced one control interval at a time, so construction never
// lands in a timed region.
//
//   LineShard  drives its own line-fidelity loop in Host::Step's order —
//              Vm::RunUntil for every VM, Socket::AdvanceInterval,
//              DcatController::Tick — with RunScenario's sinks and churn.
//              Owning the loop is what lets it time Tick on its own and
//              put timing decorators between the controller and its
//              CatController, MonitoringProvider and ControllerJournal.
//              Optionally the controller programs a SimPqos + fake-tree
//              ResctrlPqos tee and write-ahead journals to memory.
//   HostShard  is RunScenario's loop around a real dcat::Host (admission,
//              removal and Host::Step are the program's own), at any
//              fidelity: Host owns the controller and the fidelity engine,
//              so only Host::Step, the event sinks and the workloads can be
//              wrapped.
//
// Both produce the same ShardResult. Without `traced` no decorator is
// installed; the untraced loop adds only a clock read around each interval
// and each Tick.
#ifndef PERFBENCH_SRC_SHARDS_H_
#define PERFBENCH_SRC_SHARDS_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "perfbench/src/layers.h"
#include "src/cluster/host.h"
#include "src/cluster/vm.h"
#include "src/core/dcat_controller.h"
#include "src/pqos/resctrl_pqos.h"
#include "src/pqos/sim_pqos.h"
#include "src/recovery/journal.h"
#include "src/sim/socket.h"
#include "src/telemetry/trace.h"
#include "src/verify/invariant_checker.h"
#include "src/verify/scenario.h"

namespace perfbench {

struct ShardOptions {
  std::string policy = "max-fairness";
  double cycles_per_interval = 1e6;
  dcat::FidelityConfig fidelity;  // HostShard only
  // LineShard only: the daemon's control path — program a SimPqos +
  // ResctrlPqos tee rooted at a fake tree under `resctrl_dir` (created
  // here, removed with the shard), and journal every decision to memory.
  bool resctrl_tee = false;
  std::string resctrl_dir;
  bool traced = false;
  // Keep the JSONL trace text (it is always hashed and counted).
  bool keep_trace = true;
  // HostShard only: intervals run before measurement starts; every clock
  // and the measured access count restart after them.
  uint32_t warmup_intervals = 0;
};

// Everything one shard run reports. Times are host seconds.
struct ShardResult {
  uint64_t ticks = 0;             // intervals the checker audited
  uint64_t failed_ticks = 0;      // ticks with a violation, plus failed applies
  std::string first_violation;    // empty when clean
  std::string trace;              // full JSONL decision trace, when kept
  uint64_t trace_digest = 0;      // hash of every trace byte
  uint64_t l1_refs = 0, l2_refs = 0, llc_refs = 0, llc_misses = 0;  // whole run
  uint64_t measured_accesses = 0;  // L1 references during the measured intervals
  uint64_t line_accesses = 0;      // of those, executed by the line model (traced)
  uint64_t phase_changes = 0, allocations = 0;
  uint64_t mask_change_ticks = 0;  // ticks that changed at least one COS mask
  uint64_t metrics_series = 0;     // controller registry size at the end
  double fidelity_coverage = 0.0;
  uint64_t fidelity_fallbacks = 0;

  // Measured intervals only.
  LayerClock interval;  // one control interval (samples kept)
  LayerClock tick;      // DcatController::Tick (LineShard) / Host::Step (HostShard)
  LayerClock sim;       // Vm::RunUntil (LineShard) / Workload::Execute (traced HostShard)
  // Controller time: Tick (LineShard) or Host::Step less its line model
  // (HostShard), and the part of it spent inside the decorated layers.
  double ctl_s = 0.0;
  double ctl_layers_s = 0.0;

  // Traced runs only.
  LayerClock sim_apply, resctrl_apply, pqos_read, mon_read, journal, trace_sink, checker_sink;
  uint64_t mask_writes = 0, changed_mask_writes = 0;
  uint64_t journal_bytes = 0, journal_records = 0;
  uint64_t trace_bytes = 0, trace_events = 0;
};

class LineShard {
 public:
  LineShard(const dcat::Scenario& scenario, const ShardOptions& options);
  ~LineShard();
  LineShard(const LineShard&) = delete;
  LineShard& operator=(const LineShard&) = delete;

  // False when the fake resctrl tree could not be set up; the shard is
  // then unusable.
  bool ok() const { return ok_; }
  bool done() const { return interval_ >= scenario_.intervals; }
  // Applies this interval's churn, then runs one control interval.
  void RunInterval();
  ShardResult Finish();

 private:
  void AddTenant(const dcat::TenantSetup& tenant);
  void RemoveTenant(dcat::TenantId id);
  // Host time charged so far to the decorated layers (traced runs).
  double LayerSeconds() const;

  dcat::Scenario scenario_;
  ShardOptions options_;
  bool ok_ = true;
  dcat::Socket socket_;
  dcat::SimPqos sim_;
  std::unique_ptr<dcat::ResctrlPqos> resctrl_;
  std::unique_ptr<TimedCat> sim_timed_;
  std::unique_ptr<TimedCat> resctrl_timed_;
  std::unique_ptr<TeeCat> tee_;
  std::unique_ptr<TimedMonitor> monitor_timed_;
  CountingJournalStorage journal_storage_;
  std::unique_ptr<dcat::JournalWriter> journal_;
  std::unique_ptr<TimedJournal> journal_timed_;
  std::unique_ptr<dcat::DcatController> controller_;
  TraceDigestBuf trace_buf_;
  std::ostream trace_out_;
  dcat::JsonlTraceWriter writer_;
  dcat::InvariantChecker checker_;
  TimedSink writer_timed_;
  TimedSink checker_timed_;
  DecisionCounter decisions_;
  std::vector<std::unique_ptr<dcat::Vm>> vms_;
  std::vector<uint16_t> free_cores_;
  uint16_t next_core_ = 0;
  uint32_t interval_ = 0;
  size_t next_churn_ = 0;
  ShardResult result_;
};

class HostShard {
 public:
  HostShard(const dcat::Scenario& scenario, const ShardOptions& options);
  HostShard(const HostShard&) = delete;
  HostShard& operator=(const HostShard&) = delete;

  bool done() const { return interval_ >= scenario_.intervals; }
  void RunInterval();
  ShardResult Finish();

  // Progress so far, for measuring a window of intervals.
  size_t tick_samples() const { return result_.tick.samples.size(); }
  const std::vector<double>& tick_latencies() const { return result_.tick.samples; }
  uint64_t l1_refs_now() const;

 private:
  std::unique_ptr<dcat::Workload> MakeWorkload(const std::string& spec, uint64_t seed);
  void AddTenant(const dcat::TenantSetup& tenant);
  // Restarts every clock and the measured access count (end of warm-up).
  void StartMeasuring();

  dcat::Scenario scenario_;
  ShardOptions options_;
  ShardResult result_;
  dcat::HostConfig config_;
  std::unique_ptr<dcat::Host> host_;
  TraceDigestBuf trace_buf_;
  std::ostream trace_out_;
  dcat::JsonlTraceWriter writer_;
  dcat::InvariantChecker checker_;
  TimedSink writer_timed_;
  TimedSink checker_timed_;
  DecisionCounter decisions_;
  uint32_t interval_ = 0;
  size_t next_churn_ = 0;
  uint64_t accesses_at_start_ = 0;
};

// The HostConfig RunScenario builds for (scenario, options).
dcat::HostConfig ScenarioHostConfig(const dcat::Scenario& scenario, const ShardOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SHARDS_H_
