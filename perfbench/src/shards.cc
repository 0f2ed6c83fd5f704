#include "perfbench/src/shards.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <set>

#include "src/pqos/file_io.h"
#include "src/pqos/mask.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

dcat::SocketConfig MachineSocket(const std::string& machine) {
  return machine == "xeon-d" ? dcat::SocketConfig::XeonD() : dcat::SocketConfig::XeonE5();
}

dcat::InvariantOptions CheckerOptions(const dcat::Socket& socket, const dcat::DcatConfig& dcat) {
  dcat::InvariantOptions options;
  options.total_ways = socket.num_ways();
  options.min_ways = dcat.min_ways;
  options.ipc_improvement_thr = dcat.ipc_improvement_thr;
  return options;
}

void WriteFile(const fs::path& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

// A freshly mounted resctrl tree for `socket`: platform info plus the root
// group's schemata and cpus_list.
bool MakeFakeResctrlTree(const fs::path& root, const dcat::Socket& socket) {
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root / "info" / "L3", ec);
  if (ec) {
    return false;
  }
  const uint32_t full = dcat::MakeWayMask(0, socket.num_ways());
  WriteFile(root / "info" / "L3" / "cbm_mask", dcat::MaskToHex(full) + "\n");
  WriteFile(root / "info" / "L3" / "num_closids", std::to_string(socket.num_cos()) + "\n");
  WriteFile(root / "schemata", "L3:0=" + dcat::MaskToHex(full) + "\n");
  WriteFile(root / "cpus_list", "0-" + std::to_string(socket.num_cores() - 1) + "\n");
  return true;
}

// File access for the fake resctrl tree: the program's RealFileIo, except
// that a write overwrites the file in place and then trims it, instead of
// truncating it to zero first. A real resctrl tree is kernfs, in memory. On
// ext4, closing a file that was truncated to zero and rewritten starts a
// writeback of its data, so with RealFileIo::Write every mask write became a
// disk write (about 6000 a second, 250 MB in a 10 s run) and the tick's
// speed followed the virtual disk's I/O budget: 2-3x slower in 5 of 10 runs.
class InPlaceFileIo : public dcat::RealFileIo {
 public:
  dcat::FileIoStatus Write(const std::string& path, const std::string& content) override {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
      return errno == ENOENT ? dcat::FileIoStatus::kNotFound : dcat::FileIoStatus::kError;
    }
    bool ok = true;
    size_t done = 0;
    while (ok && done < content.size()) {
      const ssize_t n = ::pwrite(fd, content.data() + done, content.size() - done,
                                 static_cast<off_t>(done));
      if (n > 0) {
        done += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        ok = false;
      }
    }
    ok = ok && ::ftruncate(fd, static_cast<off_t>(content.size())) == 0;
    ok = ::close(fd) == 0 && ok;
    return ok ? dcat::FileIoStatus::kOk : dcat::FileIoStatus::kError;
  }
};

dcat::FileIo* FakeTreeFileIo() {
  static InPlaceFileIo io;
  return &io;
}

// Fires the scenario's churn for the current interval, as RunScenario does.
template <typename AddFn, typename RemoveFn, typename SwapFn>
void ApplyChurn(const dcat::Scenario& scenario, uint32_t interval, size_t* next, AddFn add,
                RemoveFn remove, SwapFn swap) {
  while (*next < scenario.churn.size() && scenario.churn[*next].interval == interval) {
    const dcat::ChurnEvent& event = scenario.churn[*next];
    if (event.swap) {
      swap(event.tenant.id, dcat::MakeScenarioWorkload(
                                event.tenant.workload,
                                dcat::WorkloadSeed(scenario, event.tenant.id) ^ 0x5a5aULL));
    } else if (event.add) {
      add(event.tenant);
    } else {
      remove(event.remove_id);
    }
    ++*next;
  }
}

// Per-COS masks of the live socket, to count ticks that moved a mask.
std::vector<uint32_t> CosMasks(const dcat::Socket& socket) {
  std::vector<uint32_t> masks(socket.num_cos());
  for (uint8_t cos = 0; cos < socket.num_cos(); ++cos) {
    masks[cos] = socket.CosMask(cos);
  }
  return masks;
}

// Shared end-of-run accounting: checker verdict, counters, trace.
void FinishCommon(dcat::InvariantChecker& checker, const dcat::Socket& socket,
                  const dcat::MetricsRegistry& metrics, TraceDigestBuf& trace,
                  const DecisionCounter& decisions, ShardResult* result) {
  checker.Finish();
  result->ticks = checker.ticks_checked();
  std::set<uint64_t> bad_ticks;
  for (const dcat::Violation& v : checker.violations()) {
    bad_ticks.insert(v.tick);
    if (result->first_violation.empty()) {
      result->first_violation =
          "tick " + std::to_string(v.tick) + " " + v.invariant + ": " + v.detail;
    }
  }
  const auto& counters = metrics.counters();
  const auto failures = counters.find("faults.apply_failures");
  result->failed_ticks =
      bad_ticks.size() + (failures != counters.end() ? failures->second.value() : 0);
  for (uint16_t c = 0; c < socket.num_cores(); ++c) {
    const dcat::PerfCounterBlock& k = socket.core(c).counters();
    result->l1_refs += k.l1_references;
    result->l2_refs += k.l2_references;
    result->llc_refs += k.llc_references;
    result->llc_misses += k.llc_misses;
  }
  result->metrics_series = metrics.size();
  result->phase_changes = decisions.phase_changes;
  result->allocations = decisions.allocations;
  result->trace = trace.kept();
  result->trace_digest = trace.digest();
  result->trace_bytes = trace.bytes();
}

uint64_t TotalL1Refs(const dcat::Socket& socket) {
  uint64_t refs = 0;
  for (uint16_t c = 0; c < socket.num_cores(); ++c) {
    refs += socket.core(c).counters().l1_references;
  }
  return refs;
}

}  // namespace

dcat::HostConfig ScenarioHostConfig(const dcat::Scenario& scenario, const ShardOptions& options) {
  dcat::HostConfig config;
  config.socket = MachineSocket(scenario.machine);
  config.mode = dcat::ManagerMode::kDcat;
  config.dcat = scenario.dcat;
  config.dcat.policy = options.policy;
  config.cycles_per_interval = options.cycles_per_interval;
  config.fidelity = options.fidelity;
  return config;
}

// --- LineShard ---

LineShard::LineShard(const dcat::Scenario& scenario, const ShardOptions& options)
    : scenario_(scenario),
      options_(options),
      socket_(MachineSocket(scenario.machine)),
      sim_(&socket_),
      trace_buf_(options.keep_trace),
      trace_out_(&trace_buf_),
      writer_(&trace_out_),
      checker_(CheckerOptions(socket_, scenario.dcat)),
      writer_timed_(&writer_),
      checker_timed_(&checker_) {
  result_.interval.keep_samples = true;
  result_.tick.keep_samples = true;
  dcat::CatController* cat = &sim_;
  const dcat::MonitoringProvider* monitor = &sim_;
  if (options_.traced) {
    sim_timed_ = std::make_unique<TimedCat>(&sim_);
    monitor_timed_ = std::make_unique<TimedMonitor>(&sim_);
    cat = sim_timed_.get();
    monitor = monitor_timed_.get();
  }
  if (options_.resctrl_tee) {
    if (!MakeFakeResctrlTree(options_.resctrl_dir, socket_)) {
      ok_ = false;
      return;
    }
    resctrl_ = std::make_unique<dcat::ResctrlPqos>(options_.resctrl_dir, socket_.num_cores(),
                                                   FakeTreeFileIo());
    if (!resctrl_->Initialize()) {
      ok_ = false;
      return;
    }
    dcat::CatController* secondary = resctrl_.get();
    if (options_.traced) {
      resctrl_timed_ = std::make_unique<TimedCat>(resctrl_.get());
      secondary = resctrl_timed_.get();
    }
    tee_ = std::make_unique<TeeCat>(cat, secondary);
    cat = tee_.get();
  }
  dcat::DcatConfig dcat_config = scenario_.dcat;
  dcat_config.policy = options_.policy;
  controller_ = std::make_unique<dcat::DcatController>(cat, monitor, dcat_config);
  if (options_.resctrl_tee) {
    journal_ = std::make_unique<dcat::JournalWriter>(&journal_storage_);
    journal_->set_metrics(&controller_->metrics());
    dcat::ControllerJournal* journal = journal_.get();
    if (options_.traced) {
      journal_timed_ = std::make_unique<TimedJournal>(journal_.get());
      journal = journal_timed_.get();
    }
    controller_->AttachJournal(journal);
  }
  // RunScenario's sink order: trace writer, then the checker.
  checker_.AttachController(controller_.get(), &sim_);
  checker_.set_metrics(&controller_->metrics());
  if (options_.traced) {
    controller_->AddEventSink(&writer_timed_);
    controller_->AddEventSink(&checker_timed_);
  } else {
    controller_->AddEventSink(&writer_);
    controller_->AddEventSink(&checker_);
  }
  controller_->AddEventSink(&decisions_);
  for (const dcat::TenantSetup& tenant : scenario_.initial) {
    AddTenant(tenant);
  }
}

LineShard::~LineShard() {
  if (options_.resctrl_tee) {
    std::error_code ec;
    fs::remove_all(options_.resctrl_dir, ec);
  }
}

// Host::TryAddVm: reuse freed cores first, start the VM at the current
// wall clock, then admit; a refused tenant returns its cores.
void LineShard::AddTenant(const dcat::TenantSetup& tenant) {
  const dcat::VmConfig vm_config{.id = tenant.id,
                                 .name = tenant.workload,
                                 .baseline_ways = tenant.baseline_ways,
                                 .seed = dcat::WorkloadSeed(scenario_, tenant.id)};
  std::vector<uint16_t> cores;
  while (cores.size() < vm_config.vcpus && !free_cores_.empty()) {
    cores.push_back(free_cores_.back());
    free_cores_.pop_back();
  }
  while (cores.size() < vm_config.vcpus) {
    if (next_core_ >= socket_.num_cores()) {
      free_cores_.insert(free_cores_.end(), cores.begin(), cores.end());
      return;
    }
    cores.push_back(next_core_++);
  }
  const double now = static_cast<double>(interval_) * options_.cycles_per_interval;
  for (uint16_t core : cores) {
    if (socket_.core(core).wall_cycles() < now) {
      socket_.core(core).Idle(now - socket_.core(core).wall_cycles());
    }
  }
  auto vm = std::make_unique<dcat::Vm>(
      vm_config, dcat::MakeScenarioWorkload(tenant.workload, vm_config.seed), &socket_, cores);
  if (controller_->AddTenant(vm->tenant_spec()) != dcat::AdmitStatus::kOk) {
    free_cores_.insert(free_cores_.end(), cores.begin(), cores.end());
    return;
  }
  vms_.push_back(std::move(vm));
  checker_.RegisterTenant(tenant.id, tenant.baseline_ways);
}

// Host::RemoveVm.
void LineShard::RemoveTenant(dcat::TenantId id) {
  for (size_t i = 0; i < vms_.size(); ++i) {
    if (vms_[i]->config().id != id) {
      continue;
    }
    controller_->RemoveTenant(id);
    for (uint16_t core : vms_[i]->cores()) {
      socket_.core(core).ResetCaches();
      free_cores_.push_back(core);
    }
    vms_.erase(vms_.begin() + static_cast<ptrdiff_t>(i));
    return;
  }
}

void LineShard::RunInterval() {
  // Churn is part of an interval's host time, as in RunScenario's loop.
  const auto churn_start = Clock::now();
  ApplyChurn(
      scenario_, interval_, &next_churn_, [&](const dcat::TenantSetup& t) { AddTenant(t); },
      [&](dcat::TenantId id) { RemoveTenant(id); },
      [&](dcat::TenantId id, std::unique_ptr<dcat::Workload> w) {
        for (auto& vm : vms_) {
          if (vm->config().id == id) {
            vm->ReplaceWorkload(std::move(w));
            return;
          }
        }
      });
  const double churn_s = SecondsSince(churn_start);
  const std::vector<uint32_t> masks_before = CosMasks(socket_);
  ++interval_;
  const double target = static_cast<double>(interval_) * options_.cycles_per_interval;
  const auto start = Clock::now();
  {
    Span sim(&result_.sim);
    for (auto& vm : vms_) {
      vm->RunUntil(target);
    }
  }
  socket_.AdvanceInterval(options_.cycles_per_interval);
  const double layers_before = LayerSeconds();
  const auto tick_start = Clock::now();
  controller_->Tick();
  const double tick_s = SecondsSince(tick_start);
  result_.interval.Add(churn_s + SecondsSince(start));
  result_.tick.Add(tick_s);
  result_.ctl_s += tick_s;
  result_.ctl_layers_s += LayerSeconds() - layers_before;
  if (CosMasks(socket_) != masks_before) {
    ++result_.mask_change_ticks;
  }
}

double LineShard::LayerSeconds() const {
  if (!options_.traced) {
    return 0.0;
  }
  double s = sim_timed_->apply.seconds + sim_timed_->read.seconds +
             monitor_timed_->read.seconds + writer_timed_.clock.seconds +
             checker_timed_.clock.seconds;
  if (resctrl_timed_ != nullptr) {
    s += resctrl_timed_->apply.seconds + resctrl_timed_->read.seconds;
  }
  if (journal_timed_ != nullptr) {
    s += journal_timed_->clock.seconds;
  }
  return s;
}

ShardResult LineShard::Finish() {
  FinishCommon(checker_, socket_, controller_->metrics(), trace_buf_, decisions_, &result_);
  result_.measured_accesses = result_.l1_refs;
  result_.line_accesses = result_.l1_refs;
  if (options_.traced) {
    result_.sim_apply = sim_timed_->apply;
    result_.mask_writes = sim_timed_->mask_writes;
    result_.changed_mask_writes = sim_timed_->changed_writes;
    result_.pqos_read = sim_timed_->read;
    if (resctrl_timed_ != nullptr) {
      result_.resctrl_apply = resctrl_timed_->apply;
      result_.pqos_read.Merge(resctrl_timed_->read);
    }
    result_.mon_read = monitor_timed_->read;
    if (journal_timed_ != nullptr) {
      result_.journal = journal_timed_->clock;
    }
    result_.trace_sink = writer_timed_.clock;
    result_.checker_sink = checker_timed_.clock;
  }
  result_.journal_bytes = journal_storage_.bytes_written;
  result_.journal_records = journal_storage_.records;
  result_.trace_events = writer_.lines_written();
  return std::move(result_);
}

// --- HostShard ---

HostShard::HostShard(const dcat::Scenario& scenario, const ShardOptions& options)
    : scenario_(scenario),
      options_(options),
      config_(ScenarioHostConfig(scenario, options)),
      host_(std::make_unique<dcat::Host>(config_)),
      trace_buf_(options.keep_trace),
      trace_out_(&trace_buf_),
      writer_(&trace_out_),
      checker_(CheckerOptions(host_->socket(), config_.dcat)),
      writer_timed_(&writer_),
      checker_timed_(&checker_) {
  result_.interval.keep_samples = true;
  result_.tick.keep_samples = true;
  checker_.AttachController(host_->dcat(), &host_->pqos());
  checker_.set_metrics(&host_->dcat()->metrics());
  if (options_.traced) {
    host_->AddEventSink(&writer_timed_);
    host_->AddEventSink(&checker_timed_);
  } else {
    host_->AddEventSink(&writer_);
    host_->AddEventSink(&checker_);
  }
  host_->AddEventSink(&decisions_);
  for (const dcat::TenantSetup& tenant : scenario_.initial) {
    AddTenant(tenant);
  }
}

std::unique_ptr<dcat::Workload> HostShard::MakeWorkload(const std::string& spec, uint64_t seed) {
  auto workload = dcat::MakeScenarioWorkload(spec, seed);
  if (!options_.traced) {
    return workload;
  }
  return std::make_unique<TimedWorkload>(std::move(workload), &result_.sim,
                                         &result_.line_accesses);
}

void HostShard::AddTenant(const dcat::TenantSetup& tenant) {
  const uint64_t seed = dcat::WorkloadSeed(scenario_, tenant.id);
  dcat::Vm* vm = host_->TryAddVm(dcat::VmConfig{.id = tenant.id,
                                                .name = tenant.workload,
                                                .baseline_ways = tenant.baseline_ways,
                                                .seed = seed},
                                 MakeWorkload(tenant.workload, seed));
  if (vm != nullptr) {
    checker_.RegisterTenant(tenant.id, tenant.baseline_ways);
  }
}

void HostShard::RunInterval() {
  // Churn is part of an interval's host time, as in RunScenario's loop.
  const auto churn_start = Clock::now();
  ApplyChurn(
      scenario_, interval_, &next_churn_, [&](const dcat::TenantSetup& t) { AddTenant(t); },
      [&](dcat::TenantId id) { host_->RemoveVm(id); },
      [&](dcat::TenantId id, std::unique_ptr<dcat::Workload> w) {
        if (options_.traced) {
          w = std::make_unique<TimedWorkload>(std::move(w), &result_.sim,
                                              &result_.line_accesses);
        }
        host_->SwapVmWorkload(id, std::move(w));
      });
  const double churn_s = SecondsSince(churn_start);
  const std::vector<uint32_t> masks_before = CosMasks(host_->socket());
  ++interval_;
  const double sim_before = result_.sim.seconds;
  const double sinks_before = writer_timed_.clock.seconds + checker_timed_.clock.seconds;
  const auto start = Clock::now();
  host_->Step();
  const double step_s = SecondsSince(start);
  result_.interval.Add(churn_s + step_s);
  result_.tick.Add(step_s);
  result_.ctl_s += step_s - (result_.sim.seconds - sim_before);
  result_.ctl_layers_s += writer_timed_.clock.seconds + checker_timed_.clock.seconds - sinks_before;
  if (CosMasks(host_->socket()) != masks_before) {
    ++result_.mask_change_ticks;
  }
  if (interval_ == options_.warmup_intervals) {
    StartMeasuring();
  }
}

uint64_t HostShard::l1_refs_now() const { return TotalL1Refs(host_->socket()); }

void HostShard::StartMeasuring() {
  result_.interval.Reset();
  result_.tick.Reset();
  result_.sim.Reset();
  result_.ctl_s = 0.0;
  result_.ctl_layers_s = 0.0;
  result_.line_accesses = 0;
  writer_timed_.clock.Reset();
  checker_timed_.clock.Reset();
  accesses_at_start_ = TotalL1Refs(host_->socket());
}

ShardResult HostShard::Finish() {
  FinishCommon(checker_, host_->socket(), host_->dcat()->metrics(), trace_buf_, decisions_,
               &result_);
  result_.measured_accesses = result_.l1_refs - accesses_at_start_;
  if (host_->fidelity() != nullptr) {
    result_.fidelity_coverage = host_->fidelity()->coverage();
    result_.fidelity_fallbacks = host_->fidelity()->fallback_transitions();
  }
  if (options_.traced) {
    result_.trace_sink = writer_timed_.clock;
    result_.checker_sink = checker_timed_.clock;
  }
  result_.trace_events = writer_.lines_written();
  return std::move(result_);
}

}  // namespace perfbench
