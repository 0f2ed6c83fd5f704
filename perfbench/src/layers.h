// Timing decorators the benchmark wraps around the dCat layer interfaces.
//
// Every per-layer number is measured from outside the program: each class
// here implements one public interface (CatController, MonitoringProvider,
// ControllerJournal, JournalStorage, EventSink, Workload), forwards every
// call to the real implementation, and charges the call's host time to a
// LayerClock. Nothing under src/ knows these exist.
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <streambuf>
#include <string>
#include <type_traits>
#include <vector>

#include "src/core/controller_state.h"
#include "src/pqos/pqos.h"
#include "src/recovery/journal.h"
#include "src/telemetry/events.h"
#include "src/workloads/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Busy time and call count of one layer; optionally every call's latency.
struct LayerClock {
  double seconds = 0.0;
  uint64_t calls = 0;
  bool keep_samples = false;
  std::vector<double> samples;  // seconds per call, when keep_samples

  void Add(double s) {
    seconds += s;
    ++calls;
    if (keep_samples) {
      samples.push_back(s);
    }
  }
  void Reset() {
    seconds = 0.0;
    calls = 0;
    samples.clear();
  }
  void Merge(const LayerClock& other) {
    seconds += other.seconds;
    calls += other.calls;
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
  }
};

// Charges the enclosing scope to a clock.
class Span {
 public:
  explicit Span(LayerClock* clock) : clock_(clock), start_(Clock::now()) {}
  ~Span() { clock_->Add(SecondsSince(start_)); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerClock* clock_;
  Clock::time_point start_;
};

// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

// Stream buffer for the JSONL trace: hashes every byte (the digest does
// not depend on where the writer flushes), counts them, and keeps the text
// only when asked — long runs cannot hold their whole trace in memory.
class TraceDigestBuf : public std::streambuf {
 public:
  explicit TraceDigestBuf(bool keep) : keep_(keep) { setp(buf_, buf_ + sizeof(buf_)); }

  uint64_t digest() {
    Drain();
    return Mix(hash_ ^ carry_ ^ (static_cast<uint64_t>(carry_len_) << 56));
  }
  uint64_t bytes() {
    Drain();
    return bytes_;
  }
  std::string kept() {
    Drain();
    return kept_;
  }

 protected:
  int_type overflow(int_type c) override {
    Drain();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }
  int sync() override {
    Drain();
    return 0;
  }

 private:
  static uint64_t Mix(uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
  }
  void Drain() {
    const size_t n = static_cast<size_t>(pptr() - pbase());
    for (size_t i = 0; i < n; ++i) {
      carry_ |= static_cast<uint64_t>(static_cast<uint8_t>(buf_[i])) << (8 * carry_len_);
      if (++carry_len_ == 8) {
        hash_ = Mix(hash_ ^ carry_) * 0x9e3779b97f4a7c15ULL;
        carry_ = 0;
        carry_len_ = 0;
      }
    }
    bytes_ += n;
    if (keep_) {
      kept_.append(buf_, n);
    }
    setp(buf_, buf_ + sizeof(buf_));
  }

  bool keep_;
  char buf_[4096];
  uint64_t hash_ = 0x243f6a8885a308d3ULL;
  uint64_t carry_ = 0;
  uint32_t carry_len_ = 0;
  uint64_t bytes_ = 0;
  std::string kept_;
};

// CatController decorator. Writes (mask programming, core association) are
// the apply side; every other call is a read. `changed_writes` counts the
// mask writes that changed the backend's state.
class TimedCat : public dcat::CatController {
 public:
  explicit TimedCat(dcat::CatController* inner) : inner_(inner) { apply.keep_samples = true; }

  uint32_t NumWays() const override { return Read([&] { return inner_->NumWays(); }); }
  uint8_t NumCos() const override { return Read([&] { return inner_->NumCos(); }); }
  uint16_t NumCores() const override { return Read([&] { return inner_->NumCores(); }); }
  uint64_t WayCapacityBytes() const override {
    return Read([&] { return inner_->WayCapacityBytes(); });
  }
  uint32_t GetCosMask(uint8_t cos) const override {
    return Read([&] { return inner_->GetCosMask(cos); });
  }
  uint8_t GetCoreAssociation(uint16_t core) const override {
    return Read([&] { return inner_->GetCoreAssociation(core); });
  }

  dcat::PqosStatus SetCosMask(uint8_t cos, uint32_t mask) override {
    CountWrite(cos, mask);
    Span span(&apply);
    return inner_->SetCosMask(cos, mask);
  }
  dcat::PqosStatus ApplyMaskBatch(const std::vector<dcat::CosMaskUpdate>& updates,
                                  size_t* applied) override {
    for (const dcat::CosMaskUpdate& u : updates) {
      CountWrite(u.cos, u.mask);
    }
    Span span(&apply);
    return inner_->ApplyMaskBatch(updates, applied);
  }
  dcat::PqosStatus AssociateCore(uint16_t core, uint8_t cos) override {
    Span span(&apply);
    return inner_->AssociateCore(core, cos);
  }

  LayerClock apply;
  mutable LayerClock read;
  uint64_t mask_writes = 0;
  uint64_t changed_writes = 0;

 private:
  template <typename F>
  std::invoke_result_t<F> Read(F f) const {
    Span span(&read);
    return f();
  }
  // The comparison read goes to the inner backend untimed.
  void CountWrite(uint8_t cos, uint32_t mask) {
    ++mask_writes;
    if (inner_->GetCosMask(cos) != mask) {
      ++changed_writes;
    }
  }

  dcat::CatController* inner_;
};

// Writes go to both backends (`primary` first); reads come back from
// `secondary`. With a SimPqos primary and a fake-tree ResctrlPqos secondary
// the simulation stays the source of truth while every decision also pays
// the resctrl file-system round trip.
class TeeCat : public dcat::CatController {
 public:
  TeeCat(dcat::CatController* primary, dcat::CatController* secondary)
      : primary_(primary), secondary_(secondary) {}

  uint32_t NumWays() const override { return secondary_->NumWays(); }
  uint8_t NumCos() const override { return secondary_->NumCos(); }
  uint16_t NumCores() const override { return secondary_->NumCores(); }
  uint64_t WayCapacityBytes() const override { return secondary_->WayCapacityBytes(); }
  uint32_t GetCosMask(uint8_t cos) const override { return secondary_->GetCosMask(cos); }
  uint8_t GetCoreAssociation(uint16_t core) const override {
    return secondary_->GetCoreAssociation(core);
  }
  dcat::PqosStatus SetCosMask(uint8_t cos, uint32_t mask) override {
    const dcat::PqosStatus status = primary_->SetCosMask(cos, mask);
    return status != dcat::PqosStatus::kOk ? status : secondary_->SetCosMask(cos, mask);
  }
  dcat::PqosStatus ApplyMaskBatch(const std::vector<dcat::CosMaskUpdate>& updates,
                                  size_t* applied) override {
    size_t landed = 0;
    dcat::PqosStatus status = primary_->ApplyMaskBatch(updates, &landed);
    if (status == dcat::PqosStatus::kOk) {
      status = secondary_->ApplyMaskBatch(updates, &landed);
    }
    if (applied != nullptr) {
      *applied = landed;
    }
    return status;
  }
  dcat::PqosStatus AssociateCore(uint16_t core, uint8_t cos) override {
    const dcat::PqosStatus status = primary_->AssociateCore(core, cos);
    return status != dcat::PqosStatus::kOk ? status : secondary_->AssociateCore(core, cos);
  }

 private:
  dcat::CatController* primary_;
  dcat::CatController* secondary_;
};

// MonitoringProvider decorator: every counter / occupancy / bandwidth read.
class TimedMonitor : public dcat::MonitoringProvider {
 public:
  explicit TimedMonitor(const dcat::MonitoringProvider* inner) : inner_(inner) {}

  dcat::PerfCounterBlock ReadCounters(uint16_t core) const override {
    Span span(&read);
    return inner_->ReadCounters(core);
  }
  uint64_t LlcOccupancyBytes(uint8_t cos) const override {
    Span span(&read);
    return inner_->LlcOccupancyBytes(cos);
  }
  uint64_t MemoryBandwidthBytes(uint8_t cos) const override {
    Span span(&read);
    return inner_->MemoryBandwidthBytes(cos);
  }
  dcat::PqosStatus ReadLlcOccupancy(uint8_t cos, uint64_t* bytes) const override {
    Span span(&read);
    return inner_->ReadLlcOccupancy(cos, bytes);
  }
  dcat::PqosStatus ReadMemoryBandwidth(uint8_t cos, uint64_t* bytes) const override {
    Span span(&read);
    return inner_->ReadMemoryBandwidth(cos, bytes);
  }

  mutable LayerClock read;

 private:
  const dcat::MonitoringProvider* inner_;
};

// ControllerJournal decorator: record encoding, framing and storage.
class TimedJournal : public dcat::ControllerJournal {
 public:
  explicit TimedJournal(dcat::ControllerJournal* inner) : inner_(inner) {}

  void OnContractChange(const dcat::ControllerPersistentState& state) override {
    Span span(&clock);
    inner_->OnContractChange(state);
  }
  void OnDecision(const dcat::ControllerPersistentState& state,
                  const dcat::DecisionIntent& intent) override {
    Span span(&clock);
    inner_->OnDecision(state, intent);
  }
  void OnRecovered(const dcat::ControllerPersistentState& state) override {
    Span span(&clock);
    inner_->OnRecovered(state);
  }

  LayerClock clock;

 private:
  dcat::ControllerJournal* inner_;
};

// In-memory journal storage that counts the bytes the journal persisted.
class CountingJournalStorage : public dcat::MemoryJournalStorage {
 public:
  bool Append(const void* data, size_t size) override {
    bytes_written += size;
    ++records;
    return MemoryJournalStorage::Append(data, size);
  }
  bool Rewrite(const void* data, size_t size) override {
    bytes_written += size;
    ++records;
    return MemoryJournalStorage::Rewrite(data, size);
  }

  uint64_t bytes_written = 0;
  uint64_t records = 0;
};

// EventSink decorator: the host time one consumer of the decision stream
// spends per event.
class TimedSink : public dcat::EventSink {
 public:
  explicit TimedSink(dcat::EventSink* inner) : inner_(inner) {}

  void OnTick(const dcat::TickEvent& e) override { Call([&] { inner_->OnTick(e); }); }
  void OnPhaseChange(const dcat::PhaseChangeEvent& e) override {
    Call([&] { inner_->OnPhaseChange(e); });
  }
  void OnCategoryChange(const dcat::CategoryChangeEvent& e) override {
    Call([&] { inner_->OnCategoryChange(e); });
  }
  void OnAllocation(const dcat::AllocationEvent& e) override {
    Call([&] { inner_->OnAllocation(e); });
  }
  void OnBackendFault(const dcat::BackendFaultEvent& e) override {
    Call([&] { inner_->OnBackendFault(e); });
  }
  void OnMaskDrift(const dcat::MaskDriftEvent& e) override {
    Call([&] { inner_->OnMaskDrift(e); });
  }
  void OnCounterAnomaly(const dcat::CounterAnomalyEvent& e) override {
    Call([&] { inner_->OnCounterAnomaly(e); });
  }
  void OnFidelity(const dcat::FidelityEvent& e) override { Call([&] { inner_->OnFidelity(e); }); }
  void OnModeChange(const dcat::ModeChangeEvent& e) override {
    Call([&] { inner_->OnModeChange(e); });
  }
  void OnRestart(const dcat::RestartEvent& e) override { Call([&] { inner_->OnRestart(e); }); }
  void OnRecovery(const dcat::RecoveryEvent& e) override { Call([&] { inner_->OnRecovery(e); }); }

  LayerClock clock;

 private:
  template <typename F>
  void Call(F f) {
    Span span(&clock);
    f();
  }

  dcat::EventSink* inner_;
};

// Counts the controller decisions the per-layer report names.
class DecisionCounter : public dcat::EventSink {
 public:
  void OnPhaseChange(const dcat::PhaseChangeEvent&) override { ++phase_changes; }
  void OnAllocation(const dcat::AllocationEvent&) override { ++allocations; }

  uint64_t phase_changes = 0;
  uint64_t allocations = 0;
};

// Workload decorator: the line-level simulation a workload drives through
// its ExecutionContext (Execute), and the exact L1 references it issued.
// Used where the harness cannot reach Vm::RunUntil (Host-owned VMs).
class TimedWorkload : public dcat::Workload {
 public:
  TimedWorkload(std::unique_ptr<dcat::Workload> inner, LayerClock* clock, uint64_t* accesses)
      : inner_(std::move(inner)), clock_(clock), accesses_(accesses) {}

  std::string name() const override { return inner_->name(); }
  uint32_t num_vcpus() const override { return inner_->num_vcpus(); }
  void Execute(dcat::ExecutionContext& ctx, uint32_t vcpu, uint64_t instructions) override {
    const uint64_t before = ctx.core().counters().l1_references;
    {
      Span span(clock_);
      inner_->Execute(ctx, vcpu, instructions);
    }
    *accesses_ += ctx.core().counters().l1_references - before;
  }
  void ResetMetrics() override { inner_->ResetMetrics(); }
  uint64_t SteadyHorizon(uint32_t vcpu) const override { return inner_->SteadyHorizon(vcpu); }
  void SkipInstructions(uint32_t vcpu, uint64_t instructions) override {
    inner_->SkipInstructions(vcpu, instructions);
  }

 private:
  std::unique_ptr<dcat::Workload> inner_;
  LayerClock* clock_;
  uint64_t* accesses_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
