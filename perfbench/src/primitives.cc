// Isolated timings of the simulator's primitives, each on a host footprint
// that fits the host's per-core L2 ("small") and one several times larger
// ("large"): the hit path of a simulated L1 and LLC, an LLC miss with
// eviction, a page-table translation, and a full Core::Access walk
// (translate, L1, L2, LLC, DRAM).
#include "perfbench/src/primitives.h"

#include <cstdint>
#include <memory>

#include "perfbench/src/layers.h"
#include "src/sim/cache.h"
#include "src/sim/execution_context.h"
#include "src/sim/geometry.h"
#include "src/sim/page_table.h"
#include "src/sim/socket.h"

namespace perfbench {
namespace {

constexpr uint64_t kLine = 64;
constexpr int kBatches = 5;

// xorshift64*: cheap enough not to dominate a 10 ns primitive.
struct FastRng {
  uint64_t state;
  uint64_t Next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1DULL;
  }
  // Uniform in [0, n) for n < 2^32.
  uint64_t Below(uint64_t n) { return ((Next() >> 32) * n) >> 32; }
};

volatile uint64_t g_sink = 0;

// Median over kBatches of the host ns per call of `op(rng)`.
template <typename Op>
double NsPerOp(uint64_t ops, uint64_t seed, Op op) {
  FastRng rng{seed | 1};
  std::vector<double> batches;
  uint64_t acc = 0;
  for (int b = 0; b < kBatches; ++b) {
    const auto start = Clock::now();
    for (uint64_t i = 0; i < ops; ++i) {
      acc += op(rng);
    }
    batches.push_back(SecondsSince(start) * 1e9 / static_cast<double>(ops));
  }
  g_sink = g_sink + acc;
  return Quantile(batches, 0.5);
}

double CacheHitNs(dcat::SetAssociativeCache& cache, uint64_t lines, uint64_t ops, uint64_t seed) {
  const uint32_t full = cache.FullWayMask();
  for (uint64_t line = 0; line < lines; ++line) {
    cache.Access(line * kLine, full);
  }
  return NsPerOp(ops, seed, [&](FastRng& rng) {
    return static_cast<uint64_t>(cache.Access(rng.Below(lines) * kLine, full).hit);
  });
}

// Every access carries a never-seen tag into one of `sets` sets, so it
// misses and (once the sets are full) evicts.
double CacheMissNs(dcat::SetAssociativeCache& cache, uint64_t sets, uint64_t ops, uint64_t seed) {
  const uint32_t full = cache.FullWayMask();
  const uint64_t num_sets = cache.geometry().num_sets;
  uint64_t tag = 0;
  auto miss = [&](FastRng& rng) {
    const uint64_t line = (++tag) * num_sets + rng.Below(sets);
    return static_cast<uint64_t>(cache.Access(line * kLine, full).evicted);
  };
  FastRng warm{seed ^ 0x77};
  for (uint64_t i = 0; i < sets * cache.geometry().num_ways * 2; ++i) {
    miss(warm);
  }
  return NsPerOp(ops, seed, miss);
}

double TranslateNs(uint64_t pages, uint64_t ops, uint64_t seed) {
  dcat::PageTable table(dcat::PagePolicy::kRandom4K, 4ull << 30, seed);
  for (uint64_t page = 0; page < pages; ++page) {
    table.Translate(page << 12);
  }
  return NsPerOp(ops, seed, [&](FastRng& rng) {
    return table.Translate((rng.Below(pages) << 12) | (rng.Next() & 0xfc0));
  });
}

double WalkNs(dcat::Socket& socket, uint64_t footprint_bytes, uint64_t ops, uint64_t seed) {
  dcat::PageTable table(dcat::PagePolicy::kRandom4K, 4ull << 30, seed);
  dcat::ExecutionContext ctx(&socket.core(0), &table);
  const uint64_t lines = footprint_bytes / kLine;
  for (uint64_t line = 0; line < lines; ++line) {
    ctx.Read(line * kLine);
  }
  return NsPerOp(ops, seed, [&](FastRng& rng) {
    return static_cast<uint64_t>(ctx.Read(rng.Below(lines) * kLine));
  });
}

}  // namespace

std::vector<Primitive> MeasurePrimitives(uint64_t seed, double scale) {
  auto ops = [&](double n) { return static_cast<uint64_t>(n * scale) + 1000; };
  std::vector<Primitive> out;

  dcat::SetAssociativeCache l1(dcat::L1dGeometry());
  out.push_back({"cache.l1_hit_ns.small", CacheHitNs(l1, 16 * 1024 / kLine, ops(4e5), seed)});
  {
    // A thousand private L1s (about 14 MiB of model state): the same hit
    // path with every lookup missing the host's L2.
    std::vector<dcat::SetAssociativeCache> l1s(1024, dcat::SetAssociativeCache(
                                                        dcat::L1dGeometry()));
    const uint64_t lines = 16 * 1024 / kLine;
    for (auto& cache : l1s) {
      for (uint64_t line = 0; line < lines; ++line) {
        cache.Access(line * kLine, cache.FullWayMask());
      }
    }
    out.push_back({"cache.l1_hit_ns.large", NsPerOp(ops(2e5), seed, [&](FastRng& rng) {
                     auto& cache = l1s[rng.Below(l1s.size())];
                     return static_cast<uint64_t>(
                         cache.Access(rng.Below(lines) * kLine, cache.FullWayMask()).hit);
                   })});
  }
  {
    dcat::SetAssociativeCache llc(dcat::XeonE5LlcGeometry(), dcat::ReplacementKind::kNru);
    out.push_back(
        {"cache.llc_hit_ns.small", CacheHitNs(llc, 256 * 1024 / kLine, ops(4e5), seed)});
  }
  {
    dcat::SetAssociativeCache llc(dcat::XeonE5LlcGeometry(), dcat::ReplacementKind::kNru);
    out.push_back(
        {"cache.llc_hit_ns.large", CacheHitNs(llc, (40ull << 20) / kLine, ops(2e5), seed)});
  }
  {
    dcat::SetAssociativeCache llc(dcat::XeonE5LlcGeometry(), dcat::ReplacementKind::kNru);
    out.push_back({"cache.llc_miss_ns.small", CacheMissNs(llc, 16, ops(4e5), seed)});
  }
  {
    dcat::SetAssociativeCache llc(dcat::XeonE5LlcGeometry(), dcat::ReplacementKind::kNru);
    out.push_back({"cache.llc_miss_ns.large",
                   CacheMissNs(llc, llc.geometry().num_sets, ops(2e5), seed)});
  }
  out.push_back({"pagetable.translate_ns.small", TranslateNs(64, ops(4e5), seed)});
  out.push_back({"pagetable.translate_ns.large", TranslateNs(1 << 18, ops(2e5), seed)});
  {
    dcat::Socket socket(dcat::SocketConfig::XeonE5());
    out.push_back({"core.walk_ns.small", WalkNs(socket, 16 * 1024, ops(4e5), seed)});
  }
  {
    dcat::Socket socket(dcat::SocketConfig::XeonE5());
    out.push_back({"core.walk_ns.large", WalkNs(socket, 64ull << 20, ops(1e5), seed)});
  }
  return out;
}

}  // namespace perfbench
