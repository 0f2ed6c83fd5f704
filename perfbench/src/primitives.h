// Isolated host-time costs of the simulator's primitives (src/sim).
#ifndef PERFBENCH_SRC_PRIMITIVES_H_
#define PERFBENCH_SRC_PRIMITIVES_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Primitive {
  std::string name;  // e.g. "cache.llc_hit_ns.large"
  double ns = 0.0;   // median host ns per call
};

// Ten timings: cache.l1_hit_ns, cache.llc_hit_ns, cache.llc_miss_ns,
// pagetable.translate_ns and core.walk_ns, each ".small" (model state that
// fits the host's per-core L2) and ".large" (several times larger). `scale`
// shrinks the operation counts for smoke runs.
std::vector<Primitive> MeasurePrimitives(uint64_t seed, double scale);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PRIMITIVES_H_
