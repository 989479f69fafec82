// The traced run's per-layer split: replays a sample of the workload's
// traffic directly against each module's public functions, timing every
// call with the benchmark's own spans, and folds the leader's counters
// over the measured phase into ratios.
#ifndef PERFBENCH_FLEET_LAYERS_H_
#define PERFBENCH_FLEET_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fleet/bench_util.h"
#include "fleet/traffic.h"
#include "fleet/world.h"

namespace fleet {

/// Counter values of the leader's MetricsRegistry that the ratios use.
using CounterSet = std::map<std::string, uint64_t>;
CounterSet ReadCounters(hdmap::MetricsRegistry& registry);

struct LayerInputs {
  const World* world = nullptr;
  Cluster* cluster = nullptr;
  const std::vector<ReaderResult>* readers = nullptr;
  const WriterResult* writer = nullptr;
  std::string work_dir;
  /// Leader counters at the start and end of the measured phase.
  CounterSet before, after;
};

/// Appends every per-layer metric to `out`; replay failures go to `errors`.
void MeasureLayers(const LayerInputs& in, SpanBuffer* spans, MetricList* out,
                   std::vector<std::string>* errors);

}  // namespace fleet

#endif  // PERFBENCH_FLEET_LAYERS_H_
