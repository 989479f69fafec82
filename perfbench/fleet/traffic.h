// The two-node cluster and the closed-loop traffic that drives it: read
// threads (one NetClient connection each, plus in-process MatchToLane and
// Route on the leader) and one writer staging and publishing patches.
#ifndef PERFBENCH_FLEET_TRAFFIC_H_
#define PERFBENCH_FLEET_TRAFFIC_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/map_patch.h"
#include "core/tile_store.h"
#include "fleet/bench_util.h"
#include "fleet/world.h"
#include "planning/route_planner.h"
#include "replication/node.h"
#include "service/map_service.h"

namespace fleet {

/// Service options shared by both nodes, the recovery restarts and the
/// standalone replay service: 100 m tiles, durability with fsync on every
/// write, a checkpoint every kCheckpointEvery publishes.
hdmap::MapService::Options ServiceOptions(const std::string& data_dir);

/// A leader and one follower on loopback, semi-sync ack from 1 replica.
struct Cluster {
  std::unique_ptr<hdmap::ReplicationNode> leader;
  std::unique_ptr<hdmap::ReplicationNode> follower;
  std::string leader_dir;
  std::string follower_dir;
};

hdmap::Status StartCluster(const World& world, const std::string& work_dir,
                           Cluster* cluster);

struct TileSample {
  hdmap::TileId tile;
  uint64_t version = 0;
  std::shared_ptr<const std::string> payload;
};
struct RegionSample {
  hdmap::Aabb box;
  uint64_t version = 0;
  std::shared_ptr<const std::string> payload;
};
/// A held region (full fetch at `base_version`) plus the delta replies
/// applied to it since, which together claim version `reached`.
struct DeltaSample {
  hdmap::Aabb box;
  uint64_t reached = 0;
  std::shared_ptr<const std::string> base;
  std::vector<std::shared_ptr<const std::string>> deltas;
};
struct RouteSample {
  hdmap::ElementId from = 0;
  hdmap::ElementId to = 0;
  hdmap::Route route;
  uint64_t version_before = 0;
  uint64_t version_after = 0;
};

/// Latencies of one measured phase.
struct OpTimes {
  Series tile_us, region_us, sync_us, match_us, route_us;
  std::vector<double> stats_ms;
  uint64_t tile_bytes = 0, region_bytes = 0, sync_bytes = 0;
};

/// What one read thread measured and kept for the checks.
struct ReaderResult {
  /// [0] = untraced measured phase, [1] = traced phase (trace mode only).
  OpTimes phase[2];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<TileSample> tiles;
  std::vector<RegionSample> regions;
  std::vector<DeltaSample> deltas;
  std::vector<RouteSample> routes;
  /// Failures of the checks made on the spot (match result, version order).
  std::vector<std::string> errors;
  std::unique_ptr<SpanBuffer> spans;
};

struct WriterResult {
  Series ack_us;
  Series publish_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t acked = 0;
  uint64_t publishes = 0;
  /// Patches behind each published version (version 2 onwards).
  std::map<uint64_t, std::vector<hdmap::MapPatch>> batches;
  std::vector<std::string> errors;
  std::unique_ptr<SpanBuffer> spans;
};

/// Phases the load threads move through; only kMeasure* phases record.
enum Phase : int { kWarmup = 0, kMeasure = 1, kMeasureTraced = 2, kStop = 3 };

struct TrafficEnv {
  const WorkloadSpec* spec = nullptr;
  const World* world = nullptr;
  Cluster* cluster = nullptr;
  std::vector<hdmap::TileId> tiles;  ///< Every tile with content.
  uint64_t seed = 0;
  std::atomic<int> phase{kWarmup};
  /// Start of the measured phase, set before phase leaves kWarmup.
  std::atomic<int64_t> measure_start_ns{0};
  float SinceStart(Clock::time_point t) const {
    return static_cast<float>(
        static_cast<double>(t.time_since_epoch().count() - measure_start_ns.load()) * 1e-9);
  }
};

/// Runs until env.phase == kStop; `result` is filled by the time it returns.
void RunReader(TrafficEnv& env, int index, ReaderResult* result);
/// Same, for the writer; finishes with the end-of-run publishes, so the
/// last publish writes a checkpoint and nothing is left staged.
void RunWriter(TrafficEnv& env, WriterResult* result);

}  // namespace fleet

#endif  // PERFBENCH_FLEET_TRAFFIC_H_
