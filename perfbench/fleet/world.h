// Workload definitions and the seeded inputs they run on: the town, the
// version-marker landmarks, lane/route candidates and the patch generator.
#ifndef PERFBENCH_FLEET_WORLD_H_
#define PERFBENCH_FLEET_WORLD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/hd_map.h"
#include "core/map_patch.h"

namespace fleet {

/// Edge of one tile on both nodes, metres.
inline constexpr double kTileSizeM = 100.0;
/// Every Nth publish writes a checkpoint (both nodes). Rare enough that
/// the paced writers keep their schedule through the checkpoint fsyncs.
inline constexpr uint32_t kCheckpointEvery = 32;
/// Version-marker landmarks: a 4x4 grid of tiles across the town.
inline constexpr int kMarkerGrid = 4;
/// Closed-loop read threads (one connection each), capped at nproc - 1 so
/// the writer keeps a core.
inline constexpr int kReaders = 2;
/// Content patches per publish, plus the batch's marker patch.
inline constexpr int kBatch = 4;

struct WorkloadSpec {
  std::string name;
  int grid = 8;               ///< Town intersections per side (150 m blocks).
  int held = 4;               ///< Regions each reader holds and re-syncs.
  double patch_interval_s = 0.025;  ///< The writer stages one patch per interval.
};

/// The traffic mixes; null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The generated world plus what the load threads pick from.
struct World {
  hdmap::HdMap map;
  /// Marker landmark ids; each published batch moves them to z = version.
  std::vector<hdmap::ElementId> markers;
  /// Lanelets that belong to a road segment (not intersection connectors):
  /// route endpoints and MatchToLane probes.
  std::vector<hdmap::ElementId> road_lanelets;
  std::vector<hdmap::Vec2> road_midpoints;  ///< Parallel to road_lanelets.
  std::vector<hdmap::ElementId> movable_landmarks;
  double extent_m = 0.0;
};

hdmap::Result<World> MakeWorld(const WorkloadSpec& spec, uint64_t seed);

/// Point halfway along a lanelet's centreline.
hdmap::Vec2 MidPoint(const hdmap::Lanelet& lanelet);

/// Tile index of a coordinate (floor division by kTileSizeM).
inline int32_t TileIndex(double v) {
  return static_cast<int32_t>(std::floor(v / kTileSizeM));
}

/// Generates valid patches against a model of the acked map: landmark
/// moves that keep each landmark inside its tile, so tile membership never
/// changes and a delta can be applied to a held region.
class PatchGenerator {
 public:
  PatchGenerator(const World& world, uint64_t seed);
  /// One landmark move, generated against and then applied to the model.
  hdmap::MapPatch Next();
  /// The patch that moves every marker to z = `version`.
  hdmap::MapPatch Markers(uint64_t version);

 private:
  const World& world_;
  hdmap::Rng rng_;
  hdmap::HdMap model_;
};

}  // namespace fleet

#endif  // PERFBENCH_FLEET_WORLD_H_
