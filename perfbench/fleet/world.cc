#include "fleet/world.h"

#include <algorithm>
#include <cmath>

#include "sim/road_network_generator.h"

namespace fleet {

using hdmap::ElementId;
using hdmap::HdMap;
using hdmap::MapPatch;
using hdmap::Vec2;
using hdmap::Vec3;

namespace {

constexpr double kBlockM = 150.0;

// Town sizes: with 100 m tiles, an 8x8 grid of 150 m blocks covers 144
// tiles (inside the 256-entry tile cache); a 20x20 grid covers 900.
// Paced writers run well below what the cluster sustains, so every run
// publishes the same number of versions whatever the disk does.
const WorkloadSpec kWorkloads[] = {
    {.name = "city_commute", .grid = 8, .held = 4, .patch_interval_s = 0.025},
    {.name = "fleet_sync", .grid = 20, .held = 8, .patch_interval_s = 0.0625},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Vec2 MidPoint(const hdmap::Lanelet& lanelet) {
  return lanelet.centerline.PointAt(lanelet.centerline.Length() / 2.0);
}

hdmap::Result<World> MakeWorld(const WorkloadSpec& spec, uint64_t seed) {
  hdmap::TownOptions town;
  town.grid_rows = spec.grid;
  town.grid_cols = spec.grid;
  town.block_size = kBlockM;
  hdmap::Rng rng(seed, 0x70776e);
  HDMAP_ASSIGN_OR_RETURN(HdMap map, hdmap::GenerateTown(town, rng));

  World world;
  world.extent_m = (spec.grid - 1) * kBlockM;
  ElementId next_id = 1;
  for (const auto& [id, lm] : map.landmarks()) next_id = std::max(next_id, id + 1);
  for (const auto& [id, lf] : map.line_features()) next_id = std::max(next_id, id + 1);
  for (const auto& [id, af] : map.area_features()) next_id = std::max(next_id, id + 1);
  for (const auto& [id, ll] : map.lanelets()) {
    next_id = std::max(next_id, id + 1);
    if (ll.bundle_id != hdmap::kInvalidId) {
      world.road_lanelets.push_back(id);
      world.road_midpoints.push_back(MidPoint(ll));
    }
  }
  for (const auto& [id, reg] : map.regulatory_elements()) next_id = std::max(next_id, id + 1);
  for (const auto& [id, lm] : map.landmarks()) world.movable_landmarks.push_back(id);
  next_id = std::max<ElementId>(next_id, 1000000000);

  // Markers sit at tile centres so they stay in their tile; z carries the
  // version of the last publish that moved them (1 = the initial map).
  for (int i = 0; i < kMarkerGrid; ++i) {
    for (int j = 0; j < kMarkerGrid; ++j) {
      double fx = (i + 0.5) / kMarkerGrid * world.extent_m;
      double fy = (j + 0.5) / kMarkerGrid * world.extent_m;
      hdmap::Landmark marker;
      marker.id = next_id++;
      marker.type = hdmap::LandmarkType::kPole;
      marker.subtype = "version_marker";
      marker.position = Vec3((TileIndex(fx) + 0.5) * kTileSizeM,
                             (TileIndex(fy) + 0.5) * kTileSizeM, 1.0);
      world.markers.push_back(marker.id);
      HDMAP_RETURN_IF_ERROR(map.AddLandmark(std::move(marker)));
    }
  }
  world.map = std::move(map);
  return world;
}

PatchGenerator::PatchGenerator(const World& world, uint64_t seed)
    : world_(world), rng_(seed, 0x706174), model_(world.map) {}

MapPatch PatchGenerator::Next() {
  const auto& ids = world_.movable_landmarks;
  ElementId id = ids[rng_.NextU32() % ids.size()];
  const hdmap::Landmark* lm = model_.FindLandmark(id);
  Vec2 old = lm->position.xy();
  Vec2 d{rng_.Uniform() * 2.0 - 1.0, rng_.Uniform() * 2.0 - 1.0};
  auto same_tile = [&](const Vec2& p) {
    return TileIndex(p.x) == TileIndex(old.x) && TileIndex(p.y) == TileIndex(old.y);
  };
  Vec2 moved = old + d;
  if (!same_tile(moved)) moved = old - d;
  if (!same_tile(moved)) moved = old;
  MapPatch patch;
  patch.moved_landmarks.push_back(
      {id, Vec3(moved, lm->position.z + (rng_.Uniform() - 0.5) * 0.1)});
  (void)hdmap::ApplyPatch(patch, &model_);
  return patch;
}

MapPatch PatchGenerator::Markers(uint64_t version) {
  MapPatch patch;
  for (ElementId id : world_.markers) {
    const hdmap::Landmark* lm = model_.FindLandmark(id);
    patch.moved_landmarks.push_back(
        {id, Vec3(lm->position.x, lm->position.y, static_cast<double>(version))});
  }
  (void)hdmap::ApplyPatch(patch, &model_);
  return patch;
}

}  // namespace fleet
