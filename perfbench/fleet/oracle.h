// The benchmark's oracle: the generated world plus the patches the
// benchmark itself acked, tiled by bounding-box overlap with its own code
// (not TileStore's), and a shortest-path search of its own. Every check
// returns an empty string on success and a description of the first
// mismatch otherwise.
#ifndef PERFBENCH_FLEET_ORACLE_H_
#define PERFBENCH_FLEET_ORACLE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/hd_map.h"
#include "core/map_patch.h"
#include "geometry/aabb.h"
#include "planning/route_planner.h"

namespace fleet {

using TileKey = std::pair<int32_t, int32_t>;

/// Element ids expected in a reply, per element class.
struct Members {
  std::set<hdmap::ElementId> landmarks, lines, areas, lanelets, regs;
};

class Oracle {
 public:
  Oracle(const hdmap::HdMap& world, std::vector<hdmap::ElementId> markers,
         double lane_change_penalty_s);

  /// Applies one acked patch to the model. Fails when the patch does more
  /// than move landmarks, moves one across tiles (the generator never does
  /// either) or names an unknown id.
  std::string Apply(const hdmap::MapPatch& patch);

  /// Tiles with content whose square intersects `box` (the tiles a
  /// GetRegion reply is stitched from).
  std::vector<TileKey> TilesInBox(const hdmap::Aabb& box) const;
  Members ForTiles(const std::vector<TileKey>& tiles) const;
  Members ForTile(const TileKey& tile) const;
  Members All() const;
  /// Every tile with content.
  std::vector<TileKey> Tiles() const;

  /// `got` must hold exactly `want`, each element equal to the model.
  std::string Compare(const hdmap::HdMap& got, const Members& want) const;
  /// Every marker in `got` must carry z == `version`.
  std::string CheckMarkers(const hdmap::HdMap& got, uint64_t version) const;
  /// `route` must run from `from` to `to` over edges of the model's lane
  /// graph, report its own cost, and cost no more than the shortest path.
  std::string CheckRoute(const hdmap::Route& route, hdmap::ElementId from,
                         hdmap::ElementId to) const;

  /// Applies a decoded delta to a held region: only landmarks the region
  /// holds are moved (membership never changes, see PatchGenerator).
  static void ApplyToHeld(const hdmap::MapPatch& patch, hdmap::HdMap* held);

  /// Feeds the checks a dropped element, a flipped marker and two wrong
  /// routes between `from` and `to`; "" only when every check rejects its
  /// bad input (and accepts the matching good one).
  std::string SelfTest(hdmap::ElementId from, hdmap::ElementId to) const;

  uint64_t version = 1;

 private:
  hdmap::HdMap Materialize(const Members& members) const;
  /// Shortest path as a Route (empty when unreachable).
  hdmap::Route ShortestRoute(hdmap::ElementId from, hdmap::ElementId to) const;
  double EffectiveSpeed(const hdmap::Lanelet& ll) const;
  /// Cost of the cheapest edge a -> b; negative when there is none.
  double EdgeCost(hdmap::ElementId a, hdmap::ElementId b) const;
  void AddToTiles(const std::vector<TileKey>& tiles, int kind,
                  hdmap::ElementId id);

  std::map<hdmap::ElementId, hdmap::Landmark> landmarks_;
  std::map<hdmap::ElementId, hdmap::LineFeature> lines_;
  std::map<hdmap::ElementId, hdmap::AreaFeature> areas_;
  std::map<hdmap::ElementId, hdmap::Lanelet> lanelets_;
  std::map<hdmap::ElementId, hdmap::RegulatoryElement> regs_;
  std::set<hdmap::ElementId> markers_;
  std::map<TileKey, Members> tiles_;
  double lane_change_penalty_s_;
};

}  // namespace fleet

#endif  // PERFBENCH_FLEET_ORACLE_H_
