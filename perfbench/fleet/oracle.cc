#include "fleet/oracle.h"

#include <cmath>
#include <limits>
#include <queue>
#include <unordered_map>

#include "fleet/world.h"

namespace fleet {

using hdmap::ElementId;
using hdmap::HdMap;
using hdmap::Vec2;

namespace {

enum Kind { kLandmark, kLine, kArea, kLanelet, kReg };

std::vector<TileKey> TilesOfPoints(const std::vector<Vec2>& points) {
  std::vector<TileKey> out;
  if (points.empty()) return out;
  int32_t x0 = INT32_MAX, y0 = INT32_MAX, x1 = INT32_MIN, y1 = INT32_MIN;
  for (const Vec2& p : points) {
    x0 = std::min(x0, TileIndex(p.x));
    y0 = std::min(y0, TileIndex(p.y));
    x1 = std::max(x1, TileIndex(p.x));
    y1 = std::max(y1, TileIndex(p.y));
  }
  for (int32_t x = x0; x <= x1; ++x) {
    for (int32_t y = y0; y <= y1; ++y) out.emplace_back(x, y);
  }
  return out;
}

double PolylineLength(const std::vector<Vec2>& pts) {
  double len = 0.0;
  for (size_t i = 1; i < pts.size(); ++i) {
    len += std::hypot(pts[i].x - pts[i - 1].x, pts[i].y - pts[i - 1].y);
  }
  return len;
}

bool SamePoints(const std::vector<Vec2>& a, const std::vector<Vec2>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].x != b[i].x || a[i].y != b[i].y) return false;
  }
  return true;
}

std::string Id(const char* what, ElementId id) {
  return std::string(what) + " " + std::to_string(id);
}

template <typename M>
auto& Slot(M& m, int kind) {
  switch (kind) {
    case kLandmark: return m.landmarks;
    case kLine: return m.lines;
    case kArea: return m.areas;
    case kLanelet: return m.lanelets;
    default: return m.regs;
  }
}

void Merge(Members& into, const Members& from) {
  for (int k = kLandmark; k <= kReg; ++k) {
    const std::set<ElementId>& src = Slot(from, k);
    Slot(into, k).insert(src.begin(), src.end());
  }
}

}  // namespace

Oracle::Oracle(const HdMap& world, std::vector<ElementId> markers,
               double lane_change_penalty_s)
    : landmarks_(world.landmarks()),
      lines_(world.line_features()),
      areas_(world.area_features()),
      lanelets_(world.lanelets()),
      regs_(world.regulatory_elements()),
      markers_(markers.begin(), markers.end()),
      lane_change_penalty_s_(lane_change_penalty_s) {
  for (const auto& [id, lm] : landmarks_) {
    AddToTiles(TilesOfPoints({lm.position.xy()}), kLandmark, id);
  }
  for (const auto& [id, lf] : lines_) {
    AddToTiles(TilesOfPoints(lf.geometry.points()), kLine, id);
  }
  for (const auto& [id, af] : areas_) {
    AddToTiles(TilesOfPoints(af.geometry.vertices()), kArea, id);
  }
  for (const auto& [id, ll] : lanelets_) {
    AddToTiles(TilesOfPoints(ll.centerline.points()), kLanelet, id);
  }
  // A regulatory element rides in every tile of every lanelet it names.
  for (const auto& [id, reg] : regs_) {
    for (ElementId ll_id : reg.lanelet_ids) {
      auto it = lanelets_.find(ll_id);
      if (it == lanelets_.end()) continue;
      AddToTiles(TilesOfPoints(it->second.centerline.points()), kReg, id);
    }
  }
}

void Oracle::AddToTiles(const std::vector<TileKey>& tiles, int kind,
                        ElementId id) {
  for (const TileKey& t : tiles) Slot(tiles_[t], kind).insert(id);
}

std::string Oracle::Apply(const hdmap::MapPatch& patch) {
  if (patch.NumChanges() != patch.moved_landmarks.size()) {
    return "patch changes more than landmark positions";
  }
  for (const hdmap::MapPatch::Move& mv : patch.moved_landmarks) {
    auto it = landmarks_.find(mv.id);
    if (it == landmarks_.end()) return "move of unknown " + Id("landmark", mv.id);
    if (TilesOfPoints({it->second.position.xy()}) != TilesOfPoints({mv.new_position.xy()})) {
      return "move changes the tile of " + Id("landmark", mv.id);
    }
    it->second.position = mv.new_position;
  }
  return "";
}

std::vector<TileKey> Oracle::TilesInBox(const hdmap::Aabb& box) const {
  std::vector<TileKey> out;
  if (box.IsEmpty()) return out;
  for (int32_t x = TileIndex(box.min.x); x <= TileIndex(box.max.x); ++x) {
    for (int32_t y = TileIndex(box.min.y); y <= TileIndex(box.max.y); ++y) {
      if (tiles_.count({x, y}) > 0) out.emplace_back(x, y);
    }
  }
  return out;
}

Members Oracle::ForTiles(const std::vector<TileKey>& tiles) const {
  Members out;
  for (const TileKey& t : tiles) {
    auto it = tiles_.find(t);
    if (it != tiles_.end()) Merge(out, it->second);
  }
  return out;
}

Members Oracle::ForTile(const TileKey& tile) const { return ForTiles({tile}); }

std::vector<TileKey> Oracle::Tiles() const {
  std::vector<TileKey> out;
  for (const auto& [key, members] : tiles_) out.push_back(key);
  return out;
}

Members Oracle::All() const {
  Members out;
  for (const auto& [id, e] : landmarks_) out.landmarks.insert(id);
  for (const auto& [id, e] : lines_) out.lines.insert(id);
  for (const auto& [id, e] : areas_) out.areas.insert(id);
  for (const auto& [id, e] : lanelets_) out.lanelets.insert(id);
  for (const auto& [id, e] : regs_) out.regs.insert(id);
  return out;
}

std::string Oracle::Compare(const HdMap& got, const Members& want) const {
  auto count = [](const char* what, size_t g, size_t w) {
    return std::string(what) + " count " + std::to_string(g) + " != expected " +
           std::to_string(w);
  };
  if (got.landmarks().size() != want.landmarks.size()) {
    return count("landmark", got.landmarks().size(), want.landmarks.size());
  }
  if (got.line_features().size() != want.lines.size()) {
    return count("line", got.line_features().size(), want.lines.size());
  }
  if (got.area_features().size() != want.areas.size()) {
    return count("area", got.area_features().size(), want.areas.size());
  }
  if (got.lanelets().size() != want.lanelets.size()) {
    return count("lanelet", got.lanelets().size(), want.lanelets.size());
  }
  if (got.regulatory_elements().size() != want.regs.size()) {
    return count("regulatory", got.regulatory_elements().size(), want.regs.size());
  }
  for (ElementId id : want.landmarks) {
    const hdmap::Landmark* g = got.FindLandmark(id);
    const hdmap::Landmark& w = landmarks_.at(id);
    if (g == nullptr) return "missing " + Id("landmark", id);
    if (g->position.x != w.position.x || g->position.y != w.position.y ||
        g->position.z != w.position.z) {
      return "position of " + Id("landmark", id);
    }
  }
  for (ElementId id : want.lines) {
    const hdmap::LineFeature* g = got.FindLineFeature(id);
    if (g == nullptr) return "missing " + Id("line", id);
    if (!SamePoints(g->geometry.points(), lines_.at(id).geometry.points())) {
      return "geometry of " + Id("line", id);
    }
  }
  for (ElementId id : want.areas) {
    const hdmap::AreaFeature* g = got.FindAreaFeature(id);
    if (g == nullptr) return "missing " + Id("area", id);
    if (!SamePoints(g->geometry.vertices(), areas_.at(id).geometry.vertices())) {
      return "geometry of " + Id("area", id);
    }
  }
  for (ElementId id : want.lanelets) {
    const hdmap::Lanelet* g = got.FindLanelet(id);
    const hdmap::Lanelet& w = lanelets_.at(id);
    if (g == nullptr) return "missing " + Id("lanelet", id);
    if (!SamePoints(g->centerline.points(), w.centerline.points()) ||
        g->speed_limit_mps != w.speed_limit_mps || g->successors != w.successors) {
      return "content of " + Id("lanelet", id);
    }
  }
  for (ElementId id : want.regs) {
    const hdmap::RegulatoryElement* g = got.FindRegulatoryElement(id);
    const hdmap::RegulatoryElement& w = regs_.at(id);
    if (g == nullptr) return "missing " + Id("regulatory", id);
    if (g->type != w.type || g->speed_limit_mps != w.speed_limit_mps ||
        g->lanelet_ids != w.lanelet_ids) {
      return "content of " + Id("regulatory", id);
    }
  }
  return "";
}

std::string Oracle::CheckMarkers(const HdMap& got, uint64_t version) const {
  for (ElementId id : markers_) {
    const hdmap::Landmark* lm = got.FindLandmark(id);
    if (lm != nullptr && lm->position.z != static_cast<double>(version)) {
      return "marker " + std::to_string(id) + " at version " +
             std::to_string(lm->position.z) + " in a reply for version " +
             std::to_string(version);
    }
  }
  return "";
}

double Oracle::EffectiveSpeed(const hdmap::Lanelet& ll) const {
  double limit = ll.speed_limit_mps;
  for (ElementId reg_id : ll.regulatory_ids) {
    auto it = regs_.find(reg_id);
    if (it != regs_.end() && it->second.type == hdmap::RegulatoryType::kSpeedLimit &&
        it->second.speed_limit_mps > 0.0) {
      limit = std::min(limit, it->second.speed_limit_mps);
    }
  }
  return std::max(1.0, limit);
}

double Oracle::EdgeCost(ElementId a, ElementId b) const {
  auto it = lanelets_.find(a);
  if (it == lanelets_.end() || lanelets_.count(b) == 0) return -1.0;
  const hdmap::Lanelet& ll = it->second;
  // Documented cost (RoutingGraph): leaving lanelet a costs its length at
  // its effective speed limit; a lane change adds the penalty.
  double traverse = PolylineLength(ll.centerline.points()) / EffectiveSpeed(ll);
  double best = -1.0;
  for (ElementId s : ll.successors) {
    if (s == b) best = traverse;
  }
  if (b == ll.left_neighbor || b == ll.right_neighbor) {
    double lc = traverse + lane_change_penalty_s_;
    if (best < 0.0 || lc < best) best = lc;
  }
  return best;
}

hdmap::Route Oracle::ShortestRoute(ElementId from, ElementId to) const {
  std::unordered_map<ElementId, double> dist;
  std::unordered_map<ElementId, ElementId> parent;
  using Item = std::pair<double, ElementId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> queue;
  dist[from] = 0.0;
  queue.push({0.0, from});
  while (!queue.empty()) {
    auto [d, node] = queue.top();
    queue.pop();
    if (d > dist[node]) continue;
    if (node == to) break;
    auto it = lanelets_.find(node);
    if (it == lanelets_.end()) continue;
    std::vector<ElementId> next = it->second.successors;
    next.push_back(it->second.left_neighbor);
    next.push_back(it->second.right_neighbor);
    for (ElementId n : next) {
      double c = EdgeCost(node, n);
      if (c < 0.0) continue;
      auto found = dist.find(n);
      if (found == dist.end() || d + c < found->second) {
        dist[n] = d + c;
        parent[n] = node;
        queue.push({d + c, n});
      }
    }
  }
  hdmap::Route route;
  if (dist.count(to) == 0) return route;
  route.cost_seconds = dist[to];
  for (ElementId cur = to; cur != from; cur = parent[cur]) route.lanelets.push_back(cur);
  route.lanelets.push_back(from);
  std::reverse(route.lanelets.begin(), route.lanelets.end());
  return route;
}

std::string Oracle::CheckRoute(const hdmap::Route& route, ElementId from,
                               ElementId to) const {
  if (route.lanelets.empty() || route.lanelets.front() != from ||
      route.lanelets.back() != to) {
    return "route does not run from " + std::to_string(from) + " to " +
           std::to_string(to);
  }
  double cost = 0.0;
  for (size_t i = 1; i < route.lanelets.size(); ++i) {
    double c = EdgeCost(route.lanelets[i - 1], route.lanelets[i]);
    if (c < 0.0) {
      return "route step " + std::to_string(route.lanelets[i - 1]) + " -> " +
             std::to_string(route.lanelets[i]) + " is not an edge";
    }
    cost += c;
  }
  double tol = 1e-6 * std::max(1.0, cost);
  if (std::abs(cost - route.cost_seconds) > tol) {
    return "route reports cost " + std::to_string(route.cost_seconds) +
           " s for a path costing " + std::to_string(cost) + " s";
  }
  hdmap::Route best = ShortestRoute(from, to);
  if (best.lanelets.empty()) return "oracle finds no path for a returned route";
  if (cost > best.cost_seconds + tol) {
    return "route costs " + std::to_string(cost) + " s, shortest path " +
           std::to_string(best.cost_seconds) + " s";
  }
  return "";
}

void Oracle::ApplyToHeld(const hdmap::MapPatch& patch, HdMap* held) {
  for (const hdmap::MapPatch::Move& mv : patch.moved_landmarks) {
    if (held->FindLandmark(mv.id) != nullptr) (void)held->MoveLandmark(mv.id, mv.new_position);
  }
}

HdMap Oracle::Materialize(const Members& members) const {
  HdMap map;
  for (ElementId id : members.landmarks) (void)map.AddLandmark(landmarks_.at(id));
  for (ElementId id : members.lines) (void)map.AddLineFeature(lines_.at(id));
  for (ElementId id : members.areas) (void)map.AddAreaFeature(areas_.at(id));
  for (ElementId id : members.lanelets) (void)map.AddLanelet(lanelets_.at(id));
  for (ElementId id : members.regs) (void)map.AddRegulatoryElement(regs_.at(id));
  return map;
}

std::string Oracle::SelfTest(ElementId from, ElementId to) const {
  // A marker tile that also holds road content.
  const TileKey* tile = nullptr;
  for (ElementId id : markers_) {
    const TileKey key = TilesOfPoints({landmarks_.at(id).position.xy()}).front();
    if (tiles_.at(key).landmarks.size() >= 2) {
      tile = &tiles_.find(key)->first;
      break;
    }
  }
  if (tile == nullptr) return "self-test: no marker tile with other landmarks";
  const Members want = ForTile(*tile);
  HdMap good = Materialize(want);
  if (!Compare(good, want).empty() || !CheckMarkers(good, version).empty()) {
    return "self-test: the checks reject a correct tile";
  }
  ElementId drop = hdmap::kInvalidId;
  ElementId marker = hdmap::kInvalidId;
  for (ElementId id : want.landmarks) {
    (markers_.count(id) > 0 ? marker : drop) = id;
  }
  HdMap dropped = good;
  (void)dropped.RemoveLandmark(drop);
  if (Compare(dropped, want).empty()) return "self-test: a dropped element passed";
  HdMap flipped = good;
  const hdmap::Landmark* m = flipped.FindLandmark(marker);
  (void)flipped.MoveLandmark(marker, hdmap::Vec3(m->position.x, m->position.y,
                                                 static_cast<double>(version + 1)));
  if (CheckMarkers(flipped, version).empty()) return "self-test: a flipped marker passed";

  hdmap::Route route = ShortestRoute(from, to);
  if (route.lanelets.size() < 3 || !CheckRoute(route, from, to).empty()) {
    return "self-test: the checks reject the shortest route";
  }
  hdmap::Route gap = route;
  gap.lanelets.erase(gap.lanelets.begin() + 1);
  if (CheckRoute(gap, from, to).empty()) return "self-test: a disconnected route passed";
  hdmap::Route cheap = route;
  cheap.cost_seconds *= 0.5;
  if (CheckRoute(cheap, from, to).empty()) return "self-test: a mispriced route passed";
  return "";
}

}  // namespace fleet
