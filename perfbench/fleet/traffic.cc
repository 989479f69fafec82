#include "fleet/traffic.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "net/tile_server.h"

namespace fleet {

using hdmap::Aabb;
using hdmap::ElementId;
using hdmap::MapPatch;
using hdmap::NetClient;
using hdmap::NetResponse;
using hdmap::NetResponseCode;
using hdmap::Result;
using hdmap::Status;
using hdmap::TileId;
using hdmap::Vec2;

hdmap::MapService::Options ServiceOptions(const std::string& data_dir) {
  hdmap::MapService::Options o;
  o.tile_store.tile_size_m = kTileSizeM;
  // One publish thread per node: on a small host a publish fanned out
  // over every core would stall the read path it runs beside.
  o.publish_threads = 1;
  o.durability.data_dir = data_dir;
  o.durability.fsync = hdmap::FsyncMode::kAlways;
  o.durability.checkpoint_every_n_publishes = kCheckpointEvery;
  return o;
}

Status StartCluster(const World& world, const std::string& work_dir,
                    Cluster* cluster) {
  cluster->leader_dir = work_dir + "/leader";
  cluster->follower_dir = work_dir + "/follower";
  auto make = [](int id, const std::string& dir) {
    hdmap::ReplicationNode::Options no;
    no.node_id = id;
    no.service = ServiceOptions(dir);
    no.server.worker_threads = 2;
    no.min_ack_replicas = 1;
    // A follower applying a checkpointing publish answers only after its
    // own checkpoint; keep the ship and ack deadlines well above that.
    no.io_timeout_ms = 5000;
    no.ack_timeout_ms = 10000;
    return std::make_unique<hdmap::ReplicationNode>(no);
  };
  cluster->leader = make(0, cluster->leader_dir);
  cluster->follower = make(1, cluster->follower_dir);
  // Both nodes boot at once, as two machines would.
  Status follower_started;
  std::thread follower([&] { follower_started = cluster->follower->Start(world.map); });
  Status leader_started = cluster->leader->Start(world.map);
  follower.join();
  HDMAP_RETURN_IF_ERROR(leader_started);
  HDMAP_RETURN_IF_ERROR(follower_started);
  cluster->leader->BecomeLeader(1, {{1, "127.0.0.1", cluster->follower->port()}});
  return Status::Ok();
}

namespace {

// Every Nth reply of a kind is kept (up to kSampleCap per thread) for the
// oracle checks, which run after the measured phase.
constexpr uint64_t kSampleTileEvery = 64;
constexpr uint64_t kSampleRegionEvery = 16;
constexpr uint64_t kSampleDeltaEvery = 2;
constexpr uint64_t kSampleRouteEvery = 4;
constexpr size_t kSampleCap = 150;
// A held region is dropped after this many deltas (the next fetch of a
// region replaces it).
constexpr size_t kMaxDeltaChain = 16;
// Trace mode: reader 0 scrapes the leader's kStats every N operations.
constexpr uint64_t kScrapeEvery = 256;

/// Zipf(s = 1) over n ranks, each rank mapped to a seeded random tile.
class Zipf {
 public:
  Zipf(size_t n, hdmap::Rng& rng) : perm_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / static_cast<double>(i + 1);
      cdf_.push_back(sum);
      perm_[i] = i;
    }
    for (double& c : cdf_) c /= sum;
    for (size_t i = n; i > 1; --i) std::swap(perm_[i - 1], perm_[rng.NextU32() % i]);
  }
  size_t Next(hdmap::Rng& rng) const {
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), rng.Uniform()) - cdf_.begin());
    return perm_[std::min(rank, perm_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<size_t> perm_;
};

struct Held {
  Aabb box;
  uint64_t version = 0;
  std::shared_ptr<const std::string> base;
  std::vector<std::shared_ptr<const std::string>> deltas;
};

class Reader {
 public:
  Reader(TrafficEnv& env, int index, ReaderResult* out)
      : env_(env),
        world_(*env.world),
        service_(env.cluster->leader->service()),
        index_(index),
        out_(out),
        rng_(env.seed * 7919 + static_cast<uint64_t>(index), 0x726561),
        zipf_(env.tiles.size(), rng_) {
    out_->spans = std::make_unique<SpanBuffer>(static_cast<uint32_t>(index + 1));
  }

  void Run() {
    Status s = client_.Connect("127.0.0.1", env_.cluster->leader->port());
    if (!s.ok()) {
      Error("connect: " + s.ToString());
      return;
    }
    if (env_.spec->name == "city_commute") {
      RunCity();
    } else {
      RunFleet();
    }
  }

 private:
  bool Stopped() const { return env_.phase.load(std::memory_order_relaxed) == kStop; }

  /// Which OpTimes slot the next operation records into; -1 = warm-up.
  int Slot() const {
    int p = env_.phase.load(std::memory_order_relaxed);
    return p == kMeasure ? 0 : p == kMeasureTraced ? 1 : -1;
  }
  SpanBuffer* Spans(int slot) const { return slot == 1 ? out_->spans.get() : nullptr; }

  void Count(int slot, bool ok) {
    if (slot < 0) return;
    ++out_->attempted;
    if (!ok) ++out_->failed;
  }

  /// A failed on-the-spot check (the first few are kept).
  void Error(std::string what) {
    if (out_->errors.size() < 20) out_->errors.push_back(std::move(what));
  }

  void NoteVersion(uint64_t v) {
    if (v < newest_) {
      Error("client saw version " + std::to_string(v) + " after version " +
            std::to_string(newest_));
    }
    newest_ = std::max(newest_, v);
  }

  template <typename Fn>
  Result<NetResponse> Timed(int slot, const char* span, Fn&& fn, double* us) {
    Clock::time_point t0 = Clock::now();
    at_ = env_.SinceStart(t0);
    Result<NetResponse> r = [&] {
      ScopedSpan s(Spans(slot), span);
      return fn();
    }();
    *us = SecondsBetween(t0, Clock::now()) * 1e6;
    return r;
  }

  void Tile(const TileId& id) {
    int slot = Slot();
    double us = 0;
    Result<NetResponse> r =
        Timed(slot, "client.get_tile", [&] { return client_.GetTile(id); }, &us);
    bool ok = r.ok() && r->code == NetResponseCode::kOk;
    Count(slot, ok);
    if (!ok) return;
    NoteVersion(r->version);
    if (slot >= 0) {
      OpTimes& t = out_->phase[slot];
      t.tile_us.Add(at_, us);
      t.tile_bytes += r->payload.size();
    }
    if (++n_tile_ % kSampleTileEvery == 0 && out_->tiles.size() < kSampleCap) {
      out_->tiles.push_back(
          {id, r->version, std::make_shared<const std::string>(std::move(r->payload))});
    }
  }

  void Region(const Aabb& box) {
    int slot = Slot();
    double us = 0;
    Result<NetResponse> r =
        Timed(slot, "client.get_region", [&] { return client_.GetRegion(box); }, &us);
    bool ok = r.ok() && r->code == NetResponseCode::kOk;
    Count(slot, ok);
    if (!ok) return;
    NoteVersion(r->version);
    if (slot >= 0) {
      OpTimes& t = out_->phase[slot];
      t.region_us.Add(at_, us);
      t.region_bytes += r->payload.size();
    }
    auto payload = std::make_shared<const std::string>(std::move(r->payload));
    if (++n_region_ % kSampleRegionEvery == 0 && out_->regions.size() < kSampleCap) {
      out_->regions.push_back({box, r->version, payload});
    }
    held_.push_back({box, r->version, payload, {}});
    if (held_.size() > static_cast<size_t>(env_.spec->held)) held_.erase(held_.begin());
  }

  /// Conditional re-fetch of every held box older than the newest version
  /// this client has seen.
  void SyncHeld() {
    for (Held& h : held_) {
      if (h.version >= newest_) continue;
      int slot = Slot();
      double us = 0;
      Result<NetResponse> r = Timed(
          slot, "client.sync_region",
          [&] { return client_.GetRegion(h.box, h.version); }, &us);
      bool ok = r.ok() && (r->code == NetResponseCode::kOk ||
                           r->code == NetResponseCode::kNotModified ||
                           r->code == NetResponseCode::kDelta);
      Count(slot, ok);
      if (!ok) continue;
      NoteVersion(r->version);
      if (slot >= 0) {
        OpTimes& t = out_->phase[slot];
        t.sync_us.Add(at_, us);
        t.sync_bytes += r->payload.size();
      }
      if (r->code == NetResponseCode::kNotModified) {
        if (r->version != h.version) {
          Error("NOT_MODIFIED for version " + std::to_string(h.version) + " stamped " +
                std::to_string(r->version));
        }
        continue;
      }
      auto payload = std::make_shared<const std::string>(std::move(r->payload));
      h.version = r->version;
      if (r->code == NetResponseCode::kOk) {
        h.base = payload;
        h.deltas.clear();
        continue;
      }
      h.deltas.push_back(payload);
      if (++n_delta_ % kSampleDeltaEvery == 0 && out_->deltas.size() < kSampleCap) {
        out_->deltas.push_back({h.box, h.version, h.base, h.deltas});
      }
    }
    held_.erase(std::remove_if(held_.begin(), held_.end(),
                               [](const Held& h) { return h.deltas.size() >= kMaxDeltaChain; }),
                held_.end());
  }

  void Match(size_t road) {
    int slot = Slot();
    ElementId want = world_.road_lanelets[road];
    Clock::time_point t0 = Clock::now();
    Result<hdmap::LaneMatch> r = [&] {
      ScopedSpan s(Spans(slot), "client.match_to_lane");
      return service_.MatchToLane(world_.road_midpoints[road]);
    }();
    double us = SecondsBetween(t0, Clock::now()) * 1e6;
    Count(slot, r.ok());
    if (!r.ok()) return;
    if (slot >= 0) out_->phase[slot].match_us.Add(env_.SinceStart(t0), us);
    if (r->lanelet_id != want) {
      Error("MatchToLane at the middle of lanelet " + std::to_string(want) +
            " returned lanelet " + std::to_string(r->lanelet_id));
    }
  }

  /// In-process Route between road lanelets; returns the route's lanelets.
  std::vector<ElementId> Route(size_t from, size_t to) {
    int slot = Slot();
    ElementId a = world_.road_lanelets[from];
    ElementId b = world_.road_lanelets[to];
    uint64_t v0 = service_.version();
    Clock::time_point t0 = Clock::now();
    Result<hdmap::Route> r = [&] {
      ScopedSpan s(Spans(slot), "client.route");
      return service_.Route(a, b);
    }();
    double us = SecondsBetween(t0, Clock::now()) * 1e6;
    uint64_t v1 = service_.version();
    Count(slot, r.ok());
    if (!r.ok()) return {};
    if (slot >= 0) out_->phase[slot].route_us.Add(env_.SinceStart(t0), us);
    if (++n_route_ % kSampleRouteEvery == 0 && out_->routes.size() < kSampleCap) {
      out_->routes.push_back({a, b, *r, v0, v1});
    }
    return r->lanelets;
  }

  void MaybeScrape(uint64_t op) {
    int slot = Slot();
    if (index_ != 0 || slot != 1 || op % kScrapeEvery != 0) return;
    double us = 0;
    Result<NetResponse> r =
        Timed(slot, "client.fetch_stats", [&] { return client_.FetchStats(); }, &us);
    if (r.ok() && r->code == NetResponseCode::kOk) {
      out_->phase[slot].stats_ms.push_back(us / 1e3);
    }
  }

  size_t RandomRoad() { return rng_.NextU32() % world_.road_lanelets.size(); }

  /// A road lanelet 250-550 m from `from` (a few blocks), so routes have
  /// similar lengths on every town size.
  size_t NearbyRoad(size_t from) {
    const Vec2& p = world_.road_midpoints[from];
    for (int tries = 0; tries < 64; ++tries) {
      size_t c = RandomRoad();
      double d = p.DistanceTo(world_.road_midpoints[c]);
      if (d >= 250.0 && d <= 550.0) return c;
    }
    return RandomRoad();
  }

  TileId TileOf(const Vec2& p) const { return TileId{TileIndex(p.x), TileIndex(p.y)}; }

  const TileId& ZipfTile() { return env_.tiles[zipf_.Next(rng_)]; }

  /// Vehicles drive routes: each step matches to lane at the current road
  /// lanelet and fetches the look-ahead region up to the next one; every
  /// fourth step also reads the current tile.
  void RunCity() {
    std::unordered_map<ElementId, size_t> road_index;
    for (size_t i = 0; i < world_.road_lanelets.size(); ++i) {
      road_index[world_.road_lanelets[i]] = i;
    }
    size_t cur = RandomRoad();
    std::vector<size_t> drive;
    size_t idx = 0;
    for (uint64_t step = 1; !Stopped(); ++step) {
      if (idx + 1 >= drive.size()) {
        drive.clear();
        idx = 0;
        for (ElementId id : Route(cur, NearbyRoad(cur))) {
          auto it = road_index.find(id);
          if (it != road_index.end()) drive.push_back(it->second);
        }
        if (drive.size() < 2) {
          cur = RandomRoad();
          continue;
        }
      }
      cur = drive[idx];
      Match(cur);
      Aabb box;
      box.Extend(world_.road_midpoints[cur]);
      box.Extend(world_.road_midpoints[drive[idx + 1]]);
      Region(box.Expanded(20.0));
      if (step % 4 == 0) Tile(TileOf(world_.road_midpoints[cur]));
      SyncHeld();
      MaybeScrape(step);
      ++idx;
    }
  }

  /// Vehicles sync a large town: mostly Zipf-skewed tiles, some one- or
  /// two-tile regions anywhere, re-synced after every observed publish.
  void RunFleet() {
    for (uint64_t op = 1; !Stopped(); ++op) {
      if (rng_.Uniform() < 0.85) {
        Tile(ZipfTile());
      } else {
        const TileId& t = env_.tiles[rng_.NextU32() % env_.tiles.size()];
        double wide = (rng_.NextU32() & 1) != 0 ? kTileSizeM : 0.0;
        Region(Aabb({t.x * kTileSizeM + 10.0, t.y * kTileSizeM + 10.0},
                    {(t.x + 1) * kTileSizeM - 10.0 + wide, (t.y + 1) * kTileSizeM - 10.0}));
      }
      SyncHeld();
      if (op % 32 == 0) Match(RandomRoad());
      if (op % 64 == 0) {
        size_t a = RandomRoad();
        Route(a, NearbyRoad(a));
      }
      MaybeScrape(op);
    }
  }

  TrafficEnv& env_;
  const World& world_;
  const hdmap::MapService& service_;
  int index_;
  ReaderResult* out_;
  hdmap::Rng rng_;
  Zipf zipf_;
  NetClient client_;
  std::vector<Held> held_;
  uint64_t newest_ = 0;
  float at_ = 0;  // Start of the last Timed call, seconds into the phase.
  uint64_t n_tile_ = 0, n_region_ = 0, n_delta_ = 0, n_route_ = 0;
};

}  // namespace

void RunReader(TrafficEnv& env, int index, ReaderResult* result) {
  Reader reader(env, index, result);
  reader.Run();
}

void RunWriter(TrafficEnv& env, WriterResult* out) {
  const WorkloadSpec& spec = *env.spec;
  hdmap::ReplicationNode& leader = *env.cluster->leader;
  PatchGenerator gen(*env.world, env.seed ^ 0x5eedULL);
  out->spans = std::make_unique<SpanBuffer>(100);
  uint64_t version = leader.service().version();
  std::vector<MapPatch> batch;
  bool broken = false;

  auto measured = [&]() {
    int p = env.phase.load(std::memory_order_relaxed);
    return p == kMeasure || p == kMeasureTraced ? p : 0;
  };
  auto stage = [&](MapPatch patch) {
    int m = measured();
    Clock::time_point t0 = Clock::now();
    Status s = [&] {
      ScopedSpan span(m == kMeasureTraced ? out->spans.get() : nullptr, "writer.stage_patch");
      return leader.StagePatch(patch);
    }();
    double us = SecondsBetween(t0, Clock::now()) * 1e6;
    if (m != 0) ++out->attempted;
    if (!s.ok()) {
      if (m != 0) ++out->failed;
      out->errors.push_back("StagePatch: " + s.ToString());
      broken = true;
      return;
    }
    ++out->acked;
    if (m != 0) out->ack_us.Add(env.SinceStart(t0), us);
    batch.push_back(std::move(patch));
  };
  auto publish = [&]() {
    int m = measured();
    Clock::time_point t0 = Clock::now();
    Status s = [&] {
      ScopedSpan span(m == kMeasureTraced ? out->spans.get() : nullptr, "writer.publish");
      return leader.Publish();
    }();
    double ms = SecondsBetween(t0, Clock::now()) * 1e3;
    if (m != 0) ++out->attempted;
    uint64_t v = leader.service().version();
    if (!s.ok() || v != version + 1) {
      if (m != 0) ++out->failed;
      out->errors.push_back("Publish: " + s.ToString() + " at version " + std::to_string(v) +
                            ", expected " + std::to_string(version + 1));
      broken = true;
      return;
    }
    if (m != 0) out->publish_ms.Add(env.SinceStart(t0), ms);
    version = v;
    ++out->publishes;
    out->batches[v] = std::move(batch);
    batch.clear();
  };

  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(spec.patch_interval_s));
  Clock::time_point due = Clock::now();
  while (!broken && env.phase.load() != kStop) {
    // Each batch opens with the marker patch for the version it becomes.
    if (batch.empty()) stage(gen.Markers(version + 1));
    due += interval;
    Clock::time_point now = Clock::now();
    if (due < now - std::chrono::seconds(1)) due = now;
    std::this_thread::sleep_until(due);
    if (broken || env.phase.load() == kStop) break;
    stage(gen.Next());
    if (!broken && batch.size() == static_cast<size_t>(kBatch) + 1) publish();
  }
  // End of run: publish what is staged, then publish marker-only batches
  // until the last publish writes a checkpoint, so every run ends with the
  // same recovery work: one checkpoint and an empty WAL tail.
  if (!broken && !batch.empty()) publish();
  while (!broken && out->publishes % kCheckpointEvery != 0) {
    stage(gen.Markers(version + 1));
    if (!broken) publish();
  }
}

}  // namespace fleet
