#include "fleet/layers.h"

#include <cstring>
#include <filesystem>
#include <set>

#include "core/routing_graph.h"
#include "core/serialization.h"
#include "core/tile_view.h"
#include "net/protocol.h"
#include "net/tile_server.h"
#include "planning/route_planner.h"
#include "storage/patch_wal.h"
#include "storage/snapshot_store.h"

namespace fleet {

namespace fs = std::filesystem;
using hdmap::Aabb;
using hdmap::HdMap;
using hdmap::MapPatch;
using hdmap::TileId;

namespace {

const char* const kCounterNames[] = {
    "tile_store.cache_hits", "tile_store.cache_misses", "tile_store.cache_evictions",
    "wal.appends",           "wal.fsync_batches",       "net.computations",
    "net.requests",          "net.not_modified",        "net.deltas",
    "net.busy_rejected",     "repl.records_shipped",    "repl.batches_shipped",
    "repl.catchups_served",
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Up to `n` batches, evenly spread over the run, in version order.
std::vector<const std::vector<MapPatch>*> SampleBatches(const WriterResult& w, size_t n) {
  std::vector<const std::vector<MapPatch>*> all;
  for (const auto& [v, batch] : w.batches) all.push_back(&batch);
  if (all.size() <= n) return all;
  std::vector<const std::vector<MapPatch>*> out;
  for (size_t i = 0; i < n; ++i) out.push_back(all[i * all.size() / n]);
  return out;
}

/// Boxes of every landmark a patch moves (a move stays inside its tile,
/// so the old and new positions cover the same tiles).
std::vector<Aabb> PatchBoxes(const MapPatch& patch) {
  std::vector<Aabb> boxes;
  for (const auto& mv : patch.moved_landmarks) boxes.push_back(Aabb::FromPoint(mv.new_position.xy()));
  return boxes;
}

uint32_t HeaderCrc(const std::string& frame) {
  uint32_t crc = 0;
  std::memcpy(&crc, frame.data() + 8, sizeof(crc));
  return crc;
}

}  // namespace

CounterSet ReadCounters(hdmap::MetricsRegistry& registry) {
  CounterSet out;
  for (const char* name : kCounterNames) out[name] = registry.GetCounter(name)->value();
  return out;
}

void MeasureLayers(const LayerInputs& in, SpanBuffer* spans, MetricList* out,
                   std::vector<std::string>* errors) {
  hdmap::ReplicationNode& leader = *in.cluster->leader;
  hdmap::MapService& service = leader.service();
  std::shared_ptr<const hdmap::MapSnapshot> snap = service.snapshot();
  const hdmap::TileStore& tiles = snap->tiles;
  auto delta = [&](const char* name) {
    return static_cast<double>(in.after.at(name) - in.before.at(name));
  };
  auto median = [&](const char* span, double scale) {
    return Median(SpanDurations({spans}, span, scale));
  };
  auto fail = [&](const std::string& what, const hdmap::Status& s) {
    errors->push_back(what + ": " + s.ToString());
  };

  // Inputs sampled from the measured traffic.
  std::vector<Aabb> boxes;
  std::vector<const std::string*> tile_payloads, region_payloads;
  std::vector<TileId> tile_ids;
  std::vector<const RouteSample*> routes;
  for (const ReaderResult& r : *in.readers) {
    for (const RegionSample& s : r.regions) {
      boxes.push_back(s.box);
      region_payloads.push_back(s.payload.get());
    }
    for (const TileSample& s : r.tiles) {
      tile_ids.push_back(s.tile);
      tile_payloads.push_back(s.payload.get());
    }
    for (const RouteSample& s : r.routes) routes.push_back(&s);
  }

  // --- core ---
  double tiles_per_region = 0.0, dup_ratio = 0.0;
  std::vector<HdMap> regions;
  for (int pass = 0; pass < 2; ++pass) {
    // The first pass fills the snapshot's tile cache the way the measured
    // traffic did; the second is timed.
    for (const Aabb& box : boxes) {
      hdmap::Result<HdMap> region = [&] {
        ScopedSpan s(pass == 1 ? spans : nullptr, "core.load_region");
        return tiles.LoadRegion(box, nullptr, 1);
      }();
      if (!region.ok()) {
        fail("LoadRegion", region.status());
        return;
      }
      if (pass == 1) regions.push_back(std::move(*region));
    }
  }
  for (size_t i = 0; i < boxes.size(); ++i) {
    hdmap::Result<std::vector<TileId>> ids = tiles.TilesInBox(boxes[i]);
    if (!ids.ok()) continue;
    tiles_per_region += static_cast<double>(ids->size());
    double summed = 0.0;
    for (const TileId& id : *ids) {
      hdmap::Result<HdMap> t = tiles.LoadTile(id);
      if (t.ok()) summed += static_cast<double>(t->NumElements());
    }
    dup_ratio += Ratio(summed, static_cast<double>(regions[i].NumElements()));
  }
  for (const HdMap& region : regions) {
    ScopedSpan s(spans, "core.encode_region");
    std::string bytes = hdmap::EncodeTileV3(region);
    if (bytes.empty()) errors->push_back("EncodeTileV3 produced no bytes");
  }
  for (const std::string* payload : tile_payloads) {
    ScopedSpan s(spans, "core.decode_tile");
    if (!hdmap::DeserializeMap(*payload).ok()) errors->push_back("DeserializeMap of a served tile failed");
  }
  double raw_tile_us = 0.0;
  if (!tile_ids.empty()) {
    constexpr int kRounds = 20;
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan s(spans, "core.raw_tile_bytes_x20");
      for (int round = 0; round < kRounds; ++round) {
        for (const TileId& id : tile_ids) {
          if (!tiles.RawTileBytes(id).ok()) errors->push_back("RawTileBytes failed");
        }
      }
    }
    raw_tile_us = SecondsBetween(t0, Clock::now()) * 1e6 /
                  static_cast<double>(kRounds * tile_ids.size());
  }

  // Publish-side replays on copies of the final snapshot.
  std::vector<const std::vector<MapPatch>*> batches = SampleBatches(*in.writer, 20);
  HdMap work_map = snap->map;
  hdmap::TileStore work_tiles = tiles;
  double touched = 0.0;
  for (const std::vector<MapPatch>* batch : batches) {
    std::set<uint64_t> keys;
    std::vector<TileId> cover;
    for (const MapPatch& p : *batch) {
      for (const Aabb& box : PatchBoxes(p)) {
        hdmap::Result<std::vector<TileId>> ids = tiles.TileCoverage(box);
        if (!ids.ok()) continue;
        for (const TileId& id : *ids) {
          if (keys.insert(id.Morton()).second) cover.push_back(id);
        }
      }
      hdmap::Status applied = hdmap::ApplyPatch(p, &work_map);
      if (!applied.ok()) fail("ApplyPatch replay", applied);
    }
    touched += static_cast<double>(cover.size());
    ScopedSpan s(spans, "core.rebuild_tiles");
    hdmap::Status rebuilt = work_tiles.RebuildTiles(work_map, cover);
    if (!rebuilt.ok()) fail("RebuildTiles", rebuilt);
  }
  for (int i = 0; i < 5; ++i) {
    ScopedSpan s(spans, "core.routing_build");
    hdmap::RoutingGraph g = hdmap::RoutingGraph::Build(snap->map);
    if (g.NumNodes() == 0) errors->push_back("RoutingGraph::Build produced no nodes");
  }
  {
    hdmap::TileStore::Options o;
    o.tile_size_m = kTileSizeM;
    hdmap::TileStore fresh(o);
    ScopedSpan s(spans, "core.build");
    hdmap::Status built = fresh.Build(in.world->map);
    if (!built.ok()) fail("TileStore::Build", built);
  }

  // --- service ---
  for (const Aabb& box : boxes) {
    ScopedSpan s(spans, "service.get_region");
    if (!service.GetRegion(box).ok()) errors->push_back("MapService::GetRegion failed");
  }
  for (int round = 0; round < 20; ++round) {
    for (uint64_t back = 1; back <= 2 && back < snap->version; ++back) {
      ScopedSpan s(spans, "service.patches_since");
      if (!service.PatchesSince(snap->version - back).ok()) {
        errors->push_back("PatchesSince failed");
      }
    }
  }
  {
    // A standalone durable service with the same fsync policy, fed the
    // same patch batches: the gap to ack_p50_us/publish_p50_ms is what
    // replication adds.
    hdmap::MapService standalone(ServiceOptions(in.work_dir + "/standalone"));
    hdmap::Status init = standalone.Init(in.world->map);
    if (!init.ok()) {
      fail("standalone Init", init);
    } else {
      for (const auto& [v, batch] : in.writer->batches) {
        if (v > 21) break;
        for (const MapPatch& p : batch) {
          ScopedSpan s(spans, "service.stage_patch");
          hdmap::Status st = standalone.StagePatch(p);
          if (!st.ok()) fail("standalone StagePatch", st);
        }
        ScopedSpan s(spans, "service.publish");
        hdmap::Status pub = standalone.Publish();
        if (!pub.ok()) fail("standalone Publish", pub);
      }
    }
  }

  // --- planning ---
  for (const RouteSample* r : routes) {
    ScopedSpan s(spans, "planning.plan_route");
    if (!hdmap::PlanRoute(*snap->routing, r->from, r->to).ok()) {
      errors->push_back("PlanRoute failed");
    }
  }

  // --- storage ---
  double wal_bytes_per_patch = 0.0;
  {
    fs::create_directories(in.work_dir + "/wal_probe");
    hdmap::PatchWal::Options o;
    o.path = in.work_dir + "/wal_probe/patches.wal";
    o.fsync = hdmap::FsyncMode::kAlways;
    hdmap::PatchWal wal(o);
    size_t n = 0;
    for (const std::vector<MapPatch>* batch : batches) {
      for (const MapPatch& p : *batch) {
        ScopedSpan s(spans, "storage.wal_append");
        hdmap::Status st = wal.Append(p, 1);
        if (!st.ok()) fail("PatchWal::Append", st);
        ++n;
      }
    }
    wal_bytes_per_patch = Ratio(static_cast<double>(wal.SizeBytes()), static_cast<double>(n));
  }
  {
    hdmap::SnapshotStore::Options o;
    o.data_dir = in.work_dir + "/checkpoint_probe";
    o.fsync = hdmap::FsyncMode::kAlways;
    hdmap::SnapshotStore store(o);
    for (uint64_t i = 0; i < 3; ++i) {
      ScopedSpan s(spans, "storage.checkpoint_write");
      hdmap::Status st = store.WriteCheckpoint(tiles, snap->version + i, snap->published_unix_ms);
      if (!st.ok()) fail("WriteCheckpoint", st);
    }
  }
  {
    // Recovery-side reads on a copy of the leader's data dir.
    const std::string copy = in.work_dir + "/storage_probe";
    std::error_code ec;
    fs::copy(in.cluster->leader_dir, copy, fs::copy_options::recursive, ec);
    if (ec) errors->push_back("copy leader data dir: " + ec.message());
    hdmap::SnapshotStore::Options o;
    o.data_dir = copy;
    o.fsync = hdmap::FsyncMode::kAlways;
    hdmap::SnapshotStore store(o);
    hdmap::TileStore::Options tile_options;
    tile_options.tile_size_m = kTileSizeM;
    std::vector<uint64_t> versions = store.ListCheckpoints();
    hdmap::PatchWal::Options wo;
    wo.path = copy + "/wal/patches.wal";
    wo.fsync = hdmap::FsyncMode::kAlways;
    hdmap::PatchWal wal(wo);
    for (int i = 0; i < 3 && !versions.empty(); ++i) {
      size_t skipped = 0;
      {
        ScopedSpan s(spans, "storage.load_newest_valid");
        if (!store.LoadNewestValid(tile_options, &skipped).ok()) {
          errors->push_back("LoadNewestValid failed");
        }
      }
      {
        ScopedSpan s(spans, "storage.open_mapped");
        if (!store.OpenMapped(versions.back()).ok()) errors->push_back("OpenMapped failed");
      }
      ScopedSpan s(spans, "storage.wal_replay");
      if (!wal.Replay().ok()) errors->push_back("PatchWal::Replay failed");
    }
  }

  // --- net ---
  {
    hdmap::NetClient client;
    hdmap::Status c = client.Connect("127.0.0.1", leader.port());
    if (!c.ok()) fail("connect", c);
    for (int i = 0; c.ok() && i < 1000; ++i) {
      ScopedSpan s(spans, "net.ping");
      if (!client.Ping().ok()) {
        errors->push_back("Ping failed");
        break;
      }
    }
  }
  std::vector<const std::string*> payloads = tile_payloads;
  payloads.insert(payloads.end(), region_payloads.begin(), region_payloads.end());
  for (const std::string* payload : payloads) {
    std::string frame;
    {
      ScopedSpan s(spans, "net.encode_response_frame");
      frame = hdmap::EncodeResponseFrame(hdmap::NetResponseCode::kOk, hdmap::StatusCode::kOk,
                                         7, snap->version, *payload);
    }
    size_t frame_size = 0;
    std::string_view body;
    if (hdmap::ExtractFrame(frame, hdmap::kNetResponseMagic, hdmap::kMaxNetResponseBody,
                            &frame_size, &body) != hdmap::FrameParse::kFrame) {
      errors->push_back("ExtractFrame rejected an encoded frame");
      continue;
    }
    ScopedSpan s(spans, "net.decode_response_body");
    if (!hdmap::DecodeResponseBody(body, HeaderCrc(frame)).ok()) {
      errors->push_back("DecodeResponseBody rejected an encoded frame");
    }
  }

  // Client-side byte counts over both measured phases.
  double tile_n = 0, tile_b = 0, region_n = 0, region_b = 0, sync_n = 0, sync_b = 0;
  std::vector<double> stats_ms, untraced_tile, traced_tile, untraced_region, traced_region;
  for (const ReaderResult& r : *in.readers) {
    for (const OpTimes& t : r.phase) {
      tile_n += static_cast<double>(t.tile_us.size());
      tile_b += static_cast<double>(t.tile_bytes);
      region_n += static_cast<double>(t.region_us.size());
      region_b += static_cast<double>(t.region_bytes);
      sync_n += static_cast<double>(t.sync_us.size());
      sync_b += static_cast<double>(t.sync_bytes);
    }
    stats_ms.insert(stats_ms.end(), r.phase[1].stats_ms.begin(), r.phase[1].stats_ms.end());
    untraced_tile.insert(untraced_tile.end(), r.phase[0].tile_us.value.begin(), r.phase[0].tile_us.value.end());
    traced_tile.insert(traced_tile.end(), r.phase[1].tile_us.value.begin(), r.phase[1].tile_us.value.end());
    untraced_region.insert(untraced_region.end(), r.phase[0].region_us.value.begin(),
                           r.phase[0].region_us.value.end());
    traced_region.insert(traced_region.end(), r.phase[1].region_us.value.begin(),
                         r.phase[1].region_us.value.end());
  }
  const hdmap::LatencyHistogram* ack_wait =
      service.metrics().GetLatency("replication.ack_wait");
  double n_boxes = static_cast<double>(boxes.size());
  double n_batches = static_cast<double>(batches.size());

  out->Add("core.load_region_us", median("core.load_region", 1e6), "us");
  out->Add("core.region_tiles", Ratio(tiles_per_region, n_boxes), "count");
  out->Add("core.encode_region_us", median("core.encode_region", 1e6), "us");
  out->Add("core.decode_tile_us", median("core.decode_tile", 1e6), "us");
  out->Add("core.raw_tile_us", raw_tile_us, "us");
  out->Add("core.cache_hit_ratio",
           Ratio(delta("tile_store.cache_hits"),
                 delta("tile_store.cache_hits") + delta("tile_store.cache_misses")),
           "ratio");
  out->Add("core.cache_evictions", delta("tile_store.cache_evictions"), "count");
  out->Add("core.dup_ratio", Ratio(dup_ratio, n_boxes), "ratio");
  out->Add("core.touched_tiles", Ratio(touched, n_batches), "count");
  out->Add("core.rebuild_ms", median("core.rebuild_tiles", 1e3), "ms");
  out->Add("core.routing_build_ms", median("core.routing_build", 1e3), "ms");
  out->Add("core.build_s", median("core.build", 1.0), "s");
  out->Add("service.get_region_us", median("service.get_region", 1e6), "us");
  out->Add("service.patches_since_us", median("service.patches_since", 1e6), "us");
  out->Add("service.stage_us", median("service.stage_patch", 1e6), "us");
  out->Add("service.publish_ms", median("service.publish", 1e3), "ms");
  out->Add("planning.route_us", median("planning.plan_route", 1e6), "us");
  out->Add("storage.wal_append_us", median("storage.wal_append", 1e6), "us");
  out->Add("storage.fsyncs_per_append",
           Ratio(delta("wal.fsync_batches"), delta("wal.appends")), "ratio");
  out->Add("storage.wal_bytes_per_patch", wal_bytes_per_patch, "B");
  out->Add("storage.checkpoint_write_ms", median("storage.checkpoint_write", 1e3), "ms");
  out->Add("storage.checkpoint_mb",
           service.metrics().GetGauge("storage.checkpoint_bytes")->value() / 1e6, "MB");
  out->Add("storage.load_newest_valid_ms", median("storage.load_newest_valid", 1e3), "ms");
  out->Add("storage.open_mapped_ms", median("storage.open_mapped", 1e3), "ms");
  out->Add("storage.wal_replay_ms", median("storage.wal_replay", 1e3), "ms");
  out->Add("net.ping_us", median("net.ping", 1e6), "us");
  out->Add("net.encode_frame_us", median("net.encode_response_frame", 1e6), "us");
  out->Add("net.decode_frame_us", median("net.decode_response_body", 1e6), "us");
  out->Add("net.bytes_per_tile", Ratio(tile_b, tile_n), "B");
  out->Add("net.bytes_per_region", Ratio(region_b, region_n), "B");
  out->Add("net.bytes_per_sync", Ratio(sync_b, sync_n), "B");
  out->Add("net.computations_per_request",
           Ratio(delta("net.computations"), delta("net.requests")), "ratio");
  out->Add("net.not_modified_ratio", Ratio(delta("net.not_modified"), sync_n), "ratio");
  out->Add("net.delta_ratio", Ratio(delta("net.deltas"), sync_n), "ratio");
  out->Add("net.busy_rejected", delta("net.busy_rejected"), "count");
  // The histogram is not windowed: its median covers every acked write of
  // the run (warm-up, both measured halves and the end-of-run publishes).
  out->Add("replication.ack_wait_us", ack_wait->ApproxPercentileSeconds(50.0) * 1e6, "us");
  out->Add("replication.records_per_batch",
           Ratio(delta("repl.records_shipped"), delta("repl.batches_shipped")), "ratio");
  out->Add("replication.catchups", delta("repl.catchups_served"), "count");
  out->Add("obs.stats_scrape_ms", Median(stats_ms), "ms");
  out->Add("obs.trace_overhead_tile_pct",
           (Ratio(Median(traced_tile), Median(untraced_tile)) - 1.0) * 100.0, "%");
  out->Add("obs.trace_overhead_region_pct",
           (Ratio(Median(traced_region), Median(untraced_region)) - 1.0) * 100.0, "%");
}

}  // namespace fleet
