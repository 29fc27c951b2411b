// Fleet tests: ShardMap routing edges, the N-server x M-client rig topology
// for all three protocols and under a fault::FaultSchedule, and the
// fleet::MetaCache metadata tier (coherence through interposition, miss
// coalescing, bounded eviction, and the MetaInval administration RPC).
#include <gtest/gtest.h>

#include "src/fleet/meta_cache.h"
#include "src/fleet/shard_map.h"
#include "src/testbed/rig.h"

namespace fleet {
namespace {

using testbed::Protocol;
using testbed::Rig;
using testbed::RigOptions;

proto::FileHandle Fh(uint32_t fsid, uint64_t fileid) {
  return proto::FileHandle{fsid, fileid, 1};
}

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }
std::string Str(const std::vector<uint8_t>& v) { return {v.begin(), v.end()}; }

// --- ShardMap routing edges ------------------------------------------------

ShardMap TwoShardMap() {
  ShardMap map;
  map.AddShard(Shard{0, "/data/s0", 1, net::Address{10}, Fh(1, 1)});
  map.AddShard(Shard{1, "/data/s1", 2, net::Address{11}, Fh(2, 1)});
  return map;
}

TEST(ShardMapTest, RoutesByLongestPrefix) {
  // Nested exports: shard 0 serves the namespace root, shard 1 a subtree.
  ShardMap map;
  map.AddShard(Shard{0, "/data", 1, net::Address{10}, Fh(1, 1)});
  map.AddShard(Shard{1, "/data/hot", 2, net::Address{11}, Fh(2, 1)});

  auto cold = map.ShardForPath("/data/cold/f");
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(*cold, 0);
  auto hot = map.ShardForPath("/data/hot/f");
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(*hot, 1);
  // The prefix itself is routable.
  auto exact = map.ShardForPath("/data/hot");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(*exact, 1);
}

TEST(ShardMapTest, PrefixMatchEndsAtComponentBoundary) {
  ShardMap map = TwoShardMap();
  // "/data/s10" shares the string prefix "/data/s1" but is a different
  // component — it must not route to shard 1.
  EXPECT_EQ(map.ShardForPath("/data/s10/f").status(), base::ErrNoEnt());
  EXPECT_EQ(map.ShardForPath("/elsewhere").status(), base::ErrNoEnt());
  auto ok = map.ShardForPath("/data/s1/f");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 1);
}

TEST(ShardMapTest, RoutesHandlesByFsid) {
  ShardMap map = TwoShardMap();
  auto s0 = map.ShardForHandle(Fh(1, 42));
  ASSERT_TRUE(s0.ok());
  EXPECT_EQ(*s0, 0);
  auto s1 = map.ShardForHandle(Fh(2, 42));
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(*s1, 1);
  // A handle from a file system this fleet does not serve is stale here.
  EXPECT_EQ(map.ShardForHandle(Fh(9, 42)).status(), base::ErrStale());
}

TEST(ShardMapTest, RoutesRequestsAndRejectsCrossShardRename) {
  ShardMap map = TwoShardMap();

  auto getattr = ShardForRequest(map, proto::Request{proto::GetAttrReq{Fh(2, 7)}});
  ASSERT_TRUE(getattr.ok());
  EXPECT_EQ(*getattr, 1);

  auto same = ShardForRequest(
      map, proto::Request{proto::RenameReq{Fh(1, 3), "a", Fh(1, 4), "b"}});
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(*same, 0);

  EXPECT_EQ(ShardForRequest(map,
                            proto::Request{proto::RenameReq{Fh(1, 3), "a", Fh(2, 4), "b"}})
                .status(),
            base::ErrXDev());

  // Requests with no file handle are not routable.
  EXPECT_EQ(ShardForRequest(map, proto::Request{proto::NullReq{}}).status(), base::ErrInval());
}

// --- fleet rig -------------------------------------------------------------

RigOptions FleetOptions(Protocol protocol, int shards, int clients, bool cache = false) {
  RigOptions options;
  options.protocol = protocol;
  options.fleet.servers = shards;
  options.fleet.clients = clients;
  options.fleet.meta_cache = cache;
  return options;
}

TEST(FleetRigTest, NamespaceSpansShardsForAllProtocols) {
  for (Protocol protocol : {Protocol::kNfs, Protocol::kSnfs, Protocol::kNqnfs}) {
    SCOPED_TRACE(std::string(ProtocolName(protocol)));
    Rig rig(FleetOptions(protocol, 2, 2));
    bool done = false;
    rig.simulator().Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
      // Client 0 writes one file per shard; client 1 reads both back.
      EXPECT_TRUE((co_await rig.client(0).vfs().WriteFile("/data/s0/a", Bytes("alpha"))).ok());
      EXPECT_TRUE((co_await rig.client(0).vfs().WriteFile("/data/s1/b", Bytes("beta"))).ok());
      auto a = co_await rig.client(1).vfs().ReadFile("/data/s0/a");
      EXPECT_TRUE(a.ok());
      auto b = co_await rig.client(1).vfs().ReadFile("/data/s1/b");
      EXPECT_TRUE(b.ok());
      if (!a.ok() || !b.ok()) {
        co_return;
      }
      EXPECT_EQ(Str(*a), "alpha");
      EXPECT_EQ(Str(*b), "beta");
      done = true;
    }(rig, done));
    rig.simulator().Run();
    EXPECT_TRUE(done);

    // Each write landed on its owning shard, not anywhere else.
    EXPECT_GT(rig.shard(0).peer().server_ops().Get(proto::OpKind::kWrite), 0u);
    EXPECT_GT(rig.shard(1).peer().server_ops().Get(proto::OpKind::kWrite), 0u);
  }
}

TEST(FleetRigTest, CrossShardRenameSurfacesXDev) {
  Rig rig(FleetOptions(Protocol::kNfs, 2, 1));
  bool done = false;
  rig.simulator().Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    EXPECT_TRUE((co_await rig.client(0).vfs().WriteFile("/data/s0/f", Bytes("x"))).ok());
    EXPECT_EQ((co_await rig.client(0).vfs().Rename("/data/s0/f", "/data/s1/f")).status(),
              base::ErrXDev());
    // Same-shard rename still works.
    EXPECT_TRUE((co_await rig.client(0).vfs().Rename("/data/s0/f", "/data/s0/g")).ok());
    done = true;
  }(rig, done));
  rig.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(FleetRigTest, ShardCrashRecoverySmoke) {
  Rig rig(FleetOptions(Protocol::kNfs, 2, 1));
  bool done = false;
  rig.simulator().Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    EXPECT_TRUE((co_await rig.client(0).vfs().WriteFile("/data/s1/f", Bytes("survives"))).ok());
    rig.shard(1).Crash(rig.network());
    co_await sim::Sleep(rig.simulator(), sim::Msec(500));
    rig.shard(1).Reboot(rig.network());
    // The client's RPC layer retransmits across the outage; NFS is
    // stateless, so the reboot needs no recovery protocol.
    auto got = co_await rig.client(0).vfs().ReadFile("/data/s1/f");
    EXPECT_TRUE(got.ok());
    if (!got.ok()) {
      co_return;
    }
    EXPECT_EQ(Str(*got), "survives");
    // The other shard was untouched throughout.
    EXPECT_TRUE((co_await rig.client(0).vfs().WriteFile("/data/s0/g", Bytes("up"))).ok());
    done = true;
  }(rig, done));
  rig.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(FleetRigTest, FaultScheduleCrashesAShardAndTakesTheCacheDown) {
  Rig rig(FleetOptions(Protocol::kNfs, 2, 1, /*cache=*/true));
  bool written = false;
  rig.simulator().Spawn([](Rig& rig, bool& written) -> sim::Task<void> {
    written = (co_await rig.client(0).vfs().WriteFile("/data/s1/f", Bytes("kept"))).ok();
  }(rig, written));
  rig.simulator().Run();
  ASSERT_TRUE(written);

  // Shard 1 is down over [1 s, 2 s) and the cache over [1.5 s, 3 s), both
  // counted from now.
  sim::Time t0 = rig.simulator().Now();
  fault::FaultSchedule schedule;
  schedule.CrashServerAt(t0 + sim::Sec(1), 1)
      .RebootServerAt(t0 + sim::Sec(2), 1)
      .CacheDownAt(t0 + sim::Msec(1500))
      .CacheUpAt(t0 + sim::Sec(3));
  rig.ApplyFaultSchedule(schedule);

  bool done = false;
  rig.simulator().Spawn([](Rig& rig, sim::Time t0, bool& done) -> sim::Task<void> {
    auto cache_up = [&rig] { return rig.network().IsHostUp(rig.meta_cache()->address()); };
    co_await sim::Sleep(rig.simulator(), t0 + sim::Msec(1600) - rig.simulator().Now());
    EXPECT_FALSE(rig.shard(1).peer().running());
    EXPECT_FALSE(cache_up());
    co_await sim::Sleep(rig.simulator(), sim::Sec(1));  // t0 + 2.6 s
    EXPECT_TRUE(rig.shard(1).peer().running());
    EXPECT_FALSE(cache_up());
    EXPECT_TRUE(rig.shard(0).peer().running());  // the other shard never went down
    co_await sim::Sleep(rig.simulator(), sim::Sec(1));  // t0 + 3.6 s
    EXPECT_TRUE(rig.shard(1).peer().running());
    EXPECT_TRUE(cache_up());
    auto got = co_await rig.client(0).vfs().ReadFile("/data/s1/f");
    EXPECT_TRUE(got.ok());
    if (!got.ok()) {
      co_return;
    }
    EXPECT_EQ(Str(*got), "kept");
    done = true;
  }(rig, t0, done));
  rig.simulator().Run();
  EXPECT_TRUE(done);
}

// --- meta-cache tier -------------------------------------------------------

TEST(MetaCacheTest, ServesRepeatMetadataFromCache) {
  Rig rig(FleetOptions(Protocol::kNfs, 2, 2, /*cache=*/true));
  bool done = false;
  rig.simulator().Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    EXPECT_TRUE((co_await rig.client(0).vfs().WriteFile("/data/s0/f", Bytes("v1"))).ok());
    // Both clients stat the file; client 1's probes cannot be answered by
    // any client-side state, so they must be cache-tier hits.
    EXPECT_TRUE((co_await rig.client(0).vfs().Stat("/data/s0/f")).ok());
    EXPECT_TRUE((co_await rig.client(1).vfs().Stat("/data/s0/f")).ok());
    EXPECT_TRUE((co_await rig.client(1).vfs().Stat("/data/s0/f")).ok());
    done = true;
  }(rig, done));
  rig.simulator().Run();
  EXPECT_TRUE(done);
  ASSERT_NE(rig.meta_cache(), nullptr);
  EXPECT_GT(rig.meta_cache()->hits(), 0u);
  EXPECT_GT(rig.meta_cache()->misses(), 0u);
}

TEST(MetaCacheTest, CoherentAcrossClientsAfterWriteThroughCache) {
  Rig rig(FleetOptions(Protocol::kNfs, 2, 2, /*cache=*/true));
  bool done = false;
  rig.simulator().Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    EXPECT_TRUE((co_await rig.client(0).vfs().WriteFile("/data/s1/f", Bytes("one"))).ok());
    auto first = co_await rig.client(1).vfs().ReadFile("/data/s1/f");
    EXPECT_TRUE(first.ok());
    if (!first.ok()) {
      co_return;
    }
    EXPECT_EQ(Str(*first), "one");
    // The second write's reply passes through the cache, committing the new
    // version before client 0 sees the close; client 1's next open probe is
    // served by the cache and must reflect it (close-to-open consistency
    // preserved through the tier).
    EXPECT_TRUE((co_await rig.client(0).vfs().WriteFile("/data/s1/f", Bytes("two"))).ok());
    auto second = co_await rig.client(1).vfs().ReadFile("/data/s1/f");
    EXPECT_TRUE(second.ok());
    if (!second.ok()) {
      co_return;
    }
    EXPECT_EQ(Str(*second), "two");
    done = true;
  }(rig, done));
  rig.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(MetaCacheTest, ConcurrentMissesCoalesceIntoOneFill) {
  Rig rig(FleetOptions(Protocol::kNfs, 2, 2, /*cache=*/true));
  // Two clients getattr the same cold handle at the same instant; the cache
  // must forward one fill and park the other request on it.
  proto::FileHandle target = rig.shard_data_parent(0);
  int replies = 0;
  for (int c = 0; c < 2; ++c) {
    rig.simulator().Spawn(
        [](Rig& rig, proto::FileHandle target, int c, int* replies) -> sim::Task<void> {
          auto reply = co_await rig.client(c).peer().Call(
              rig.meta_cache()->address(), proto::Request{proto::GetAttrReq{target}});
          EXPECT_TRUE(reply.ok());
          if (!reply.ok()) {
            co_return;
          }
          EXPECT_TRUE(reply->status.ok());
          ++*replies;
        }(rig, target, c, &replies));
  }
  rig.simulator().Run();
  EXPECT_EQ(replies, 2);
  EXPECT_EQ(rig.meta_cache()->misses(), 1u);
  EXPECT_EQ(rig.meta_cache()->coalesced(), 1u);
}

TEST(MetaCacheTest, MetaInvalDropsTargetedEntriesAndDropAllClears) {
  Rig rig(FleetOptions(Protocol::kNfs, 2, 1, /*cache=*/true));
  bool done = false;
  rig.simulator().Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    EXPECT_TRUE((co_await rig.client(0).vfs().WriteFile("/data/s0/f", Bytes("x"))).ok());
    EXPECT_TRUE((co_await rig.client(0).vfs().Stat("/data/s0/f")).ok());
    EXPECT_GT(rig.meta_cache()->attr_entries(), 0u);

    // Targeted invalidation of everything we know about, by handle.
    proto::MetaInvalReq inval;
    auto looked = co_await rig.shard_fs(0).Lookup(rig.shard_data_parent(0), "f");
    EXPECT_TRUE(looked.ok());
    if (!looked.ok()) {
      co_return;
    }
    inval.handles.push_back(looked->fh);
    inval.entries.push_back(proto::MetaInvalEntry{rig.shard_data_parent(0), "f"});
    auto reply = co_await rig.client(0).peer().Call(rig.meta_cache()->address(),
                                                    proto::Request{std::move(inval)});
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) {
      co_return;
    }
    EXPECT_TRUE(reply->status.ok());
    EXPECT_GT(rig.meta_cache()->invalidations(), 0u);

    // drop_all wipes both tables.
    proto::MetaInvalReq drop_all;
    drop_all.drop_all = true;
    auto wiped = co_await rig.client(0).peer().Call(rig.meta_cache()->address(),
                                                    proto::Request{std::move(drop_all)});
    EXPECT_TRUE(wiped.ok());
    if (!wiped.ok()) {
      co_return;
    }
    EXPECT_TRUE(wiped->status.ok());
    EXPECT_EQ(rig.meta_cache()->attr_entries(), 0u);
    EXPECT_EQ(rig.meta_cache()->lookup_entries(), 0u);

    // The namespace still works afterwards (entries refill on demand).
    auto got = co_await rig.client(0).vfs().ReadFile("/data/s0/f");
    EXPECT_TRUE(got.ok());
    if (!got.ok()) {
      co_return;
    }
    EXPECT_EQ(Str(*got), "x");
    done = true;
  }(rig, done));
  rig.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(MetaCacheTest, EvictionKeepsTablesBounded) {
  RigOptions options = FleetOptions(Protocol::kNfs, 2, 1, /*cache=*/true);
  options.fleet.meta.max_entries = 2;
  Rig rig(options);
  bool done = false;
  rig.simulator().Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    for (int i = 0; i < 6; ++i) {
      std::string path = "/data/s0/f" + std::to_string(i);
      EXPECT_TRUE((co_await rig.client(0).vfs().WriteFile(path, Bytes("x"))).ok());
      EXPECT_TRUE((co_await rig.client(0).vfs().Stat(path)).ok());
    }
    done = true;
  }(rig, done));
  rig.simulator().Run();
  EXPECT_TRUE(done);
  EXPECT_GT(rig.meta_cache()->evictions(), 0u);
  EXPECT_LE(rig.meta_cache()->attr_entries(), 2u);
  EXPECT_LE(rig.meta_cache()->lookup_entries(), 2u);
}

}  // namespace
}  // namespace fleet
