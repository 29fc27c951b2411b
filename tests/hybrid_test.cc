// Tests for NFS/SNFS coexistence (§6.1): one server exporting the same file
// system to an NFS client and an SNFS client simultaneously.
#include <gtest/gtest.h>

#include "src/snfs/hybrid.h"
#include "tests/testbed_util.h"

namespace snfs {
namespace {

using testbed::ClientMachine;
using testbed::TestBytes;
using testbed::TestPattern;
using testbed::TestStr;

// A world with a hybrid server: client 0 speaks NFS, client 1 speaks SNFS.
struct HybridWorld {
  sim::Simulator simulator;
  net::Network network;
  sim::Cpu server_cpu{simulator};
  disk::Disk disk{simulator};
  fs::LocalFs fs{simulator, disk, fs::LocalFsParams{.fsid = 1, .cache_blocks = 896}};
  rpc::Peer peer;
  HybridServer hybrid;
  std::unique_ptr<ClientMachine> nfs_client;
  std::unique_ptr<ClientMachine> snfs_client;
  SnfsClient* snfs_fs = nullptr;
  nfs::NfsClient* nfs_fs = nullptr;

  explicit HybridWorld(HybridServerParams params = DefaultParams())
      : network(simulator, {}, 13),
        peer(simulator, network, server_cpu, "server"),
        hybrid(simulator, fs, peer, params) {
    nfs_client = std::make_unique<ClientMachine>(simulator, network, "nfs-client");
    snfs_client = std::make_unique<ClientMachine>(simulator, network, "snfs-client");
    nfs_fs = &nfs_client->MountNfs("/data", peer.address(), hybrid.root());
    snfs_fs = &snfs_client->MountSnfs("/data", peer.address(), hybrid.root());
    peer.Start();
    nfs_client->Start();
    snfs_client->Start();
  }

  static HybridServerParams DefaultParams() {
    HybridServerParams p;
    p.nfs_lease = sim::Sec(30);
    p.lease_scan = sim::Sec(5);
    return p;
  }
};

TEST(HybridTest, BothProtocolsInteroperateOnOneExport) {
  HybridWorld w;
  bool done = false;
  w.simulator.Spawn([](HybridWorld& w, bool& done) -> sim::Task<void> {
    // SNFS client writes (delayed), NFS client reads through the server:
    // the implicit open forces the SNFS write-back first.
    EXPECT_TRUE(
        (co_await w.snfs_client->vfs().WriteFile("/data/f", TestBytes("from-snfs"))).ok());
    auto got = co_await w.nfs_client->vfs().ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(TestStr(*got), "from-snfs");
    }
    EXPECT_GE(w.hybrid.implicit_opens(), 1u);
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(HybridTest, NfsWriteInvalidatesSnfsClientCache) {
  HybridWorld w;
  bool done = false;
  w.simulator.Spawn([](HybridWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& s = w.snfs_client->vfs();
    vfs::Vfs& n = w.nfs_client->vfs();
    // Full-block payloads: NFS delays partial-block writes client-side, so
    // only block-sized writes are guaranteed to reach the server promptly.
    std::vector<uint8_t> v1 = TestPattern(cache::kBlockSize, 1);
    std::vector<uint8_t> v2 = TestPattern(cache::kBlockSize, 2);
    EXPECT_TRUE((co_await s.WriteFile("/data/f", v1)).ok());
    // SNFS client holds the file open (cached).
    auto fd = co_await s.Open("/data/f", vfs::OpenFlags::ReadOnly());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    (void)co_await s.Pread(*fd, 0, 8);

    // The NFS client rewrites the file. Its write RPC implies an SNFS open
    // for write -> write sharing -> callback invalidates the SNFS client.
    auto nfd = co_await n.Open("/data/f", vfs::OpenFlags::ReadWrite());
    EXPECT_TRUE(nfd.ok());
    if (!nfd.ok()) {
      co_return;
    }
    EXPECT_TRUE((co_await n.Pwrite(*nfd, 0, v2)).ok());
    co_await sim::Sleep(w.simulator, sim::Sec(1));

    // The SNFS client reads again through its still-open fd and must see
    // the NFS client's data (its cache was invalidated; reads go through).
    auto got = co_await s.Pread(*fd, 0, cache::kBlockSize);
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(*got, v2);
    }
    EXPECT_GE(w.snfs_fs->callbacks_served(), 1u);
    EXPECT_TRUE((co_await n.Close(*nfd)).ok());
    EXPECT_TRUE((co_await s.Close(*fd)).ok());
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(HybridTest, LeasesExpireAndStateReturnsToClosed) {
  HybridWorld w;
  bool done = false;
  w.simulator.Spawn([](HybridWorld& w, bool& done) -> sim::Task<void> {
    EXPECT_TRUE(
        (co_await w.snfs_client->vfs().WriteFile("/data/f", TestPattern(cache::kBlockSize))).ok());
    (void)co_await w.nfs_client->vfs().ReadFile("/data/f");
    EXPECT_GE(w.hybrid.active_leases(), 1u);
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
  // Past the lease horizon the implicit opens are closed again.
  w.simulator.RunUntil(w.simulator.Now() + sim::Sec(60));
  EXPECT_EQ(w.hybrid.active_leases(), 0u);
  EXPECT_GE(w.hybrid.lease_closes(), 1u);
  const StateTable::Entry* entry =
      w.hybrid.snfs_server().state_table().Lookup(proto::FileHandle{1, 2, 0});
  if (entry != nullptr) {
    EXPECT_TRUE(entry->state == FileState::kClosed || entry->state == FileState::kClosedDirty);
  }
}

TEST(HybridTest, RepeatedNfsAccessReusesOneLease) {
  HybridWorld w;
  bool done = false;
  w.simulator.Spawn([](HybridWorld& w, bool& done) -> sim::Task<void> {
    EXPECT_TRUE(
        (co_await w.snfs_client->vfs().WriteFile("/data/f", TestPattern(4 * cache::kBlockSize)))
            .ok());
    for (int i = 0; i < 5; ++i) {
      auto got = co_await w.nfs_client->vfs().ReadFile("/data/f");
      EXPECT_TRUE(got.ok());
    }
    // One implicit open despite many accesses (the lease is extended).
    EXPECT_EQ(w.hybrid.implicit_opens(), 1u);
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(HybridTest, ReadLeaseUpgradesToWriteLease) {
  HybridWorld w;
  bool done = false;
  w.simulator.Spawn([](HybridWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& n = w.nfs_client->vfs();
    EXPECT_TRUE((co_await w.snfs_client->vfs().WriteFile("/data/f", TestBytes("x"))).ok());
    (void)co_await n.ReadFile("/data/f");  // read lease
    auto fd = co_await n.Open("/data/f", vfs::OpenFlags::ReadWrite());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    EXPECT_TRUE((co_await n.Pwrite(*fd, 0, TestBytes("y"))).ok());  // upgrade
    EXPECT_TRUE((co_await n.Close(*fd)).ok());
    EXPECT_EQ(w.hybrid.implicit_opens(), 2u);  // read open + write open
    // State reflects a single writer (the NFS host via its lease).
    const StateTable::Entry* entry =
        w.hybrid.snfs_server().state_table().Lookup(proto::FileHandle{1, 2, 0});
    EXPECT_NE(entry, nullptr);
    if (entry != nullptr) {
      EXPECT_EQ(entry->state, FileState::kOneWriter);
    }
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(HybridTest, LeaseExpiresDuringUpgradeOpen) {
  // Regression: TouchLease used to hold an iterator into leases_ across the
  // upgrade open. When the open stalls (here: an SNFS callback answered
  // after 30 s) past the lease horizon, the LeaseDaemon erases the entry
  // mid-flight; the server must re-find the lease instead of writing
  // through the dead iterator, and track the write open under a fresh one.
  sim::Simulator simulator;
  net::Network network(simulator, {}, 13);
  sim::Cpu server_cpu(simulator);
  sim::Cpu client_cpu(simulator);
  disk::Disk disk(simulator);
  fs::LocalFs fs(simulator, disk, fs::LocalFsParams{.fsid = 1, .cache_blocks = 896});
  rpc::Peer server_peer(simulator, network, server_cpu, "server");
  HybridServerParams params;
  params.nfs_lease = sim::Sec(10);
  params.lease_scan = sim::Sec(5);
  // One unhurried callback attempt so the stalled reply is what ends the
  // upgrade open (retries would muddy the window).
  params.snfs.callback_call = rpc::CallOptions{.timeout = sim::Sec(60), .max_attempts = 2};
  HybridServer hybrid(simulator, fs, server_peer, params);
  // A bare SNFS peer that answers callbacks only after 30 s: long enough
  // for the NFS lease to expire while the upgrade open waits on it.
  rpc::Peer snfs_peer(simulator, network, client_cpu, "snfs-client");
  snfs_peer.set_handler(
      // lint: coro-lambda-ok (handler and simulator share the test scope)
      [&simulator](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
        co_await sim::Sleep(simulator, sim::Sec(30));
        co_return proto::OkReply(proto::CallbackRep{});
      });
  server_peer.Start();
  snfs_peer.Start();

  bool done = false;
  simulator.Spawn([](fs::LocalFs& fs, HybridServer& hybrid, rpc::Peer& snfs_peer,
                     bool& done) -> sim::Task<void> {
    auto created = co_await fs.Create(fs.root(), "f", /*exclusive=*/true);
    EXPECT_TRUE(created.ok());
    if (!created.ok()) {
      co_return;
    }
    proto::FileHandle fh = created->fh;

    // The SNFS host takes an explicit read open, so a write open from the
    // NFS host must call it back (slowly) before completing.
    proto::OpenReq open;
    open.fh = fh;
    (void)co_await hybrid.Handle(proto::Request(open), snfs_peer.address());

    // NFS read -> implicit read open held as a lease (read sharing with the
    // SNFS host needs no callback, so this is quick).
    proto::ReadReq read;
    read.fh = fh;
    read.count = 1;
    (void)co_await hybrid.Handle(proto::Request(read), net::Address{77});
    EXPECT_EQ(hybrid.active_leases(), 1u);

    // NFS write -> lease upgrade. The write open stalls ~30 s on the SNFS
    // callback; the 10 s lease expires and the daemon erases it mid-open.
    proto::WriteReq write;
    write.fh = fh;
    write.data = std::vector<uint8_t>{0x5A};
    (void)co_await hybrid.Handle(proto::Request(write), net::Address{77});

    EXPECT_EQ(hybrid.implicit_opens(), 2u);  // read open + upgrade open
    EXPECT_GE(hybrid.lease_closes(), 1u);    // the daemon reaped the read lease
    EXPECT_EQ(hybrid.active_leases(), 1u);   // fresh lease tracking the write open
    done = true;
  }(fs, hybrid, snfs_peer, done));
  simulator.Run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace snfs
