// End-to-end NFS tests: the consistency and write-policy behaviours the
// paper attributes to the stateless protocol — close-to-open consistency,
// staleness windows under concurrent write-sharing, write-through, the
// invalidate-on-close bug, and partial-block write delaying.
#include <gtest/gtest.h>

#include "src/nfs/client.h"
#include "tests/testbed_util.h"

namespace nfs {
namespace {

using testbed::ClientMachineParams;
using testbed::Protocol;
using testbed::TestBytes;
using testbed::TestPattern;
using testbed::TestStr;
using testbed::World;

struct NfsWorld : World {
  NfsClient* fsa = nullptr;
  NfsClient* fsb = nullptr;

  explicit NfsWorld(NfsClientParams params = {}, int num_clients = 2)
      : World(Protocol::kNfs, num_clients) {
    fsa = &client(0).MountNfs("/data", server->address(), server->root(), params);
    if (num_clients > 1) {
      fsb = &client(1).MountNfs("/data", server->address(), server->root(), params);
    }
  }
};

TEST(NfsTest, WriteReadRoundTripSingleClient) {
  NfsWorld w;
  bool done = false;
  w.simulator.Spawn([](NfsWorld& w, bool& done) -> sim::Task<void> {
    auto payload = TestPattern(3 * cache::kBlockSize + 77);
    EXPECT_TRUE((co_await w.client(0).vfs().WriteFile("/data/f", payload)).ok());
    auto got = co_await w.client(0).vfs().ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(*got, payload);
    }
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(NfsTest, CloseToOpenConsistencyAcrossClients) {
  NfsWorld w;
  bool done = false;
  w.simulator.Spawn([](NfsWorld& w, bool& done) -> sim::Task<void> {
    EXPECT_TRUE((co_await w.client(0).vfs().WriteFile("/data/shared", TestBytes("v1"))).ok());
    // Sequential write-sharing: writer closed before the reader opens; NFS
    // provides consistency in this case.
    auto got = co_await w.client(1).vfs().ReadFile("/data/shared");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(TestStr(*got), "v1");
    }
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(NfsTest, ConcurrentWriteSharingServesStaleDataWithinProbeWindow) {
  NfsWorld w;
  bool checked_stale = false;
  bool checked_fresh = false;
  w.simulator.Spawn([](NfsWorld& w, bool& checked_stale, bool& checked_fresh) -> sim::Task<void> {
    vfs::Vfs& a = w.client(0).vfs();
    vfs::Vfs& b = w.client(1).vfs();
    EXPECT_TRUE((co_await a.WriteFile("/data/f", TestBytes("old!"))).ok());

    // B opens the file and reads it (fills its cache, freshens attrs).
    auto fd = co_await b.Open("/data/f", vfs::OpenFlags::ReadOnly());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    auto r1 = co_await b.Pread(*fd, 0, 16);
    EXPECT_TRUE(r1.ok() && TestStr(*r1) == "old!");

    // A rewrites the file while B still has it open (concurrent sharing).
    auto afd = co_await a.Open("/data/f", vfs::OpenFlags::ReadWrite());
    EXPECT_TRUE(afd.ok());
    if (!afd.ok()) {
      co_return;
    }
    EXPECT_TRUE((co_await a.Pwrite(*afd, 0, TestBytes("new!"))).ok());
    EXPECT_TRUE((co_await a.Close(*afd)).ok());

    // Immediately after, B's attribute cache is still fresh: it reads its
    // own stale copy. This is the NFS consistency hole.
    auto r2 = co_await b.Pread(*fd, 0, 16);
    EXPECT_TRUE(r2.ok());
    if (r2.ok()) {
      EXPECT_EQ(TestStr(*r2), "old!");
      checked_stale = true;
    }

    // After the probe interval, the next read discovers the new mtime,
    // invalidates, and fetches fresh data.
    co_await sim::Sleep(w.simulator, sim::Sec(8));
    auto r3 = co_await b.Pread(*fd, 0, 16);
    EXPECT_TRUE(r3.ok());
    if (r3.ok()) {
      EXPECT_EQ(TestStr(*r3), "new!");
      checked_fresh = true;
    }
    EXPECT_TRUE((co_await b.Close(*fd)).ok());
  }(w, checked_stale, checked_fresh));
  w.simulator.Run();
  EXPECT_TRUE(checked_stale);
  EXPECT_TRUE(checked_fresh);
}

TEST(NfsTest, CloseSynchronouslyFlushesWrites) {
  NfsWorld w;
  bool done = false;
  w.simulator.Spawn([](NfsWorld& w, bool& done) -> sim::Task<void> {
    auto payload = TestPattern(8 * cache::kBlockSize);
    EXPECT_TRUE((co_await w.client(0).vfs().WriteFile("/data/f", payload)).ok());
    // After WriteFile's close returns, the server must hold all the data.
    auto attr = w.server->fs().GetAttr(w.server->root());
    EXPECT_TRUE(attr.ok());
    EXPECT_EQ(w.client(0).peer().client_ops().Get(proto::OpKind::kWrite), 8u);
    EXPECT_GE(w.server->disk().writes(), 8u);
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(NfsTest, DeleteCannotCancelWrites) {
  NfsWorld w;
  bool done = false;
  w.simulator.Spawn([](NfsWorld& w, bool& done) -> sim::Task<void> {
    EXPECT_TRUE(
        (co_await w.client(0).vfs().WriteFile("/data/tmp", TestPattern(6 * cache::kBlockSize)))
            .ok());
    EXPECT_TRUE((co_await w.client(0).vfs().Unlink("/data/tmp")).ok());
    // "NFS cannot do this, since it synchronously writes back on close":
    // the data writes hit the server disk even though the file is gone.
    EXPECT_GE(w.server->disk().writes(), 6u);
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(NfsTest, InvalidateOnCloseBugForcesRereadFromServer) {
  NfsWorld w;  // bug enabled by default
  bool done = false;
  w.simulator.Spawn([](NfsWorld& w, bool& done) -> sim::Task<void> {
    auto payload = TestPattern(4 * cache::kBlockSize);
    EXPECT_TRUE((co_await w.client(0).vfs().WriteFile("/data/f", payload)).ok());
    uint64_t reads_before = w.client(0).peer().client_ops().Get(proto::OpKind::kRead);
    auto got = co_await w.client(0).vfs().ReadFile("/data/f");
    EXPECT_TRUE(got.ok() && *got == payload);
    uint64_t reads_after = w.client(0).peer().client_ops().Get(proto::OpKind::kRead);
    // The bug: the write-close invalidated the cache, so the reopen-read
    // pays full read RPCs.
    EXPECT_GE(reads_after - reads_before, 4u);
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(NfsTest, WithoutBugReopenReadsHitCache) {
  NfsClientParams params;
  params.invalidate_on_close = false;
  NfsWorld w(params);
  bool done = false;
  w.simulator.Spawn([](NfsWorld& w, bool& done) -> sim::Task<void> {
    auto payload = TestPattern(4 * cache::kBlockSize);
    EXPECT_TRUE((co_await w.client(0).vfs().WriteFile("/data/f", payload)).ok());
    uint64_t reads_before = w.client(0).peer().client_ops().Get(proto::OpKind::kRead);
    auto got = co_await w.client(0).vfs().ReadFile("/data/f");
    EXPECT_TRUE(got.ok() && *got == payload);
    EXPECT_EQ(w.client(0).peer().client_ops().Get(proto::OpKind::kRead), reads_before);
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(NfsTest, PartialBlockWritesAreDelayedUntilClose) {
  NfsWorld w;
  bool done = false;
  w.simulator.Spawn([](NfsWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& v = w.client(0).vfs();
    auto fd = co_await v.Open("/data/f", vfs::OpenFlags::WriteCreate());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    // 100-byte writes never reach a block boundary: the reference port
    // delays them.
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE((co_await v.Write(*fd, TestPattern(100, static_cast<uint8_t>(i)))).ok());
    }
    EXPECT_EQ(w.client(0).peer().client_ops().Get(proto::OpKind::kWrite), 0u);
    EXPECT_TRUE((co_await v.Close(*fd)).ok());
    // Close pushed the one accumulated partial block.
    EXPECT_EQ(w.client(0).peer().client_ops().Get(proto::OpKind::kWrite), 1u);
    auto got = co_await v.ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(got->size(), 500u);
    }
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(NfsTest, FsyncRacingNewWriteLosesNothing) {
  // Guard for the helper-call interleaving the interprocedural lint pass
  // (DESIGN.md §7) reasons about: FlushPartials moves each delayed block
  // out of node->partial and erases the entry *before* handing the bytes
  // to the may-suspend SpawnAsyncWrite helper, re-acquiring .begin() every
  // iteration — so a writer that runs while the flushed RPCs are still in
  // flight can mutate the map freely. Pin the observable contract: a write
  // racing an fsync of the same file loses neither its own bytes nor the
  // flushed ones, and nothing is written twice.
  NfsWorld w;
  bool done = false;
  w.simulator.Spawn([](NfsWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& v = w.client(0).vfs();
    auto fd = co_await v.Open("/data/f", vfs::OpenFlags::WriteCreate());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    // One delayed partial block, then an fsync racing the next write.
    EXPECT_TRUE((co_await v.Write(*fd, TestPattern(100, 0))).ok());
    bool fsync_done = false;
    w.simulator.Spawn([](vfs::Vfs& v, int fd, bool* flag) -> sim::Task<void> {
      EXPECT_TRUE((co_await v.Fsync(fd)).ok());
      *flag = true;
    }(v, *fd, &fsync_done));
    // 50us < one network propagation delay: the fsync's flushed write RPC
    // is still in flight when the next write lands.
    co_await sim::Sleep(w.simulator, sim::Usec(50));
    EXPECT_FALSE(fsync_done);
    EXPECT_TRUE((co_await v.Write(*fd, TestPattern(100, 1))).ok());
    EXPECT_TRUE((co_await v.Close(*fd)).ok());
    EXPECT_TRUE(fsync_done);
    // Exactly two write RPCs: the flushed partial and the raced write —
    // nothing lost, nothing duplicated.
    EXPECT_EQ(w.client(0).peer().client_ops().Get(proto::OpKind::kWrite), 2u);
    // The server holds both writes' bytes (read from the other client so
    // the first client's cache cannot answer).
    auto got = co_await w.client(1).vfs().ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      auto want = TestPattern(100, 0);
      auto second = TestPattern(100, 1);
      want.insert(want.end(), second.begin(), second.end());
      EXPECT_EQ(*got, want);
    }
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(NfsTest, FullBlockWritesGoStraightThrough) {
  NfsWorld w;
  bool done = false;
  w.simulator.Spawn([](NfsWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& v = w.client(0).vfs();
    auto fd = co_await v.Open("/data/f", vfs::OpenFlags::WriteCreate());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    EXPECT_TRUE((co_await v.Write(*fd, TestPattern(2 * cache::kBlockSize))).ok());
    co_await sim::Sleep(w.simulator, sim::Sec(1));  // let the biods drain
    EXPECT_EQ(w.client(0).peer().client_ops().Get(proto::OpKind::kWrite), 2u);
    EXPECT_TRUE((co_await v.Close(*fd)).ok());
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(NfsTest, AttributeCacheSuppressesGetattrBursts) {
  NfsWorld w;
  bool done = false;
  w.simulator.Spawn([](NfsWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& v = w.client(0).vfs();
    EXPECT_TRUE((co_await v.WriteFile("/data/f", TestBytes("x"))).ok());
    uint64_t before = w.client(0).peer().client_ops().Get(proto::OpKind::kGetAttr);
    // Stat in a tight loop: the attr cache means ~1 getattr, not 50.
    // (Each stat also costs a lookup; lookups are not cached.)
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE((co_await v.Stat("/data/f")).ok());
    }
    uint64_t after = w.client(0).peer().client_ops().Get(proto::OpKind::kGetAttr);
    EXPECT_LE(after - before, 2u);
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(NfsTest, ServerIsStatelessAcrossRestart) {
  NfsWorld w;
  bool done = false;
  w.simulator.Spawn([](NfsWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& v = w.client(0).vfs();
    EXPECT_TRUE((co_await v.WriteFile("/data/f", TestBytes("persisted"))).ok());
    // Crash and reboot the server; NFS recovery is "the server simply
    // restarts", and clients retry RPCs until it returns.
    w.server->Crash(w.network);
    co_await sim::Sleep(w.simulator, sim::Sec(2));
    w.server->Reboot(w.network);
    auto got = co_await v.ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(TestStr(*got), "persisted");
    }
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(NfsTest, ReadAheadPrefetchesSequentialBlocks) {
  NfsWorld w;
  bool done = false;
  w.simulator.Spawn([](NfsWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& v = w.client(0).vfs();
    EXPECT_TRUE((co_await v.WriteFile("/data/f", TestPattern(8 * cache::kBlockSize))).ok());
    (void)co_await v.ReadFile("/data/f");
    EXPECT_GT(w.client(0).buffer_cache().stats().read_aheads, 0u);
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(NfsTest, ClientCrashDropsDelayedPartialBlock) {
  // A delayed partial block lives in kernel memory: it dies with the client
  // and must not be written out by a close after the restart, over data
  // another client wrote in between.
  NfsWorld w;
  bool done = false;
  w.simulator.Spawn([](NfsWorld& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& a = w.client(0).vfs();
    auto stale_fd = co_await a.Open("/data/f", vfs::OpenFlags::WriteCreate());
    EXPECT_TRUE(stale_fd.ok());
    if (!stale_fd.ok()) {
      co_return;
    }
    EXPECT_TRUE((co_await a.Pwrite(*stale_fd, 0, TestBytes("DEAD"))).ok());

    w.client(0).Crash(w.network);
    co_await sim::Sleep(w.simulator, sim::Sec(1));
    w.client(0).Restart(w.network);

    EXPECT_TRUE(
        (co_await w.client(1).vfs().WriteFile("/data/f", TestBytes("after-crash-data"))).ok());
    auto fd = co_await a.Open("/data/f", vfs::OpenFlags::ReadOnly());
    EXPECT_TRUE(fd.ok());
    if (fd.ok()) {
      EXPECT_TRUE((co_await a.Close(*fd)).ok());
    }
    // The descriptor opened before the crash still names the old node.
    (void)co_await a.Close(*stale_fd);
    co_await sim::Sleep(w.simulator, sim::Sec(1));

    fs::LocalFs& fs = w.server->fs();
    auto found = co_await fs.Lookup(fs.root(), "f");
    EXPECT_TRUE(found.ok());
    if (found.ok()) {
      auto got = co_await fs.Read(found->fh, 0, 64);
      EXPECT_TRUE(got.ok());
      if (got.ok()) {
        EXPECT_EQ(TestStr(got->data.ToVector()), "after-crash-data");
      }
    }
    done = true;
  }(w, done));
  w.simulator.Run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace nfs
