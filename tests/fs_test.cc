// Tests for LocalFs (the server-side Unix file system) and the LocalMount
// configuration (LocalFs through the client buffer cache with delayed
// writes), exercised through the VFS syscall layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/disk/disk.h"
#include "src/fs/local_fs.h"
#include "src/fs/local_mount.h"
#include "src/sim/simulator.h"
#include "src/vfs/vfs.h"

namespace fs {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }
std::string Str(const std::vector<uint8_t>& v) { return {v.begin(), v.end()}; }

std::vector<uint8_t> Pattern(size_t n, uint8_t seed = 7) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 31 + (i >> 8));
  }
  return v;
}

// Run a coroutine to completion on a fresh simulator and require success.
#define RUN_SIM(rig, body)                                   \
  do {                                                       \
    bool completed = false;                                  \
    (rig).simulator.Spawn([](Rig& rig, bool& completed) -> sim::Task<void> body( \
        (rig), completed));                                  \
    (rig).simulator.Run();                                   \
    EXPECT_TRUE(completed);                                  \
  } while (0)

struct Rig {
  sim::Simulator simulator;
  disk::Disk disk{simulator};
  LocalFs fs{simulator, disk, LocalFsParams{.fsid = 1, .cache_blocks = 0}};
  cache::BufferCache cache{simulator, cache::BufferCacheParams{}};
  LocalMount mount{simulator, fs, cache, nullptr};
  vfs::Vfs vfs{simulator};

  Rig() {
    vfs.Mount("/", &mount);
    cache.Start();
  }
};

TEST(LocalFsTest, CreateWriteReadRoundTrip) {
  Rig rig;
  RUN_SIM(rig, {
    auto st = co_await rig.vfs.WriteFile("/hello.txt", Bytes("hello world"));
    EXPECT_TRUE(st.ok());
    auto data = co_await rig.vfs.ReadFile("/hello.txt");
    EXPECT_TRUE(data.ok());
    if (data.ok()) {
      EXPECT_EQ(Str(*data), "hello world");
    }
    completed = true;
  });
}

TEST(LocalFsTest, LargeFileMultiBlockRoundTrip) {
  Rig rig;
  RUN_SIM(rig, {
    std::vector<uint8_t> payload = Pattern(3 * kBlockSize + 123);
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/big", payload)).ok());
    auto data = co_await rig.vfs.ReadFile("/big");
    EXPECT_TRUE(data.ok());
    if (data.ok()) {
      EXPECT_EQ(*data, payload);
    }
    completed = true;
  });
}

TEST(LocalFsTest, LookupMissingFileFails) {
  Rig rig;
  RUN_SIM(rig, {
    auto r = co_await rig.vfs.Open("/nope", vfs::OpenFlags::ReadOnly());
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status(), base::ErrNoEnt());
    completed = true;
  });
}

TEST(LocalFsTest, MkdirAndNestedFiles) {
  Rig rig;
  RUN_SIM(rig, {
    EXPECT_TRUE((co_await rig.vfs.MkdirPath("/a")).ok());
    EXPECT_TRUE((co_await rig.vfs.MkdirPath("/a/b")).ok());
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/a/b/f", Bytes("x"))).ok());
    auto st = co_await rig.vfs.Stat("/a/b/f");
    EXPECT_TRUE(st.ok());
    if (st.ok()) {
      EXPECT_EQ(st->size, 1u);
      EXPECT_EQ(st->type, proto::FileType::kRegular);
    }
    auto dir = co_await rig.vfs.Stat("/a/b");
    EXPECT_TRUE(dir.ok());
    if (dir.ok()) {
      EXPECT_EQ(dir->type, proto::FileType::kDirectory);
    }
    completed = true;
  });
}

TEST(LocalFsTest, MkdirExistingFails) {
  Rig rig;
  RUN_SIM(rig, {
    EXPECT_TRUE((co_await rig.vfs.MkdirPath("/d")).ok());
    auto again = co_await rig.vfs.MkdirPath("/d");
    EXPECT_EQ(again.status(), base::ErrExist());
    completed = true;
  });
}

TEST(LocalFsTest, UnlinkRemovesAndStaleHandles) {
  Rig rig;
  RUN_SIM(rig, {
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/f", Bytes("data"))).ok());
    EXPECT_TRUE((co_await rig.vfs.Unlink("/f")).ok());
    auto r = co_await rig.vfs.Stat("/f");
    EXPECT_EQ(r.status(), base::ErrNoEnt());
    completed = true;
  });
}

// --- Remove racing a suspended operation -------------------------------------
//
// Namespace operations make the new state visible, then suspend for the
// structural disk write. A Remove that lands in that window destroys the
// inode the suspended operation was working on; these regressions pin the
// fixed behaviour (reply snapshotted before the suspension, or the handle
// re-resolved after it). Run them under ASan to catch reintroduced
// use-after-free: pre-fix, each touched the destroyed inode on resume.

TEST(LocalFsTest, CreateReplySurvivesConcurrentRemove) {
  sim::Simulator simulator;
  disk::Disk disk{simulator};
  LocalFs fs{simulator, disk, LocalFsParams{.fsid = 1, .cache_blocks = 0}};
  bool created = false;
  bool removed = false;
  simulator.Spawn([](LocalFs& fs, bool& created) -> sim::Task<void> {
    auto rep = co_await fs.Create(fs.root(), "victim", /*exclusive=*/true);
    EXPECT_TRUE(rep.ok());
    if (rep.ok()) {
      EXPECT_NE(rep->fh.fileid, 0u);
      EXPECT_EQ(rep->attr.size, 0u);
      // The file was already deleted when the metadata write finished.
      EXPECT_FALSE(fs.GetAttr(rep->fh).ok());
    }
    created = true;
  }(fs, created));
  simulator.Spawn([](LocalFs& fs, bool& removed) -> sim::Task<void> {
    // Runs while Create is suspended in its metadata write: the entry is
    // already visible, so the remove succeeds and destroys the inode.
    EXPECT_TRUE((co_await fs.Remove(fs.root(), "victim")).ok());
    removed = true;
  }(fs, removed));
  simulator.Run();
  EXPECT_TRUE(created);
  EXPECT_TRUE(removed);
}

TEST(LocalFsTest, SetAttrDuringConcurrentRemoveReturnsStale) {
  sim::Simulator simulator;
  disk::Disk disk{simulator};
  LocalFs fs{simulator, disk, LocalFsParams{.fsid = 1, .cache_blocks = 0}};
  proto::FileHandle fh;
  bool ready = false;
  simulator.Spawn([](LocalFs& fs, proto::FileHandle& fh, bool& ready) -> sim::Task<void> {
    auto rep = co_await fs.Create(fs.root(), "f", /*exclusive=*/true);
    EXPECT_TRUE(rep.ok());
    fh = rep->fh;
    ready = true;
  }(fs, fh, ready));
  simulator.Run();
  ASSERT_TRUE(ready);

  bool truncated = false;
  bool removed = false;
  simulator.Spawn([](LocalFs& fs, proto::FileHandle fh, bool& truncated) -> sim::Task<void> {
    proto::SetAttrReq req;
    req.size = 0;
    auto attr = co_await fs.SetAttr(fh, req);
    // The inode died during the metadata write; the re-resolve must report
    // that rather than answer from freed memory.
    EXPECT_EQ(attr.status(), base::ErrStale());
    truncated = true;
  }(fs, fh, truncated));
  simulator.Spawn([](LocalFs& fs, bool& removed) -> sim::Task<void> {
    EXPECT_TRUE((co_await fs.Remove(fs.root(), "f")).ok());
    removed = true;
  }(fs, removed));
  simulator.Run();
  EXPECT_TRUE(truncated);
  EXPECT_TRUE(removed);
}

TEST(LocalFsTest, ReadDuringConcurrentRemoveReturnsStale) {
  sim::Simulator simulator;
  disk::Disk disk{simulator};
  LocalFs fs{simulator, disk, LocalFsParams{.fsid = 1, .cache_blocks = 0}};
  proto::FileHandle fh;
  bool ready = false;
  simulator.Spawn([](LocalFs& fs, proto::FileHandle& fh, bool& ready) -> sim::Task<void> {
    auto rep = co_await fs.Create(fs.root(), "f", /*exclusive=*/true);
    EXPECT_TRUE(rep.ok());
    fh = rep->fh;
    // Populate in memory only so the read below must miss the server cache
    // and suspend on the disk.
    auto attr = co_await fs.Write(fh, 0, Bytes("payload"), LocalFs::WriteMode::kMemory);
    EXPECT_TRUE(attr.ok());
    ready = true;
  }(fs, fh, ready));
  simulator.Run();
  ASSERT_TRUE(ready);

  bool read_done = false;
  bool removed = false;
  simulator.Spawn([](LocalFs& fs, proto::FileHandle fh, bool& read_done) -> sim::Task<void> {
    auto rep = co_await fs.Read(fh, 0, kBlockSize);
    // The remove landed while the disk read was in flight.
    EXPECT_EQ(rep.status(), base::ErrStale());
    read_done = true;
  }(fs, fh, read_done));
  simulator.Spawn([](LocalFs& fs, bool& removed) -> sim::Task<void> {
    EXPECT_TRUE((co_await fs.Remove(fs.root(), "f")).ok());
    removed = true;
  }(fs, removed));
  simulator.Run();
  EXPECT_TRUE(read_done);
  EXPECT_TRUE(removed);
}

TEST(LocalFsTest, RmdirOnlyWhenEmpty) {
  Rig rig;
  RUN_SIM(rig, {
    EXPECT_TRUE((co_await rig.vfs.MkdirPath("/d")).ok());
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/d/f", Bytes("x"))).ok());
    EXPECT_EQ((co_await rig.vfs.RmdirPath("/d")).status(), base::ErrNotEmpty());
    EXPECT_TRUE((co_await rig.vfs.Unlink("/d/f")).ok());
    EXPECT_TRUE((co_await rig.vfs.RmdirPath("/d")).ok());
    completed = true;
  });
}

TEST(LocalFsTest, RenameMovesFile) {
  Rig rig;
  RUN_SIM(rig, {
    EXPECT_TRUE((co_await rig.vfs.MkdirPath("/src")).ok());
    EXPECT_TRUE((co_await rig.vfs.MkdirPath("/dst")).ok());
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/src/f", Bytes("payload"))).ok());
    // Flush so the data survives the cache's view of the old fileid path.
    EXPECT_TRUE((co_await rig.vfs.Rename("/src/f", "/dst/g")).ok());
    EXPECT_EQ((co_await rig.vfs.Stat("/src/f")).status(), base::ErrNoEnt());
    auto data = co_await rig.vfs.ReadFile("/dst/g");
    EXPECT_TRUE(data.ok());
    if (data.ok()) {
      EXPECT_EQ(Str(*data), "payload");
    }
    completed = true;
  });
}

TEST(LocalFsTest, ReadDirListsEntries) {
  Rig rig;
  RUN_SIM(rig, {
    EXPECT_TRUE((co_await rig.vfs.MkdirPath("/d")).ok());
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE((co_await rig.vfs.WriteFile("/d/f" + std::to_string(i), Bytes("x"))).ok());
    }
    auto entries = co_await rig.vfs.ReadDir("/d");
    EXPECT_TRUE(entries.ok());
    if (entries.ok()) {
      EXPECT_EQ(entries->size(), 100u);
    }
    completed = true;
  });
}

TEST(LocalFsTest, TruncateOnReopenWithWriteCreate) {
  Rig rig;
  RUN_SIM(rig, {
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/f", Pattern(10000))).ok());
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/f", Bytes("tiny"))).ok());
    auto data = co_await rig.vfs.ReadFile("/f");
    EXPECT_TRUE(data.ok());
    if (data.ok()) {
      EXPECT_EQ(Str(*data), "tiny");
    }
    completed = true;
  });
}

TEST(LocalFsTest, OverwriteMiddleOfFile) {
  Rig rig;
  RUN_SIM(rig, {
    std::vector<uint8_t> payload = Pattern(2 * kBlockSize);
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/f", payload)).ok());
    auto fd = co_await rig.vfs.Open("/f", vfs::OpenFlags::ReadWrite());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    EXPECT_TRUE((co_await rig.vfs.Pwrite(*fd, 1000, Bytes("XYZ"))).ok());
    EXPECT_TRUE((co_await rig.vfs.Close(*fd)).ok());
    auto data = co_await rig.vfs.ReadFile("/f");
    EXPECT_TRUE(data.ok());
    if (data.ok()) {
      EXPECT_EQ(data->size(), payload.size());
      EXPECT_EQ((*data)[999], payload[999]);
      EXPECT_EQ((*data)[1000], 'X');
      EXPECT_EQ((*data)[1002], 'Z');
      EXPECT_EQ((*data)[1003], payload[1003]);
    }
    completed = true;
  });
}

// LocalFs block storage, driven directly: each helper runs one operation on
// file "f" to completion.
struct BlockRig {
  sim::Simulator simulator;
  disk::Disk disk{simulator};
  LocalFs fs{simulator, disk, LocalFsParams{.fsid = 1, .cache_blocks = 0}};
  proto::FileHandle fh;

  BlockRig() {
    simulator.Spawn([](LocalFs& fs, proto::FileHandle& fh) -> sim::Task<void> {
      auto rep = co_await fs.Create(fs.root(), "f", /*exclusive=*/true);
      CHECK(rep.ok());
      fh = rep->fh;
    }(fs, fh));
    simulator.Run();
  }

  proto::Attr Write(uint64_t offset, proto::Bytes data) {
    proto::Attr attr;
    simulator.Spawn([](LocalFs& fs, proto::FileHandle fh, uint64_t offset, proto::Bytes data,
                       proto::Attr& attr) -> sim::Task<void> {
      auto rep = co_await fs.Write(fh, offset, std::move(data), LocalFs::WriteMode::kMemory);
      CHECK(rep.ok());
      attr = *rep;
    }(fs, fh, offset, std::move(data), attr));
    simulator.Run();
    return attr;
  }

  proto::ReadRep Read(uint64_t offset, uint32_t count) {
    proto::ReadRep out;
    simulator.Spawn([](LocalFs& fs, proto::FileHandle fh, uint64_t offset, uint32_t count,
                       proto::ReadRep& out) -> sim::Task<void> {
      auto rep = co_await fs.Read(fh, offset, count);
      CHECK(rep.ok());
      out = std::move(*rep);
    }(fs, fh, offset, count, out));
    simulator.Run();
    return out;
  }

  proto::Attr Truncate(uint64_t size) {
    proto::Attr attr;
    simulator.Spawn([](LocalFs& fs, proto::FileHandle fh, uint64_t size,
                       proto::Attr& attr) -> sim::Task<void> {
      proto::SetAttrReq req;
      req.fh = fh;
      req.size = size;
      auto rep = co_await fs.SetAttr(fh, req);
      CHECK(rep.ok());
      attr = *rep;
    }(fs, fh, size, attr));
    simulator.Run();
    return attr;
  }
};

std::vector<uint8_t> Slice(const std::vector<uint8_t>& v, uint64_t from, uint64_t to) {
  return {v.begin() + static_cast<int64_t>(from), v.begin() + static_cast<int64_t>(to)};
}

TEST(LocalFsBlocksTest, ReadAcrossBlockBoundaries) {
  BlockRig rig;
  std::vector<uint8_t> payload = Pattern(3 * kBlockSize);
  rig.Write(0, Pattern(3 * kBlockSize));
  EXPECT_EQ(rig.Read(kBlockSize - 100, 300).data.ToVector(),
            Slice(payload, kBlockSize - 100, kBlockSize + 200));
  // Two boundaries, stopping at EOF.
  proto::ReadRep rep = rig.Read(kBlockSize - 1, 3 * kBlockSize);
  EXPECT_EQ(rep.data.ToVector(), Slice(payload, kBlockSize - 1, 3 * kBlockSize));
  EXPECT_TRUE(rep.eof);
}

TEST(LocalFsBlocksTest, ShortLastBlockGrowsOnAppend) {
  BlockRig rig;
  std::vector<uint8_t> payload = Pattern(kBlockSize + 123);
  EXPECT_EQ(rig.Write(0, Pattern(kBlockSize + 123)).size, kBlockSize + 123);
  proto::ReadRep tail = rig.Read(kBlockSize, kBlockSize);
  EXPECT_EQ(tail.data.ToVector(), Slice(payload, kBlockSize, kBlockSize + 123));
  EXPECT_TRUE(tail.eof);
  EXPECT_EQ(rig.Write(kBlockSize + 123, Bytes("xyz")).size, kBlockSize + 126);
  std::vector<uint8_t> expected = Slice(payload, kBlockSize + 120, kBlockSize + 123);
  expected.insert(expected.end(), {'x', 'y', 'z'});
  EXPECT_EQ(rig.Read(kBlockSize + 120, kBlockSize).data.ToVector(), expected);
}

TEST(LocalFsBlocksTest, TruncateInsideABlockThenExtendReadsZeros) {
  BlockRig rig;
  std::vector<uint8_t> payload = Pattern(2 * kBlockSize);
  rig.Write(0, Pattern(2 * kBlockSize));
  EXPECT_EQ(rig.Truncate(kBlockSize + 100).size, kBlockSize + 100);
  EXPECT_EQ(rig.Truncate(3 * kBlockSize).size, 3 * kBlockSize);
  std::vector<uint8_t> expected = Slice(payload, 0, kBlockSize + 100);
  expected.resize(3 * kBlockSize, 0);
  EXPECT_EQ(rig.Read(0, 3 * kBlockSize).data.ToVector(), expected);
  // The trimmed block alone: the bytes cut off do not come back.
  EXPECT_EQ(rig.Read(kBlockSize, kBlockSize).data.ToVector(),
            Slice(expected, kBlockSize, 2 * kBlockSize));
}

TEST(LocalFsBlocksTest, SparseWritePastEofLeavesAZeroGap) {
  BlockRig rig;
  rig.Write(0, Bytes("abc"));
  std::vector<uint8_t> far = Pattern(100);
  EXPECT_EQ(rig.Write(2 * kBlockSize + 50, Pattern(100)).size, 2 * kBlockSize + 150);
  std::vector<uint8_t> expected(2 * kBlockSize + 150, 0);
  std::copy_n("abc", 3, expected.begin());
  std::copy(far.begin(), far.end(), expected.begin() + 2 * kBlockSize + 50);
  EXPECT_EQ(rig.Read(0, 3 * kBlockSize).data.ToVector(), expected);
  EXPECT_EQ(rig.Read(kBlockSize, kBlockSize).data.ToVector(),
            std::vector<uint8_t>(kBlockSize, 0));
}

TEST(LocalFsBlocksTest, ReadReplyKeepsItsBytesAfterAnOverlappingWrite) {
  BlockRig rig;
  std::vector<uint8_t> before = Pattern(2 * kBlockSize, 1);
  rig.Write(0, Pattern(2 * kBlockSize, 1));
  proto::ReadRep block = rig.Read(0, kBlockSize);            // a slice of block 0
  proto::ReadRep span = rig.Read(kBlockSize - 10, 20);       // assembled
  rig.Write(5, Bytes("overwritten"));                        // part of block 0
  rig.Write(kBlockSize - 5, Bytes("0123456789"));            // across the boundary
  EXPECT_EQ(block.data.ToVector(), Slice(before, 0, kBlockSize));
  EXPECT_EQ(span.data.ToVector(), Slice(before, kBlockSize - 10, kBlockSize + 10));
  rig.Write(0, Pattern(kBlockSize, 2));                      // all of block 0
  EXPECT_EQ(block.data.ToVector(), Slice(before, 0, kBlockSize));
  EXPECT_EQ(rig.Read(0, kBlockSize).data.ToVector(), Pattern(kBlockSize, 2));
}

TEST(LocalFsBlocksTest, ReadsOfAnUnchangedBlockShareOneBuffer) {
  BlockRig rig;
  proto::Bytes first(Pattern(kBlockSize));
  rig.Write(0, first);  // exactly one block: adopted, not copied
  rig.Write(kBlockSize, Pattern(kBlockSize));
  proto::ReadRep a = rig.Read(0, kBlockSize);
  proto::ReadRep b = rig.Read(0, kBlockSize);
  EXPECT_EQ(a.data.data(), first.data());
  EXPECT_EQ(b.data.data(), a.data.data());
  EXPECT_EQ(rig.Read(100, 50).data.data(), a.data.data() + 100);
  EXPECT_NE(rig.Read(kBlockSize, kBlockSize).data.data(), a.data.data());
  // A write replaces the block; later readers get the new buffer.
  rig.Write(10, Bytes("x"));
  EXPECT_NE(rig.Read(0, kBlockSize).data.data(), a.data.data());
}

TEST(LocalMountTest, DelayedWritesReachDiskOnlyAfterSync) {
  Rig rig;
  RUN_SIM(rig, {
    uint64_t writes_before = rig.disk.writes();
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/f", Pattern(8 * kBlockSize))).ok());
    // Data writes are delayed; only metadata (create) hit the disk so far.
    uint64_t after_write = rig.disk.writes();
    EXPECT_LT(after_write - writes_before, 3u);
    EXPECT_TRUE(rig.cache.HasDirty(rig.mount.mount_id(), 2));
    completed = true;
  });
  // Let the 30 s sync daemon run.
  rig.simulator.RunUntil(sim::Sec(65));
  EXPECT_GE(rig.disk.writes(), 8u);
  EXPECT_EQ(rig.cache.DirtyBlockCount(), 0u);
}

TEST(LocalMountTest, DeleteCancelsDelayedWrites) {
  Rig rig;
  RUN_SIM(rig, {
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/tmpfile", Pattern(10 * kBlockSize))).ok());
    EXPECT_TRUE((co_await rig.vfs.Unlink("/tmpfile")).ok());
    completed = true;
  });
  rig.simulator.RunUntil(sim::Sec(65));
  // Data blocks never reached the disk; only metadata writes happened.
  EXPECT_LT(rig.disk.writes(), 4u);
  EXPECT_GE(rig.cache.stats().cancelled_writes, 10u);
}

TEST(LocalMountTest, FsyncForcesWriteback) {
  Rig rig;
  RUN_SIM(rig, {
    auto fd = co_await rig.vfs.Open("/f", vfs::OpenFlags::WriteCreate());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    EXPECT_TRUE((co_await rig.vfs.Write(*fd, Pattern(4 * kBlockSize))).ok());
    uint64_t before = rig.disk.writes();
    EXPECT_TRUE((co_await rig.vfs.Fsync(*fd)).ok());
    EXPECT_GE(rig.disk.writes(), before + 4);
    EXPECT_TRUE((co_await rig.vfs.Close(*fd)).ok());
    completed = true;
  });
}

TEST(LocalMountTest, ReadsHitCacheAfterFirstFetch) {
  Rig rig;
  RUN_SIM(rig, {
    EXPECT_TRUE((co_await rig.vfs.WriteFile("/f", Pattern(4 * kBlockSize))).ok());
    (void)co_await rig.vfs.ReadFile("/f");
    uint64_t reads_before = rig.disk.reads();
    (void)co_await rig.vfs.ReadFile("/f");
    EXPECT_EQ(rig.disk.reads(), reads_before);  // all hits
    completed = true;
  });
}

TEST(LocalMountTest, SequentialAndPositionalIo) {
  Rig rig;
  RUN_SIM(rig, {
    auto fd = co_await rig.vfs.Open("/f", vfs::OpenFlags::WriteCreate());
    EXPECT_TRUE(fd.ok());
    if (!fd.ok()) {
      co_return;
    }
    EXPECT_TRUE((co_await rig.vfs.Write(*fd, Bytes("abc"))).ok());
    EXPECT_TRUE((co_await rig.vfs.Write(*fd, Bytes("def"))).ok());
    EXPECT_TRUE((co_await rig.vfs.Close(*fd)).ok());
    auto fd2 = co_await rig.vfs.Open("/f", vfs::OpenFlags::ReadOnly());
    EXPECT_TRUE(fd2.ok());
    if (!fd2.ok()) {
      co_return;
    }
    auto first = co_await rig.vfs.Read(*fd2, 2);
    auto rest = co_await rig.vfs.Read(*fd2, 10);
    EXPECT_TRUE(first.ok() && rest.ok());
    if (first.ok() && rest.ok()) {
      EXPECT_EQ(Str(*first), "ab");
      EXPECT_EQ(Str(*rest), "cdef");
    }
    EXPECT_TRUE((co_await rig.vfs.Close(*fd2)).ok());
    completed = true;
  });
}

TEST(BufferCacheTest, LruEvictionBoundsSize) {
  sim::Simulator simulator;
  cache::BufferCacheParams params;
  params.capacity_blocks = 8;
  params.enable_sync_daemon = false;
  cache::BufferCache cache(simulator, params);
  cache::Backing backing;
  int fetches = 0;
  // lint: coro-lambda-ok (backing and counters share the test scope)
  backing.fetch = [&fetches](uint64_t, uint64_t) -> sim::Task<base::Result<std::vector<uint8_t>>> {
    ++fetches;
    co_return std::vector<uint8_t>(cache::kBlockSize, 0xAB);
  };
  int stores = 0;
  // lint: coro-lambda-ok (backing and counters share the test scope)
  backing.store = [&stores](uint64_t, uint64_t,
                            std::vector<uint8_t>) -> sim::Task<base::Result<void>> {
    ++stores;
    co_return base::OkStatus();
  };
  int mount = cache.RegisterMount(std::move(backing));
  bool completed = false;
  simulator.Spawn([](cache::BufferCache& cache, int mount, bool& completed) -> sim::Task<void> {
    for (uint64_t f = 0; f < 4; ++f) {
      for (uint64_t b = 0; b < 8; ++b) {
        auto r = co_await cache.Read(mount, f, b * cache::kBlockSize, cache::kBlockSize,
                                     1 << 20, /*read_ahead=*/false);
        EXPECT_TRUE(r.ok());
      }
    }
    EXPECT_LE(cache.size_blocks(), 8u);
    completed = true;
  }(cache, mount, completed));
  simulator.Run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(fetches, 32);
  EXPECT_EQ(stores, 0);  // nothing dirty
}

TEST(BufferCacheTest, DirtyEvictionWritesBack) {
  sim::Simulator simulator;
  cache::BufferCacheParams params;
  params.capacity_blocks = 4;
  params.enable_sync_daemon = false;
  cache::BufferCache cache(simulator, params);
  cache::Backing backing;
  int stores = 0;
  backing.fetch = [](uint64_t, uint64_t) -> sim::Task<base::Result<std::vector<uint8_t>>> {
    co_return std::vector<uint8_t>();
  };
  // lint: coro-lambda-ok (backing and counters share the test scope)
  backing.store = [&stores](uint64_t, uint64_t,
                            std::vector<uint8_t> data) -> sim::Task<base::Result<void>> {
    ++stores;
    EXPECT_EQ(data.size(), cache::kBlockSize);
    co_return base::OkStatus();
  };
  int mount = cache.RegisterMount(std::move(backing));
  bool completed = false;
  simulator.Spawn([](cache::BufferCache& cache, int mount, bool& completed) -> sim::Task<void> {
    std::vector<uint8_t> block(cache::kBlockSize, 1);
    for (uint64_t b = 0; b < 10; ++b) {
      EXPECT_TRUE(
          (co_await cache.WriteDelayed(mount, 1, b * cache::kBlockSize, block, 0)).ok());
    }
    completed = true;
  }(cache, mount, completed));
  simulator.Run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(stores, 6);  // 10 dirtied, 4 still cached
  EXPECT_LE(cache.size_blocks(), 4u);
}

TEST(BufferCacheTest, RedirtyDuringEvictionWritebackKeepsNewestData) {
  // Guard for the eviction interleaving: a dirty block's eviction write-back
  // suspends in the backing store, the block is re-dirtied meanwhile, and a
  // flush of the new data must wait out the in-flight store (StoreBlock's
  // in_flight_stores_ check) so the older bytes can never land last.
  sim::Simulator simulator;
  cache::BufferCacheParams params;
  params.capacity_blocks = 1;
  params.enable_sync_daemon = false;
  cache::BufferCache cache(simulator, params);
  cache::Backing backing;
  // Every store takes 10 ms, so the eviction write-back is still in flight
  // when the test re-dirties the block. Completions are logged in order.
  std::vector<std::pair<uint64_t, uint8_t>> landed;  // (block, first byte)
  std::map<uint64_t, std::vector<uint8_t>> disk;
  backing.fetch = [](uint64_t, uint64_t) -> sim::Task<base::Result<std::vector<uint8_t>>> {
    co_return std::vector<uint8_t>();
  };
  // lint: coro-lambda-ok (backing and logs share the test scope)
  backing.store = [&simulator, &landed, &disk](
                      uint64_t, uint64_t block,
                      std::vector<uint8_t> data) -> sim::Task<base::Result<void>> {
    co_await sim::Sleep(simulator, sim::Msec(10));
    landed.emplace_back(block, data.empty() ? 0 : data[0]);
    disk[block] = std::move(data);
    co_return base::OkStatus();
  };
  int mount = cache.RegisterMount(std::move(backing));
  bool completed = false;
  simulator.Spawn([](cache::BufferCache& cache, int mount, bool& completed) -> sim::Task<void> {
    std::vector<uint8_t> v1(cache::kBlockSize, 0x01);
    std::vector<uint8_t> v2(cache::kBlockSize, 0x02);
    std::vector<uint8_t> v3(cache::kBlockSize, 0x03);
    // Dirty block 0, then dirty block 1: the one-block cache evicts block 0,
    // whose slow write-back (v1) is now in flight.
    EXPECT_TRUE((co_await cache.WriteDelayed(mount, 1, 0, v1, 0)).ok());
    EXPECT_TRUE((co_await cache.WriteDelayed(mount, 1, cache::kBlockSize, v2, 0)).ok());
    // Re-dirty block 0 with newer bytes while the v1 store is sleeping.
    EXPECT_TRUE((co_await cache.WriteDelayed(mount, 1, 0, v3, 0)).ok());
    co_await cache.FlushAll();
    completed = true;
  }(cache, mount, completed));
  simulator.Run();
  EXPECT_TRUE(completed);
  // Block 0 was stored twice, strictly old-then-new.
  std::vector<uint8_t> block0_order;
  for (const auto& [block, byte] : landed) {
    if (block == 0) {
      block0_order.push_back(byte);
    }
  }
  EXPECT_EQ(block0_order, (std::vector<uint8_t>{0x01, 0x03}));
  ASSERT_EQ(disk.count(0), 1u);
  ASSERT_EQ(disk.count(1), 1u);
  EXPECT_EQ(disk[0], std::vector<uint8_t>(cache::kBlockSize, 0x03));
  EXPECT_EQ(disk[1], std::vector<uint8_t>(cache::kBlockSize, 0x02));
}

TEST(BufferCacheTest, AgeBasedSyncOnlyWritesOldBlocks) {
  sim::Simulator simulator;
  cache::BufferCacheParams params;
  params.capacity_blocks = 64;
  params.sync_policy = cache::SyncPolicy::kAgeBased;
  params.sync_interval = sim::Sec(5);
  params.dirty_age = sim::Sec(30);
  cache::BufferCache cache(simulator, params);
  cache::Backing backing;
  int stores = 0;
  backing.fetch = [](uint64_t, uint64_t) -> sim::Task<base::Result<std::vector<uint8_t>>> {
    co_return std::vector<uint8_t>();
  };
  // lint: coro-lambda-ok (backing and counters share the test scope)
  backing.store = [&stores](uint64_t, uint64_t,
                            std::vector<uint8_t>) -> sim::Task<base::Result<void>> {
    ++stores;
    co_return base::OkStatus();
  };
  int mount = cache.RegisterMount(std::move(backing));
  cache.Start();
  simulator.Spawn([](cache::BufferCache& cache, int mount) -> sim::Task<void> {
    std::vector<uint8_t> block(cache::kBlockSize, 1);
    EXPECT_TRUE((co_await cache.WriteDelayed(mount, 1, 0, block, 0)).ok());
  }(cache, mount));
  simulator.RunUntil(sim::Sec(20));
  EXPECT_EQ(stores, 0);  // not yet 30 s old
  simulator.RunUntil(sim::Sec(40));
  EXPECT_EQ(stores, 1);
  cache.Stop();
  simulator.RunUntil(sim::Sec(50));
}

TEST(BufferCacheTest, CancelDirtyDropsWithoutStore) {
  sim::Simulator simulator;
  cache::BufferCacheParams params;
  params.enable_sync_daemon = false;
  cache::BufferCache cache(simulator, params);
  cache::Backing backing;
  int stores = 0;
  backing.fetch = [](uint64_t, uint64_t) -> sim::Task<base::Result<std::vector<uint8_t>>> {
    co_return std::vector<uint8_t>();
  };
  // lint: coro-lambda-ok (backing and counters share the test scope)
  backing.store = [&stores](uint64_t, uint64_t,
                            std::vector<uint8_t>) -> sim::Task<base::Result<void>> {
    ++stores;
    co_return base::OkStatus();
  };
  int mount = cache.RegisterMount(std::move(backing));
  simulator.Spawn([](cache::BufferCache& cache, int mount) -> sim::Task<void> {
    std::vector<uint8_t> block(cache::kBlockSize, 1);
    for (uint64_t b = 0; b < 5; ++b) {
      EXPECT_TRUE((co_await cache.WriteDelayed(mount, 9, b * cache::kBlockSize, block, 0)).ok());
    }
    EXPECT_TRUE(cache.HasDirty(mount, 9));
    EXPECT_EQ(cache.CancelDirty(mount, 9), 5u);
    EXPECT_FALSE(cache.HasDirty(mount, 9));
    co_await cache.FlushAll();
  }(cache, mount));
  simulator.Run();
  EXPECT_EQ(stores, 0);
}

// Sub-block reads through BufferCache::Read, checked byte for byte against
// the reference file: two full blocks and a short EOF block, served to the
// cache block by block the way LocalMount serves it.
struct SubBlockRig {
  static constexpr uint64_t kFileSize = 2 * cache::kBlockSize + 1000;

  sim::Simulator simulator;
  cache::BufferCache cache{simulator, cache::BufferCacheParams{.enable_sync_daemon = false}};
  std::vector<uint8_t> file = Pattern(kFileSize);
  int mount = -1;

  SubBlockRig() {
    cache::Backing backing;
    backing.fetch = [file = file](uint64_t,
                                  uint64_t block) -> sim::Task<base::Result<std::vector<uint8_t>>> {
      uint64_t from = std::min<uint64_t>(file.size(), block * cache::kBlockSize);
      uint64_t to = std::min<uint64_t>(file.size(), from + cache::kBlockSize);
      co_return std::vector<uint8_t>(file.begin() + static_cast<int64_t>(from),
                                     file.begin() + static_cast<int64_t>(to));
    };
    backing.store = [](uint64_t, uint64_t, std::vector<uint8_t>) -> sim::Task<base::Result<void>> {
      co_return base::OkStatus();
    };
    mount = cache.RegisterMount(std::move(backing));
  }

  // Reads [offset, offset + count) of file 1, believed to be `file_size`
  // bytes long, to completion.
  std::vector<uint8_t> Read(uint64_t offset, uint32_t count, uint64_t file_size = kFileSize) {
    std::vector<uint8_t> out;
    bool completed = false;
    simulator.Spawn([](cache::BufferCache& cache, int mount, uint64_t offset, uint32_t count,
                       uint64_t file_size, std::vector<uint8_t>& out,
                       bool& completed) -> sim::Task<void> {
      auto r = co_await cache.Read(mount, 1, offset, count, file_size, /*read_ahead=*/false);
      EXPECT_TRUE(r.ok());
      if (r.ok()) {
        out = std::move(*r);
      }
      completed = true;
    }(cache, mount, offset, count, file_size, out, completed));
    simulator.Run();
    EXPECT_TRUE(completed);
    return out;
  }

  std::vector<uint8_t> Slice(uint64_t from, uint64_t to) const {
    return {file.begin() + static_cast<int64_t>(from), file.begin() + static_cast<int64_t>(to)};
  }
};

TEST(BufferCacheTest, ReadWithinOneBlockIsByteExact) {
  SubBlockRig rig;
  uint64_t middle = cache::kBlockSize;
  EXPECT_EQ(rig.Read(100, 200), rig.Slice(100, 300));
  EXPECT_EQ(rig.Read(middle + 7, 93), rig.Slice(middle + 7, middle + 100));
  // Again from the now-cached first block.
  EXPECT_EQ(rig.Read(150, 10), rig.Slice(150, 160));
  EXPECT_EQ(rig.cache.stats().hits, 1u);
}

TEST(BufferCacheTest, ReadAcrossThreeBlocksEndsAtShortEofBlock) {
  SubBlockRig rig;
  // Starts 96 bytes before the first boundary and asks for far more than
  // the file holds: the result stops at EOF inside the short last block.
  uint64_t offset = cache::kBlockSize - 96;
  EXPECT_EQ(rig.Read(offset, 4 * cache::kBlockSize), rig.Slice(offset, SubBlockRig::kFileSize));
  // Warm: the same read served entirely from the cache.
  EXPECT_EQ(rig.Read(offset, 4 * cache::kBlockSize), rig.Slice(offset, SubBlockRig::kFileSize));
  EXPECT_EQ(rig.cache.stats().hits, 3u);
}

TEST(BufferCacheTest, ReadStartingPastAShortCachedBlockReturnsNothing) {
  SubBlockRig rig;
  uint64_t last_block = 2 * cache::kBlockSize;
  // Dirty a short last block: the write fetches the 1000 EOF bytes and
  // appends 24, so the cached block holds 1024 bytes.
  bool written = false;
  rig.simulator.Spawn([](cache::BufferCache& cache, int mount, uint64_t at,
                         bool& written) -> sim::Task<void> {
    EXPECT_TRUE(
        (co_await cache.WriteDelayed(mount, 1, at, std::vector<uint8_t>(24, 0xEE), at)).ok());
    written = true;
  }(rig.cache, rig.mount, SubBlockRig::kFileSize, written));
  rig.simulator.Run();
  ASSERT_TRUE(written);
  // A caller that believes the file is longer reads from past the end of
  // the dirty block: it is used as is (dirty wins), and holds nothing there.
  EXPECT_EQ(rig.Read(last_block + 1500, 100, last_block + 2000), std::vector<uint8_t>());
  // A read that starts in the middle block runs on into the short block
  // and stops where the block's bytes end.
  std::vector<uint8_t> expected = rig.Slice(last_block - 10, SubBlockRig::kFileSize);
  expected.insert(expected.end(), 24, 0xEE);
  EXPECT_EQ(rig.Read(last_block - 10, 3000, last_block + 2000), expected);
}

}  // namespace
}  // namespace fs
