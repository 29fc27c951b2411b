// Protocol conformance suite: the same sharing scenarios run against all
// three server protocols (NFS, SNFS, NQNFS), with per-protocol expectations
// from the papers:
//
//  sequential sharing   write, close, then read elsewhere — consistent on
//                       all three (NFS probes attributes on every open;
//                       SNFS calls back the writer; NQNFS vacates leases);
//  concurrent write     reads during another client's write-open — NFS
//                       serves stale data inside its probe window, SNFS and
//                       NQNFS never do;
//  write-sharing        the *mechanism* behind the previous row: SNFS
//                       disables caching via callbacks, NQNFS ping-pongs
//                       leases via vacates, NFS has no mechanism at all;
//  crash during dirty   a server crash while a client holds dirty delayed
//                       writes — afterwards every reader sees exactly the
//                       old or the new version, never a mix;
//  namespace round trip create, list (several readdir pages), rename,
//                       remove and rmdir through the client — the listing
//                       matches the server's own, in order.
//  server vocabulary    each server answers only its own protocol's
//                       requests and rejects the others' as unsupported.
//
// Plus the original property test: random multi-client workloads against an
// in-memory oracle, serialized by a (simulated) global lock, mirroring the
// paper's proviso that consistency holds "provided that some other
// mechanism (such as file locking) serializes the reads and writes".
// SNFS and NQNFS must match the oracle on every seed; NFS may go stale.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/sim/random.h"
#include "src/sim/sync.h"
#include "src/trace/checker.h"
#include "src/trace/trace.h"
#include "tests/testbed_util.h"

namespace {

// Records the whole run and, on Check(), asserts the causal-trace checker
// agrees with the data oracle: no stale reads, no expired-lease reads, no
// concurrent dirty files, no double-executed non-idempotent RPCs.
class ScopedTraceCheck {
 public:
  explicit ScopedTraceCheck(sim::Simulator& simulator) : recorder_(simulator) {
    trace::SetActive(&recorder_);
  }
  ~ScopedTraceCheck() { trace::SetActive(nullptr); }

  void Check() {
    trace::SetActive(nullptr);
    EXPECT_GT(recorder_.events().size(), 0u);
    std::vector<trace::Violation> violations = trace::CheckTrace(recorder_);
    EXPECT_TRUE(violations.empty())
        << violations.size() << " trace violations; first: [" << violations.front().rule << "] "
        << violations.front().message;
  }

 private:
  trace::Recorder recorder_;
};

using testbed::ClientMachineParams;
using testbed::MountData;
using testbed::Protocol;
using testbed::ProtocolLabel;
using testbed::World;

// --- scenario 1: sequential (close-to-open) sharing --------------------------

sim::Task<void> SequentialSharingScenario(World& w, bool* finished) {
  vfs::Vfs& a = w.client(0).vfs();
  vfs::Vfs& b = w.client(1).vfs();

  EXPECT_TRUE((co_await a.WriteFile("/data/f", testbed::TestBytes("version-one"))).ok());
  co_await sim::Sleep(w.simulator, sim::Sec(10));
  auto got = co_await b.ReadFile("/data/f");
  EXPECT_TRUE(got.ok());
  if (!got.ok()) {
    co_return;
  }
  EXPECT_EQ(testbed::TestStr(*got), "version-one");

  EXPECT_TRUE((co_await a.WriteFile("/data/f", testbed::TestBytes("version-two"))).ok());
  co_await sim::Sleep(w.simulator, sim::Sec(10));
  got = co_await b.ReadFile("/data/f");
  EXPECT_TRUE(got.ok());
  if (!got.ok()) {
    co_return;
  }
  EXPECT_EQ(testbed::TestStr(*got), "version-two");
  *finished = true;
}

// --- scenario 2/3: concurrent write-sharing ----------------------------------

// Reads *during* the writer's open: SNFS must stay consistent (non-cachable
// mode), NQNFS must stay consistent (lease ping-pong), NFS serves stale
// data within its probe window — all three behaviours asserted explicitly.
sim::Task<void> WriteSharingProbe(World& w, bool expect_consistent, int* stale_reads,
                                  bool* finished) {
  vfs::Vfs& a = w.client(0).vfs();
  vfs::Vfs& b = w.client(1).vfs();
  EXPECT_TRUE((co_await a.WriteFile("/data/f", testbed::TestBytes("gen-000"))).ok());

  auto bfd = co_await b.Open("/data/f", vfs::OpenFlags::ReadOnly());
  EXPECT_TRUE(bfd.ok());
  if (!bfd.ok()) {
    co_return;
  }
  (void)co_await b.Pread(*bfd, 0, 16);  // warm B's cache

  auto afd = co_await a.Open("/data/f", vfs::OpenFlags::ReadWrite());
  EXPECT_TRUE(afd.ok());
  if (!afd.ok()) {
    co_return;
  }
  for (int gen = 1; gen <= 5; ++gen) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "gen-%03d", gen);
    EXPECT_TRUE((co_await a.Pwrite(*afd, 0, testbed::TestBytes(buf))).ok());
    auto got = co_await b.Pread(*bfd, 0, 7);
    EXPECT_TRUE(got.ok());
    if (got.ok() && testbed::TestStr(*got) != buf) {
      ++*stale_reads;
    }
    co_await sim::Sleep(w.simulator, sim::Msec(200));
  }
  EXPECT_TRUE((co_await a.Close(*afd)).ok());
  EXPECT_TRUE((co_await b.Close(*bfd)).ok());
  if (expect_consistent) {
    EXPECT_EQ(*stale_reads, 0);
  } else {
    EXPECT_GT(*stale_reads, 0);  // NFS within the probe window is stale
  }
  *finished = true;
}

// --- scenario 4: server crash while delayed writes are dirty -----------------

sim::Task<void> CrashDuringDirtyScenario(World& w, bool* finished) {
  vfs::Vfs& a = w.client(0).vfs();
  std::vector<uint8_t> v1(cache::kBlockSize, 1);
  std::vector<uint8_t> v2(cache::kBlockSize, 2);

  // Commit version 1, then leave version 2 dirty in the cache (delayed on
  // SNFS/NQNFS; NFS drains it at close).
  auto fd = co_await a.Open("/data/f", vfs::OpenFlags::WriteCreate());
  EXPECT_TRUE(fd.ok());
  if (!fd.ok()) {
    co_return;
  }
  EXPECT_TRUE((co_await a.Pwrite(*fd, 0, v1)).ok());
  EXPECT_TRUE((co_await a.Fsync(*fd)).ok());
  EXPECT_TRUE((co_await a.Pwrite(*fd, 0, v2)).ok());
  EXPECT_TRUE((co_await a.Close(*fd)).ok());

  w.server->Crash(w.network);
  co_await sim::Sleep(w.simulator, sim::Sec(2));
  w.server->Reboot(w.network);
  co_await sim::Sleep(w.simulator, sim::Sec(8));

  // The writer itself: its own cache (or the server) must hold v1 or v2,
  // uniformly — never a torn mix.
  auto got = co_await a.ReadFile("/data/f");
  EXPECT_TRUE(got.ok());
  if (!got.ok()) {
    co_return;
  }
  EXPECT_EQ(got->size(), v1.size());
  if (got->size() != v1.size()) {
    co_return;
  }
  uint8_t fill = (*got)[0];
  EXPECT_TRUE(fill == 1 || fill == 2) << "unexpected fill byte " << int(fill);
  for (uint8_t byte : *got) {
    EXPECT_EQ(byte, fill) << "torn block after crash";
    if (byte != fill) {
      co_return;
    }
  }

  // A fresh reader, well after any lease/quiet window has passed: same rule.
  co_await sim::Sleep(w.simulator, sim::Sec(40));
  auto fresh = co_await w.client(1).vfs().ReadFile("/data/f");
  EXPECT_TRUE(fresh.ok());
  if (!fresh.ok()) {
    co_return;
  }
  EXPECT_EQ(fresh->size(), v1.size());
  if (fresh->size() != v1.size()) {
    co_return;
  }
  uint8_t fresh_fill = (*fresh)[0];
  EXPECT_TRUE(fresh_fill == 1 || fresh_fill == 2);
  for (uint8_t byte : *fresh) {
    EXPECT_EQ(byte, fresh_fill) << "torn block read by fresh client";
    if (byte != fresh_fill) {
      co_return;
    }
  }
  *finished = true;
}

// --- scenario 5: namespace operations round trip ----------------------------

// Lists `dir` on the server's own file system in one call, for comparison
// with the client's paged listing.
sim::Task<std::vector<proto::DirEntry>> ServerListing(World& w, std::string dir) {
  fs::LocalFs& fs = w.server->fs();
  auto found = co_await fs.Lookup(fs.root(), dir);
  EXPECT_TRUE(found.ok());
  if (!found.ok()) {
    co_return std::vector<proto::DirEntry>{};
  }
  auto listing = co_await fs.ReadDir(found->fh, /*cookie=*/0, /*count=*/1000);
  EXPECT_TRUE(listing.ok());
  if (!listing.ok()) {
    co_return std::vector<proto::DirEntry>{};
  }
  EXPECT_TRUE(listing->eof);
  co_return std::move(listing->entries);
}

// 150 entries make the client's readdir fetch three 64-entry pages.
constexpr int kNamespaceEntries = 150;

sim::Task<void> NamespaceRoundTripScenario(World& w, bool* finished) {
  vfs::Vfs& a = w.client(0).vfs();
  EXPECT_TRUE((co_await a.MkdirPath("/data/big")).ok());
  EXPECT_TRUE((co_await a.MkdirPath("/data/other")).ok());
  for (int i = 0; i < kNamespaceEntries; ++i) {
    char path[32];
    std::snprintf(path, sizeof(path), "/data/big/e%03d", i);
    if (i % 10 == 0) {
      EXPECT_TRUE((co_await a.MkdirPath(path)).ok());
    } else {
      EXPECT_TRUE((co_await a.WriteFile(path, testbed::TestBytes(path))).ok());
    }
  }

  auto listed = co_await a.ReadDir("/data/big");
  EXPECT_TRUE(listed.ok());
  if (!listed.ok()) {
    co_return;
  }
  std::vector<proto::DirEntry> expected = co_await ServerListing(w, "big");
  EXPECT_EQ(listed->size(), static_cast<size_t>(kNamespaceEntries));
  EXPECT_EQ(listed->size(), expected.size());
  for (size_t i = 0; i < std::min(listed->size(), expected.size()); ++i) {
    EXPECT_EQ((*listed)[i].name, expected[i].name) << "entry " << i;
    EXPECT_EQ((*listed)[i].fileid, expected[i].fileid) << "entry " << i;
  }

  // Rename within the directory and across directories; contents follow.
  EXPECT_TRUE((co_await a.Rename("/data/big/e001", "/data/big/renamed")).ok());
  EXPECT_TRUE((co_await a.Rename("/data/big/e002", "/data/other/moved")).ok());
  EXPECT_TRUE((co_await a.Rename("/data/big/e010", "/data/other/moved_dir")).ok());
  EXPECT_TRUE((co_await a.Stat("/data/big/e001")).status() == base::ErrNoEnt());
  EXPECT_TRUE((co_await a.Stat("/data/big/e002")).status() == base::ErrNoEnt());
  auto renamed = co_await a.ReadFile("/data/big/renamed");
  EXPECT_TRUE(renamed.ok());
  if (renamed.ok()) {
    EXPECT_EQ(testbed::TestStr(*renamed), "/data/big/e001");
  }
  auto moved = co_await a.ReadFile("/data/other/moved");
  EXPECT_TRUE(moved.ok());
  if (moved.ok()) {
    EXPECT_EQ(testbed::TestStr(*moved), "/data/big/e002");
  }
  std::vector<proto::DirEntry> other = co_await ServerListing(w, "other");
  EXPECT_EQ(other.size(), 2u);

  // A non-empty directory cannot be removed; the server's error comes back.
  auto busy = co_await a.RmdirPath("/data/big");
  EXPECT_TRUE(busy.status() == base::ErrNotEmpty()) << busy.status().name();

  // Empty the directory, then remove it.
  listed = co_await a.ReadDir("/data/big");
  EXPECT_TRUE(listed.ok());
  if (!listed.ok()) {
    co_return;
  }
  EXPECT_EQ(listed->size(), static_cast<size_t>(kNamespaceEntries - 2));
  for (const proto::DirEntry& entry : *listed) {
    std::string path = "/data/big/" + entry.name;
    auto attr = co_await a.Stat(path);
    EXPECT_TRUE(attr.ok());
    if (!attr.ok()) {
      co_return;
    }
    if (attr->type == proto::FileType::kDirectory) {
      EXPECT_TRUE((co_await a.RmdirPath(path)).ok()) << path;
    } else {
      EXPECT_TRUE((co_await a.Unlink(path)).ok()) << path;
    }
  }
  EXPECT_TRUE((co_await ServerListing(w, "big")).empty());
  EXPECT_TRUE((co_await a.RmdirPath("/data/big")).ok());
  auto gone = co_await a.ReadDir("/data/big");
  EXPECT_TRUE(gone.status() == base::ErrNoEnt());
  *finished = true;
}

// A remote protocol as a matrix parameter. gtest prints a parameter without
// a PrintTo as its raw bytes, and ctest registers that text in each case's
// name, so the parameter stores the protocol's index among the remote
// protocols (NFS 0, SNFS 1, NQNFS 2) rather than its testbed::Protocol
// value, which counts kLocal first. It converts to and from Protocol.
struct RemoteProtocol {
  RemoteProtocol(Protocol protocol)
      : index(static_cast<int>(protocol) - static_cast<int>(Protocol::kNfs)) {}
  operator Protocol() const {
    return static_cast<Protocol>(index + static_cast<int>(Protocol::kNfs));
  }
  int index;
};
static_assert(sizeof(RemoteProtocol) == sizeof(int));

class ProtocolConformance : public ::testing::TestWithParam<RemoteProtocol> {};

TEST_P(ProtocolConformance, SequentialSharingIsConsistent) {
  World w(GetParam(), 2);
  ScopedTraceCheck trace_check(w.simulator);
  MountData(w, 0, GetParam());
  MountData(w, 1, GetParam());
  bool finished = false;
  w.simulator.Spawn(SequentialSharingScenario(w, &finished));
  w.simulator.Run();
  EXPECT_TRUE(finished);
  trace_check.Check();
}

TEST_P(ProtocolConformance, ConcurrentWriteSharingMatchesContract) {
  World w(GetParam(), 2);
  ScopedTraceCheck trace_check(w.simulator);
  MountData(w, 0, GetParam());
  MountData(w, 1, GetParam());
  int stale = 0;
  bool finished = false;
  bool expect_consistent = GetParam() != Protocol::kNfs;
  w.simulator.Spawn(WriteSharingProbe(w, expect_consistent, &stale, &finished));
  w.simulator.Run();
  EXPECT_TRUE(finished);
  trace_check.Check();
}

TEST_P(ProtocolConformance, WriteSharingMechanismEngages) {
  if (GetParam() == Protocol::kNfs) {
    GTEST_SKIP() << "NFS has no write-sharing mechanism (that is scenario 2's point)";
  }
  World w(GetParam(), 2);
  snfs::SnfsClient* snfs_b = nullptr;
  nqnfs::NqnfsClient* nqnfs_b = nullptr;
  if (GetParam() == Protocol::kSnfs) {
    w.client(0).MountSnfs("/data", w.server->address(), w.server->root());
    snfs_b = &w.client(1).MountSnfs("/data", w.server->address(), w.server->root());
  } else {
    w.client(0).MountNqnfs("/data", w.server->address(), w.server->root());
    nqnfs_b = &w.client(1).MountNqnfs("/data", w.server->address(), w.server->root());
  }
  int stale = 0;
  bool finished = false;
  w.simulator.Spawn(WriteSharingProbe(w, /*expect_consistent=*/true, &stale, &finished));
  w.simulator.Run();
  EXPECT_TRUE(finished);
  if (snfs_b != nullptr) {
    // The server revoked B's cached copy to disable caching on the file.
    EXPECT_GE(snfs_b->callbacks_served(), 1u);
  }
  if (nqnfs_b != nullptr) {
    // No cache-disable mode: every writer/reader switch is a vacate.
    EXPECT_GE(nqnfs_b->callbacks_served(), 1u);
    ASSERT_NE(w.server->nqnfs_server(), nullptr);
    EXPECT_GE(w.server->nqnfs_server()->vacates_issued(), 2u);
  }
}

TEST_P(ProtocolConformance, CrashDuringDirtyNeverTearsData) {
  World w(GetParam(), 2);
  ScopedTraceCheck trace_check(w.simulator);
  MountData(w, 0, GetParam());
  MountData(w, 1, GetParam());
  bool finished = false;
  w.simulator.Spawn(CrashDuringDirtyScenario(w, &finished));
  w.simulator.Run();
  EXPECT_TRUE(finished);
  trace_check.Check();
}

TEST_P(ProtocolConformance, NamespaceOpsRoundTrip) {
  World w(GetParam(), 1);
  ScopedTraceCheck trace_check(w.simulator);
  MountData(w, 0, GetParam());
  bool finished = false;
  w.simulator.Spawn(NamespaceRoundTripScenario(w, &finished));
  w.simulator.Run();
  EXPECT_TRUE(finished);
  trace_check.Check();
}

INSTANTIATE_TEST_SUITE_P(Protocols, ProtocolConformance,
                         ::testing::Values(Protocol::kNfs, Protocol::kSnfs,
                                           Protocol::kNqnfs),
                         [](const ::testing::TestParamInfo<RemoteProtocol>& info) {
                           return ProtocolLabel(info.param);
                         });

// Every server passes what it does not handle itself to the one NFS
// dispatch, whose default arm rejects it: NFS rejects the SNFS open ("the
// latter will reject an open operation", §6.1) and the NQNFS lease
// request, SNFS rejects the lease request, NQNFS the open/close/reopen
// vocabulary. Each row is sent from a client peer, in table order, so an
// accepted close follows its accepted open.
TEST(ServerVocabulary, EachProtocolRejectsOnlyForeignRequests) {
  using proto::OpKind;
  struct Row {
    Protocol protocol;
    OpKind kind;
    bool supported;
  };
  const std::vector<Row> table = {
      {Protocol::kNfs, OpKind::kNull, true},
      {Protocol::kNfs, OpKind::kOpen, false},
      {Protocol::kNfs, OpKind::kGetLease, false},
      {Protocol::kSnfs, OpKind::kNull, true},
      {Protocol::kSnfs, OpKind::kOpen, true},
      {Protocol::kSnfs, OpKind::kClose, true},
      {Protocol::kSnfs, OpKind::kReopen, true},
      {Protocol::kSnfs, OpKind::kGetLease, false},
      {Protocol::kNqnfs, OpKind::kNull, true},
      {Protocol::kNqnfs, OpKind::kOpen, false},
      {Protocol::kNqnfs, OpKind::kClose, false},
      {Protocol::kNqnfs, OpKind::kReopen, false},
      {Protocol::kNqnfs, OpKind::kGetLease, true},
  };
  for (Protocol protocol :
       {Protocol::kNfs, Protocol::kSnfs, Protocol::kNqnfs}) {
    World w(protocol, 1);
    int answered = 0;
    w.simulator.Spawn([](World& w, Protocol protocol, const std::vector<Row>& table,
                         int& answered) -> sim::Task<void> {
      const proto::FileHandle fh = w.server->root();
      for (const Row& row : table) {
        if (row.protocol != protocol) {
          continue;
        }
        proto::Request request;
        switch (row.kind) {
          case OpKind::kOpen:
            request = proto::OpenReq{.fh = fh};
            break;
          case OpKind::kClose:
            request = proto::CloseReq{.fh = fh};
            break;
          case OpKind::kReopen:
            request = proto::ReopenReq{.fh = fh};
            break;
          case OpKind::kGetLease:
            request = proto::GetLeaseReq{.fh = fh};
            break;
          default:
            request = proto::NullReq{};
            break;
        }
        std::string label = ProtocolLabel(protocol) + " " +
                            std::string(proto::OpKindName(proto::KindOf(request)));
        auto reply = co_await w.client(0).peer().Call(w.server->address(), std::move(request));
        EXPECT_TRUE(reply.ok()) << label;
        if (!reply.ok()) {
          co_return;
        }
        if (row.supported) {
          EXPECT_TRUE(reply->status.ok()) << label;
        } else {
          EXPECT_TRUE(reply->status == base::ErrNotSupported()) << label;
        }
        ++answered;
      }
    }(w, protocol, table, answered));
    w.simulator.Run();
    EXPECT_EQ(answered, std::count_if(table.begin(), table.end(), [&](const Row& row) {
                return row.protocol == protocol;
              })) << ProtocolLabel(protocol);
  }
}

// --- random-oracle sweep ------------------------------------------------------

constexpr int kNumFiles = 4;
constexpr int kOpsPerClient = 60;

struct Oracle {
  std::map<std::string, std::vector<uint8_t>> files;
};

// One client's random workload: serialized open-write-close / open-read-
// verify-close bursts under a global lock.
sim::Task<void> RandomActor(World& w, int client_id, Oracle& oracle, sim::Mutex& lock,
                            uint64_t seed, int* mismatches, int* reads_checked,
                            sim::WaitGroup& wg) {
  sim::Rng rng(seed);
  vfs::Vfs& v = w.client(client_id).vfs();
  for (int op = 0; op < kOpsPerClient; ++op) {
    std::string path = "/data/f" + std::to_string(rng.UniformInt(0, kNumFiles - 1));
    bool do_write = rng.Bernoulli(0.45);
    co_await lock.Acquire();
    if (do_write) {
      size_t len = static_cast<size_t>(rng.UniformInt(1, 3 * 4096));
      std::vector<uint8_t> data(len);
      for (size_t i = 0; i < len; ++i) {
        data[i] = static_cast<uint8_t>(rng.Next());
      }
      auto st = co_await v.WriteFile(path, data);
      EXPECT_TRUE(st.ok());
      oracle.files[path] = std::move(data);
    } else {
      auto got = co_await v.ReadFile(path);
      auto it = oracle.files.find(path);
      if (it == oracle.files.end()) {
        EXPECT_FALSE(got.ok());
      } else {
        EXPECT_TRUE(got.ok());
        if (got.ok()) {
          ++*reads_checked;
          if (*got != it->second) {
            ++*mismatches;
          }
        }
      }
    }
    lock.Release();
    co_await sim::Sleep(w.simulator, sim::Msec(rng.UniformInt(0, 500)));
  }
  wg.Done();
}

struct ConsistencyParam {
  RemoteProtocol protocol;
  uint64_t seed;
};

class ConsistencySweep : public ::testing::TestWithParam<ConsistencyParam> {};

TEST_P(ConsistencySweep, LockSerializedAccessesMatchOracle) {
  const ConsistencyParam param = GetParam();
  World w(param.protocol, /*num_clients=*/3);
  ScopedTraceCheck trace_check(w.simulator);
  for (int c = 0; c < 3; ++c) {
    MountData(w, c, param.protocol);
  }
  Oracle oracle;
  sim::Mutex lock(w.simulator);
  sim::WaitGroup wg(w.simulator);
  int mismatches = 0;
  int reads_checked = 0;
  for (int c = 0; c < 3; ++c) {
    wg.Add();
    w.simulator.Spawn(RandomActor(w, c, oracle, lock, param.seed * 97 + c, &mismatches,
                                  &reads_checked, wg));
  }
  w.simulator.Run();
  EXPECT_EQ(wg.count(), 0);
  EXPECT_GT(reads_checked, 20);
  if (param.protocol != Protocol::kNfs) {
    // The guarantee: no stale reads, ever — SNFS via opens and callbacks,
    // NQNFS via leases and vacates.
    EXPECT_EQ(mismatches, 0) << ProtocolLabel(param.protocol) << " served stale data (seed "
                             << param.seed << ")";
  }
  // For NFS we only record; staleness is legal there. (Close-to-open plus
  // sequential sharing makes many seeds clean, which is fine.)

  // The trace checker judges every protocol: the SNFS/NQNFS invariants only
  // fire on their own events, and retransmit-once must hold for NFS too.
  trace_check.Check();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ConsistencySweep,
    ::testing::Values(ConsistencyParam{Protocol::kSnfs, 1},
                      ConsistencyParam{Protocol::kSnfs, 2},
                      ConsistencyParam{Protocol::kSnfs, 3},
                      ConsistencyParam{Protocol::kSnfs, 4},
                      ConsistencyParam{Protocol::kSnfs, 5},
                      ConsistencyParam{Protocol::kSnfs, 6},
                      ConsistencyParam{Protocol::kNfs, 1},
                      ConsistencyParam{Protocol::kNfs, 2},
                      ConsistencyParam{Protocol::kNfs, 3},
                      ConsistencyParam{Protocol::kNqnfs, 1},
                      ConsistencyParam{Protocol::kNqnfs, 2},
                      ConsistencyParam{Protocol::kNqnfs, 3},
                      ConsistencyParam{Protocol::kNqnfs, 4},
                      ConsistencyParam{Protocol::kNqnfs, 5},
                      ConsistencyParam{Protocol::kNqnfs, 6}),
    [](const ::testing::TestParamInfo<ConsistencyParam>& info) {
      return ProtocolLabel(info.param.protocol) + "Seed" + std::to_string(info.param.seed);
    });

}  // namespace
