// Tests for the causal-tracing subsystem: recorder/exporter mechanics,
// cross-machine span propagation through the RPC envelope, determinism of
// the compact-text checksum (pinned for the reference scenario), the
// trace::Checker invariants over hand-built fixture traces, and a
// checker-clean fault-sweep seed.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/sweep.h"
#include "src/sim/simulator.h"
#include "src/trace/checker.h"
#include "src/trace/trace.h"
#include "tests/testbed_util.h"

namespace {

using testbed::Protocol;
using testbed::World;
using trace::Event;
using trace::EventKind;

// --- fixture-trace helpers -------------------------------------------------

Event Instant(std::string name, int machine, std::string args) {
  Event e;
  e.kind = EventKind::kInstant;
  e.machine = machine;
  e.name = std::move(name);
  e.args = std::move(args);
  return e;
}

// The lease rules are time-based: fixtures must stamp `at`.
Event InstantAt(std::string name, int machine, sim::Time at, std::string args) {
  Event e = Instant(std::move(name), machine, std::move(args));
  e.at = at;
  return e;
}

Event HandleBegin(int server, std::string args) {
  Event e;
  e.kind = EventKind::kSpanBegin;
  e.machine = server;
  e.name = "rpc.handle";
  e.args = std::move(args);
  return e;
}

std::vector<std::string> Rules(const std::vector<trace::Violation>& violations) {
  std::vector<std::string> rules;
  for (const trace::Violation& v : violations) {
    rules.push_back(v.rule);
  }
  return rules;
}

// --- reference scenario ----------------------------------------------------

struct TracedRun {
  uint64_t checksum = 0;
  size_t events = 0;
  std::string compact;
  std::string chrome;
  std::vector<trace::Violation> violations;
  std::map<std::string, metrics::Histogram> rpc_latency;
};

// A small cross-client SNFS workload, fully deterministic: client 0 writes
// and fsyncs a file, client 1 reads it, client 0 overwrites, client 1 reads
// the new version (open/close consistency via the SNFS state machine).
TracedRun RunReferenceScenario() {
  World w(Protocol::kSnfs, 2);
  trace::Recorder recorder(w.simulator);
  trace::SetActive(&recorder);
  w.client(0).MountSnfs("/data", w.server->address(), w.server->root());
  w.client(1).MountSnfs("/data", w.server->address(), w.server->root());

  bool done = false;
  w.simulator.Spawn([](World& w, bool& done) -> sim::Task<void> {
    vfs::Vfs& a = w.client(0).vfs();
    vfs::Vfs& b = w.client(1).vfs();
    EXPECT_TRUE((co_await a.WriteFile("/data/f", testbed::TestBytes("version-one"))).ok());
    auto got = co_await b.ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    EXPECT_TRUE((co_await a.WriteFile("/data/f", testbed::TestBytes("version-two"))).ok());
    got = co_await b.ReadFile("/data/f");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(testbed::TestStr(*got), "version-two");
    }
    done = true;
  }(w, done));
  w.simulator.Run();
  trace::SetActive(nullptr);
  EXPECT_TRUE(done);

  TracedRun run;
  run.checksum = recorder.Checksum();
  run.events = recorder.events().size();
  run.compact = recorder.ToCompactText();
  run.chrome = recorder.ToChromeJson();
  run.violations = trace::CheckTrace(recorder);
  run.rpc_latency = recorder.SpanDurationsBy("rpc.call", "op");
  return run;
}

TEST(TraceRecorderTest, ReferenceScenarioIsDeterministic) {
  TracedRun first = RunReferenceScenario();
  TracedRun second = RunReferenceScenario();
  EXPECT_GT(first.events, 100u);
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.checksum, second.checksum);
  EXPECT_EQ(first.compact, second.compact);
}

TEST(TraceRecorderTest, ReferenceScenarioChecksumIsPinned) {
  // Pins the full event stream (names, args, timestamps, span structure) of
  // the reference scenario. An intentional change to the instrumentation or
  // the protocols' timing legitimately moves this value: update the literal
  // after eyeballing the new trace. An UNintentional change — tracing
  // perturbing the simulation, nondeterministic iteration order leaking into
  // event order — is exactly what this test exists to catch.
  TracedRun run = RunReferenceScenario();
  EXPECT_EQ(run.checksum, 0xee13df9092e391f5ull)
      << "compact trace changed; first lines:\n"
      << run.compact.substr(0, 600);
}

TEST(TraceRecorderTest, ReferenceScenarioPassesChecker) {
  TracedRun run = RunReferenceScenario();
  EXPECT_TRUE(run.violations.empty())
      << run.violations.size() << " violations; first: [" << run.violations.front().rule << "] "
      << run.violations.front().message;
  // The scenario's reads go through the cache, so per-op latency histograms
  // must have seen the SNFS control traffic.
  EXPECT_GT(run.rpc_latency.count("open"), 0u);
  EXPECT_GT(run.rpc_latency.count("write"), 0u);
  for (const auto& [op, hist] : run.rpc_latency) {
    EXPECT_GT(hist.count(), 0u) << op;
    EXPECT_GE(hist.Percentile(99), hist.Percentile(50)) << op;
    EXPECT_GT(hist.Percentile(50), 0.0) << "rpc.call span for '" << op << "' has zero duration";
  }
}

TEST(TraceRecorderTest, ExportersAreWellFormed) {
  TracedRun run = RunReferenceScenario();
  // Compact text: one line per event, B/E lines carry span<parent structure.
  EXPECT_NE(run.compact.find(" B "), std::string::npos);
  EXPECT_NE(run.compact.find(" E "), std::string::npos);
  EXPECT_NE(run.compact.find("rpc.call"), std::string::npos);
  EXPECT_NE(run.compact.find("snfs.open_granted"), std::string::npos);
  size_t lines = 0;
  for (char c : run.compact) {
    lines += c == '\n';
  }
  EXPECT_EQ(lines, run.events);
  // Chrome JSON: a trace_event array with begin/end phases and µs stamps.
  EXPECT_EQ(run.chrome.rfind("[", 0), 0u);
  EXPECT_NE(run.chrome.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(run.chrome.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(run.chrome.find("\"name\":\"rpc.call\""), std::string::npos);
}

TEST(TraceRecorderTest, HandlerSpansParentAcrossMachines) {
  // The cross-machine causal link: every rpc.handle span's parent must be an
  // rpc.attempt span begun on a DIFFERENT machine (the caller's side),
  // carried over the wire in the envelope rather than through the ambient
  // context.
  World w(Protocol::kSnfs, 1);
  trace::Recorder recorder(w.simulator);
  trace::SetActive(&recorder);
  w.client(0).MountSnfs("/data", w.server->address(), w.server->root());
  bool done = false;
  w.simulator.Spawn([](World& w, bool& done) -> sim::Task<void> {
    EXPECT_TRUE((co_await w.client(0).vfs().WriteFile("/data/x", testbed::TestBytes("hi"))).ok());
    done = true;
  }(w, done));
  w.simulator.Run();
  trace::SetActive(nullptr);
  EXPECT_TRUE(done);

  size_t handles_checked = 0;
  for (const Event& e : recorder.events()) {
    if (e.kind != EventKind::kSpanBegin || e.name != "rpc.handle") {
      continue;
    }
    ASSERT_NE(e.parent, 0u) << "rpc.handle span has no causal parent";
    EXPECT_NE(recorder.SpanMachine(e.parent), e.machine)
        << "rpc.handle parent span was begun on the same machine";
    ++handles_checked;
  }
  EXPECT_GT(handles_checked, 0u);
}

// --- checker fixtures ------------------------------------------------------

TEST(TraceCheckerTest, SeededStaleReadIsFlagged) {
  std::vector<Event> events;
  events.push_back(Instant("snfs.open_granted", 1, "file=7 version=5 write=0 cache=1"));
  events.push_back(Instant("snfs.read_observe", 1, "file=7 version=4"));
  std::vector<trace::Violation> violations = trace::CheckTrace(events);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "stale-read");
  EXPECT_EQ(violations[0].event_index, 1u);
  EXPECT_NE(violations[0].message.find("version 4"), std::string::npos);
}

TEST(TraceCheckerTest, ReadWithoutGrantIsFlagged) {
  // A grant on machine 1 does not cover machine 2, and a read after an
  // invalidation has no grant either.
  std::vector<Event> events;
  events.push_back(Instant("snfs.open_granted", 1, "file=7 version=5 write=0 cache=1"));
  events.push_back(Instant("snfs.read_observe", 2, "file=7 version=5"));
  events.push_back(Instant("snfs.invalidated", 1, "file=7 reason=callback"));
  events.push_back(Instant("snfs.read_observe", 1, "file=7 version=5"));
  EXPECT_EQ(Rules(trace::CheckTrace(events)),
            (std::vector<std::string>{"stale-read", "stale-read"}));
}

TEST(TraceCheckerTest, FreshReadsAreClean) {
  std::vector<Event> events;
  events.push_back(Instant("snfs.open_granted", 1, "file=7 version=5 write=0 cache=1"));
  events.push_back(Instant("snfs.read_observe", 1, "file=7 version=5"));
  events.push_back(Instant("snfs.open_granted", 1, "file=7 version=6 write=0 cache=1"));
  events.push_back(Instant("snfs.read_observe", 1, "file=7 version=6"));
  // Observing a version NEWER than the grant is legal (the writer's own
  // cache can run ahead of the last open's version).
  events.push_back(Instant("snfs.read_observe", 1, "file=7 version=9"));
  EXPECT_TRUE(trace::CheckTrace(events).empty());
}

TEST(TraceCheckerTest, ConcurrentDirtyIsFlagged) {
  std::vector<Event> events;
  events.push_back(Instant("cache.file_dirty", 1, "scope=snfs file=3"));
  events.push_back(Instant("cache.file_dirty", 2, "scope=snfs file=3"));
  std::vector<trace::Violation> violations = trace::CheckTrace(events);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "concurrent-dirty");
  EXPECT_NE(violations[0].message.find("m1,m2"), std::string::npos);
}

TEST(TraceCheckerTest, SerializedDirtyAndOtherScopesAreClean) {
  std::vector<Event> events;
  // Serialized hand-off: clean before the next writer dirties.
  events.push_back(Instant("cache.file_dirty", 1, "scope=snfs file=3"));
  events.push_back(Instant("cache.file_clean", 1, "scope=snfs file=3"));
  events.push_back(Instant("cache.file_dirty", 2, "scope=snfs file=3"));
  // Different files are independent.
  events.push_back(Instant("cache.file_dirty", 1, "scope=snfs file=4"));
  // NFS has no single-writer guarantee — its dirty blocks are out of scope.
  events.push_back(Instant("cache.file_dirty", 1, "scope=nfs file=3"));
  EXPECT_TRUE(trace::CheckTrace(events).empty());
}

TEST(TraceCheckerTest, CrashClearsDirtyStateAndGrants) {
  std::vector<Event> events;
  events.push_back(Instant("cache.file_dirty", 1, "scope=snfs file=3"));
  events.push_back(Instant("snfs.open_granted", 1, "file=3 version=2 write=1 cache=1"));
  events.push_back(Instant("machine.crash", 1, "kind=client"));
  // The crashed client's dirty blocks died with it: another writer is legal.
  events.push_back(Instant("cache.file_dirty", 2, "scope=snfs file=3"));
  EXPECT_TRUE(trace::CheckTrace(events).empty());
  // ... but a cached read on the crashed client without a fresh grant (no
  // reopen) is a violation.
  events.push_back(Instant("snfs.read_observe", 1, "file=3 version=2"));
  EXPECT_EQ(Rules(trace::CheckTrace(events)), (std::vector<std::string>{"stale-read"}));
}

// --- fleet meta-cache fixtures ---------------------------------------------

TEST(TraceCheckerTest, FleetStaleMetaServeIsFlagged) {
  // The shard committed version 40 through the cache, but the cache then
  // serves version 39 — a stale metadata serve the interposition design
  // should make impossible.
  std::vector<Event> events;
  events.push_back(Instant("fleet.commit", 5, "fsid=2 file=7 v=40 shard=1"));
  events.push_back(Instant("fleet.meta_serve", 5, "fsid=2 file=7 v=39 src=attr"));
  std::vector<trace::Violation> violations = trace::CheckTrace(events);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "stale-read");
  EXPECT_EQ(violations[0].event_index, 1u);
  EXPECT_NE(violations[0].message.find("version 39"), std::string::npos);
}

TEST(TraceCheckerTest, FleetFreshAndUnfloorServesAreClean) {
  std::vector<Event> events;
  events.push_back(Instant("fleet.commit", 5, "fsid=2 file=7 v=40 shard=1"));
  // Serving at or beyond the committed floor is fine.
  events.push_back(Instant("fleet.meta_serve", 5, "fsid=2 file=7 v=40 src=attr"));
  events.push_back(Instant("fleet.meta_serve", 5, "fsid=2 file=7 v=41 src=lookup"));
  // The same file id on another shard (fsid) is a different file.
  events.push_back(Instant("fleet.meta_serve", 5, "fsid=3 file=7 v=1 src=attr"));
  // No committed floor for this file: nothing to be stale against.
  events.push_back(Instant("fleet.meta_serve", 5, "fsid=2 file=8 v=1 src=attr"));
  EXPECT_TRUE(trace::CheckTrace(events).empty());
}

// --- per-file keys across shards --------------------------------------------

TEST(TraceCheckerTest, SameFileidOnTwoShardsIsTwoFiles) {
  // Shards of a fleet reuse fileids; every per-file rule keys by
  // (fsid, fileid), so these events name two files and conflict nowhere.
  std::vector<Event> events;
  // concurrent-dirty: two clients dirty "file 4", one on each shard.
  events.push_back(Instant("cache.file_dirty", 2, "scope=snfs fsid=1 file=4"));
  events.push_back(Instant("cache.file_dirty", 3, "scope=snfs fsid=2 file=4"));
  // dual-write-lease: each shard grants its own file 4 to a different host.
  events.push_back(InstantAt("nqnfs.write_lease_grant", 0, 0, "fsid=1 file=4 host=2 expires=100"));
  events.push_back(InstantAt("nqnfs.write_lease_grant", 1, 50, "fsid=2 file=4 host=3 expires=150"));
  // stale-read: the newer grant on shard 1 does not raise shard 2's floor,
  // and an invalidation on shard 1 does not drop shard 2's grant.
  events.push_back(Instant("snfs.open_granted", 2, "fsid=2 file=7 version=1 write=0 cache=1"));
  events.push_back(Instant("snfs.open_granted", 2, "fsid=1 file=7 version=5 write=0 cache=1"));
  events.push_back(Instant("snfs.invalidated", 2, "fsid=1 file=7 reason=callback"));
  events.push_back(Instant("snfs.read_observe", 2, "fsid=2 file=7 version=1"));
  // lease-expired-read: likewise for NQNFS read leases.
  events.push_back(
      InstantAt("nqnfs.lease_grant", 3, 0, "fsid=2 file=8 version=1 write=0 expires=900"));
  events.push_back(
      InstantAt("nqnfs.lease_grant", 3, 0, "fsid=1 file=8 version=5 write=0 expires=900"));
  events.push_back(InstantAt("nqnfs.lease_end", 3, 10, "fsid=1 file=8 reason=expired"));
  events.push_back(InstantAt("nqnfs.read_observe", 3, 20, "fsid=2 file=8 version=1"));
  std::vector<trace::Violation> violations = trace::CheckTrace(events);
  EXPECT_TRUE(violations.empty()) << "[" << violations.front().rule << "] "
                                  << violations.front().message;
}

TEST(TraceCheckerTest, SameFileidOnOneShardStillConflicts) {
  std::vector<Event> events;
  events.push_back(Instant("cache.file_dirty", 2, "scope=snfs fsid=2 file=4"));
  events.push_back(Instant("cache.file_dirty", 3, "scope=snfs fsid=2 file=4"));
  events.push_back(InstantAt("nqnfs.write_lease_grant", 1, 0, "fsid=2 file=4 host=2 expires=100"));
  events.push_back(InstantAt("nqnfs.write_lease_grant", 1, 50, "fsid=2 file=4 host=3 expires=150"));
  events.push_back(Instant("snfs.open_granted", 2, "fsid=2 file=7 version=5 write=0 cache=1"));
  events.push_back(Instant("snfs.read_observe", 2, "fsid=2 file=7 version=4"));
  events.push_back(
      InstantAt("nqnfs.lease_grant", 3, 0, "fsid=2 file=8 version=1 write=0 expires=100"));
  events.push_back(InstantAt("nqnfs.read_observe", 3, 150, "fsid=2 file=8 version=1"));
  std::vector<trace::Violation> violations = trace::CheckTrace(events);
  EXPECT_EQ(Rules(violations), (std::vector<std::string>{"concurrent-dirty", "dual-write-lease",
                                                         "stale-read", "lease-expired-read"}));
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].message.find("file 4 (fsid 2)"), std::string::npos);
}

// --- NQNFS lease fixtures --------------------------------------------------

TEST(TraceCheckerTest, SeededExpiredLeaseReadIsFlagged) {
  // A deliberately-broken client: it keeps serving cached reads after its
  // lease has lapsed. The checker must fire on the read past the expiry.
  std::vector<Event> events;
  events.push_back(InstantAt("nqnfs.lease_grant", 1, 10, "file=7 version=5 write=0 expires=100"));
  events.push_back(InstantAt("nqnfs.read_observe", 1, 50, "file=7 version=5"));   // in term: fine
  events.push_back(InstantAt("nqnfs.read_observe", 1, 150, "file=7 version=5"));  // expired
  std::vector<trace::Violation> violations = trace::CheckTrace(events);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "lease-expired-read");
  EXPECT_EQ(violations[0].event_index, 2u);
  EXPECT_NE(violations[0].message.find("expired at t=100"), std::string::npos);
}

TEST(TraceCheckerTest, ReadWithoutLeaseOrAfterLeaseEndIsFlagged) {
  std::vector<Event> events;
  // No grant at all.
  events.push_back(InstantAt("nqnfs.read_observe", 2, 5, "file=7 version=5"));
  // Grant explicitly ended (expiry notice), then read anyway.
  events.push_back(InstantAt("nqnfs.lease_grant", 1, 10, "file=7 version=5 write=0 expires=900"));
  events.push_back(InstantAt("nqnfs.lease_end", 1, 20, "file=7 reason=vacate"));
  events.push_back(InstantAt("nqnfs.read_observe", 1, 30, "file=7 version=5"));
  // Grant invalidated (version mismatch on regrant), then read anyway.
  events.push_back(InstantAt("nqnfs.lease_grant", 3, 10, "file=7 version=5 write=0 expires=900"));
  events.push_back(InstantAt("nqnfs.invalidated", 3, 20, "file=7 reason=callback"));
  events.push_back(InstantAt("nqnfs.read_observe", 3, 30, "file=7 version=5"));
  EXPECT_EQ(Rules(trace::CheckTrace(events)),
            (std::vector<std::string>{"lease-expired-read", "lease-expired-read",
                                      "lease-expired-read"}));
}

TEST(TraceCheckerTest, SelfWriteThroughInvalidationKeepsTheLeaseAlive) {
  // A client that writes through while still holding a live read lease
  // (e.g. a write-lease upgrade failed on an RPC error) drops its cached
  // blocks but keeps the lease; the cache drop must not retire the lease
  // record, or the next legal cached read would be flagged.
  std::vector<Event> events;
  events.push_back(InstantAt("nqnfs.lease_grant", 1, 10, "file=7 version=5 write=0 expires=900"));
  events.push_back(InstantAt("nqnfs.self_invalidate", 1, 20, "file=7 reason=write_through"));
  events.push_back(InstantAt("nqnfs.read_observe", 1, 30, "file=7 version=5"));
  EXPECT_TRUE(trace::CheckTrace(events).empty());
  // A real invalidation (vacate callback) still retires it.
  events.push_back(InstantAt("nqnfs.invalidated", 1, 40, "file=7 reason=callback"));
  events.push_back(InstantAt("nqnfs.read_observe", 1, 50, "file=7 version=5"));
  EXPECT_EQ(Rules(trace::CheckTrace(events)), (std::vector<std::string>{"lease-expired-read"}));
}

TEST(TraceCheckerTest, StaleVersionUnderLiveLeaseIsFlagged) {
  std::vector<Event> events;
  events.push_back(InstantAt("nqnfs.lease_grant", 1, 10, "file=7 version=5 write=0 expires=900"));
  events.push_back(InstantAt("nqnfs.read_observe", 1, 50, "file=7 version=4"));
  std::vector<trace::Violation> violations = trace::CheckTrace(events);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "lease-expired-read");
  EXPECT_NE(violations[0].message.find("version 4"), std::string::npos);
}

TEST(TraceCheckerTest, PiggybackedExtensionMovesTheExpiry) {
  std::vector<Event> events;
  events.push_back(InstantAt("nqnfs.lease_grant", 1, 10, "file=7 version=5 write=1 expires=100"));
  events.push_back(InstantAt("nqnfs.lease_extend", 1, 60, "file=7 expires=200"));
  // Past the original expiry but inside the extension: legal. A version
  // NEWER than the grant is legal too (the holder's own delayed writes).
  events.push_back(InstantAt("nqnfs.read_observe", 1, 150, "file=7 version=6"));
  EXPECT_TRUE(trace::CheckTrace(events).empty());
  // ... but the extension only reaches to t=200.
  events.push_back(InstantAt("nqnfs.read_observe", 1, 250, "file=7 version=6"));
  EXPECT_EQ(Rules(trace::CheckTrace(events)), (std::vector<std::string>{"lease-expired-read"}));
}

TEST(TraceCheckerTest, DualWriteLeaseIsFlagged) {
  std::vector<Event> events;
  events.push_back(InstantAt("nqnfs.write_lease_grant", 0, 0, "file=3 host=1 expires=100"));
  events.push_back(InstantAt("nqnfs.write_lease_grant", 0, 50, "file=3 host=2 expires=150"));
  std::vector<trace::Violation> violations = trace::CheckTrace(events);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "dual-write-lease");
  EXPECT_EQ(violations[0].event_index, 1u);
  EXPECT_NE(violations[0].message.find("host 1"), std::string::npos);
}

TEST(TraceCheckerTest, VacatedOrLapsedWriteLeasesMayBeRegranted) {
  std::vector<Event> events;
  // Explicit hand-off: the vacate ends host 1's lease before host 2's grant.
  events.push_back(InstantAt("nqnfs.write_lease_grant", 0, 0, "file=3 host=1 expires=100"));
  events.push_back(InstantAt("nqnfs.write_lease_end", 0, 40, "file=3 host=1 reason=vacate"));
  events.push_back(InstantAt("nqnfs.write_lease_grant", 0, 50, "file=3 host=2 expires=150"));
  // Lapse by time: no end event, but the grant comes after the expiry.
  events.push_back(InstantAt("nqnfs.write_lease_grant", 0, 200, "file=3 host=3 expires=300"));
  // The same host extending/re-granting to itself never conflicts.
  events.push_back(InstantAt("nqnfs.write_lease_extend", 0, 250, "file=3 host=3 expires=400"));
  events.push_back(InstantAt("nqnfs.write_lease_grant", 0, 350, "file=3 host=3 expires=500"));
  // Different files are independent.
  events.push_back(InstantAt("nqnfs.write_lease_grant", 0, 360, "file=4 host=1 expires=500"));
  EXPECT_TRUE(trace::CheckTrace(events).empty());
}

TEST(TraceCheckerTest, ServerCrashDoesNotClearWriteLeases) {
  // The quiet-window rule: a server reboot does NOT void the promises a dead
  // incarnation made. A rebooted server that grants before the old lease's
  // expiry has passed is exactly the bug this rule exists to catch.
  std::vector<Event> events;
  events.push_back(InstantAt("nqnfs.write_lease_grant", 0, 0, "file=3 host=1 expires=100"));
  events.push_back(InstantAt("machine.crash", 0, 10, "kind=server"));
  events.push_back(InstantAt("nqnfs.write_lease_grant", 0, 50, "file=3 host=2 expires=150"));
  EXPECT_EQ(Rules(trace::CheckTrace(events)), (std::vector<std::string>{"dual-write-lease"}));

  // Granting only after the dead incarnation's lease has provably lapsed —
  // what the quiet window enforces — is clean.
  std::vector<Event> patient;
  patient.push_back(InstantAt("nqnfs.write_lease_grant", 0, 0, "file=3 host=1 expires=100"));
  patient.push_back(InstantAt("machine.crash", 0, 10, "kind=server"));
  patient.push_back(InstantAt("nqnfs.write_lease_grant", 0, 120, "file=3 host=2 expires=220"));
  EXPECT_TRUE(trace::CheckTrace(patient).empty());
}

TEST(TraceCheckerTest, ClientCrashClearsItsLeases) {
  std::vector<Event> events;
  events.push_back(InstantAt("nqnfs.lease_grant", 1, 10, "file=7 version=5 write=0 expires=900"));
  events.push_back(InstantAt("machine.crash", 1, 20, "kind=client"));
  // The lease record died with the kernel; a cached read without a regrant
  // is a violation even though the original lease's term has not passed.
  events.push_back(InstantAt("nqnfs.read_observe", 1, 30, "file=7 version=5"));
  EXPECT_EQ(Rules(trace::CheckTrace(events)), (std::vector<std::string>{"lease-expired-read"}));
}

TEST(TraceCheckerTest, DuplicateNonIdempotentExecutionIsFlagged) {
  std::vector<Event> events;
  events.push_back(HandleBegin(0, "op=create from=1 xid=42 gen=1"));
  events.push_back(HandleBegin(0, "op=create from=1 xid=42 gen=1"));
  std::vector<trace::Violation> violations = trace::CheckTrace(events);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "retransmit-once");
  EXPECT_NE(violations[0].message.find("create"), std::string::npos);
}

TEST(TraceCheckerTest, IdempotentAndCrossGenerationReexecutionIsLegal) {
  std::vector<Event> events;
  // Idempotent ops may re-execute freely.
  events.push_back(HandleBegin(0, "op=read from=1 xid=7 gen=1"));
  events.push_back(HandleBegin(0, "op=read from=1 xid=7 gen=1"));
  // The dup cache dies with the server: a new generation may re-execute.
  events.push_back(HandleBegin(0, "op=create from=1 xid=42 gen=1"));
  events.push_back(HandleBegin(0, "op=create from=1 xid=42 gen=2"));
  // Distinct clients or xids are distinct requests.
  events.push_back(HandleBegin(0, "op=create from=2 xid=42 gen=2"));
  events.push_back(HandleBegin(0, "op=create from=1 xid=43 gen=2"));
  EXPECT_TRUE(trace::CheckTrace(events).empty());
}

TEST(TraceCheckerTest, IdempotencyClassification) {
  EXPECT_TRUE(trace::IsIdempotentOp("read"));
  EXPECT_TRUE(trace::IsIdempotentOp("write"));    // absolute offset write
  EXPECT_TRUE(trace::IsIdempotentOp("getattr"));
  EXPECT_TRUE(trace::IsIdempotentOp("reopen"));   // absolute per-client counts
  EXPECT_TRUE(trace::IsIdempotentOp("getlease")); // re-grant is just an extension
  EXPECT_FALSE(trace::IsIdempotentOp("create"));
  EXPECT_FALSE(trace::IsIdempotentOp("open"));    // reference count
  EXPECT_FALSE(trace::IsIdempotentOp("close"));   // reference count
  EXPECT_FALSE(trace::IsIdempotentOp("rename"));
}

// --- span-duration bucketing ----------------------------------------------

TEST(TraceRecorderTest, SpanDurationsByBucketsPerKey) {
  sim::Simulator simulator;
  trace::Recorder recorder(simulator);
  trace::SetActive(&recorder);
  uint64_t read1 = 0;
  uint64_t read2 = 0;
  uint64_t write1 = 0;
  simulator.Schedule(0, [&] {
    read1 = recorder.BeginSpan("rpc.call", 1, "op=read xid=1");
    write1 = recorder.BeginSpanUnder(0, "rpc.call", 1, "op=write xid=2");
  });
  simulator.Schedule(100, [&] { recorder.EndSpan(read1, "status=done"); });
  simulator.Schedule(250, [&] { read2 = recorder.BeginSpan("rpc.call", 1, "op=read xid=3"); });
  simulator.Schedule(550, [&] {
    recorder.EndSpan(read2, "status=done");
    recorder.EndSpan(write1, "status=done");
  });
  simulator.Run();
  trace::SetActive(nullptr);

  auto by_op = recorder.SpanDurationsBy("rpc.call", "op");
  ASSERT_EQ(by_op.size(), 2u);
  ASSERT_EQ(by_op["read"].count(), 2u);
  EXPECT_DOUBLE_EQ(by_op["read"].Min(), 100.0);
  EXPECT_DOUBLE_EQ(by_op["read"].Max(), 300.0);
  ASSERT_EQ(by_op["write"].count(), 1u);
  EXPECT_DOUBLE_EQ(by_op["write"].Mean(), 550.0);
}

// --- the fault sweep under the checker ------------------------------------

TEST(TraceSweepTest, FaultSweepSeedPassesCheckerUnderLossAndCrash) {
  fault::SweepOptions options;
  options.trace_check = true;
  options.plan.loss = 0.05;
  options.plan.duplicate = 0.02;
  options.schedule.CrashServerAt(sim::Sec(20)).RebootServerAt(sim::Sec(26));
  fault::SeedStats stats = fault::RunFaultSeed(options, /*seed=*/3);
  EXPECT_TRUE(stats.ok) << stats.failure;
  EXPECT_GT(stats.trace_events, 1000u);
  EXPECT_EQ(stats.trace_violations, 0u);

  // Same (options, seed) pair replays the identical trace.
  fault::SeedStats again = fault::RunFaultSeed(options, /*seed=*/3);
  EXPECT_EQ(again.trace_events, stats.trace_events);
}

}  // namespace
