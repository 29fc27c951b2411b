// Tests for the RPC layer: round trips, timeouts, retransmission under
// packet loss, duplicate-request suppression, and bidirectional calls
// (the callback pattern SNFS relies on).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/disk/disk.h"
#include "src/fs/local_fs.h"
#include "src/net/network.h"
#include "src/proto/messages.h"
#include "src/rpc/peer.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/trace/trace.h"

namespace rpc {
namespace {

struct Rig {
  sim::Simulator simulator;
  net::Network network;
  sim::Cpu client_cpu{simulator};
  sim::Cpu server_cpu{simulator};
  Peer client;
  Peer server;

  explicit Rig(net::NetworkParams params = {}, PeerOptions server_opts = {})
      : network(simulator, params, /*seed=*/42),
        client(simulator, network, client_cpu, "client"),
        server(simulator, network, server_cpu, "server", server_opts) {
    client.Start();
    server.Start();
  }
};

proto::Request MakeLookup(const std::string& name) {
  proto::LookupReq req;
  req.dir = proto::FileHandle{1, 1, 0};
  req.name = name;
  return req;
}

TEST(RpcTest, BasicRoundTrip) {
  Rig rig;
  rig.server.set_handler(
      [](const proto::Request& req, net::Address) -> sim::Task<proto::Reply> {
        const auto& lookup = std::get<proto::LookupReq>(req);
        proto::LookupRep rep;
        rep.fh = proto::FileHandle{1, 99, 0};
        rep.attr.fileid = 99;
        rep.attr.size = lookup.name.size();
        co_return proto::OkReply(rep);
      });

  bool done = false;
  rig.simulator.Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    auto reply = co_await rig.client.Call(rig.server.address(), MakeLookup("hello"));
    auto body = Expect<proto::LookupRep>(std::move(reply));
    EXPECT_TRUE(body.ok());
    if (!body.ok()) {
      co_return;
    }
    EXPECT_EQ(body->fh.fileid, 99u);
    EXPECT_EQ(body->attr.size, 5u);
    done = true;
  }(rig, done));
  rig.simulator.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.client.client_ops().Get(proto::OpKind::kLookup), 1u);
  EXPECT_EQ(rig.server.server_ops().Get(proto::OpKind::kLookup), 1u);
  EXPECT_GT(rig.simulator.Now(), 0);
}

TEST(RpcTest, ErrorStatusPropagates) {
  Rig rig;
  rig.server.set_handler([](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
    co_return proto::ErrorReply(base::ErrNoEnt());
  });
  bool done = false;
  rig.simulator.Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    auto body = Expect<proto::LookupRep>(
        co_await rig.client.Call(rig.server.address(), MakeLookup("missing")));
    EXPECT_FALSE(body.ok());
    EXPECT_EQ(body.status(), base::ErrNoEnt());
    done = true;
  }(rig, done));
  rig.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(RpcTest, UnhandledPeerRejectsCalls) {
  Rig rig;  // server has no handler
  bool done = false;
  rig.simulator.Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    auto reply = co_await rig.client.Call(rig.server.address(), proto::Request(proto::NullReq{}));
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) {
      co_return;
    }
    EXPECT_EQ(reply->status, base::ErrNotSupported());
    done = true;
  }(rig, done));
  rig.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(RpcTest, RetransmitsUnderPacketLossAndSucceeds) {
  net::NetworkParams params;
  params.loss_rate = 0.3;
  Rig rig(params);
  int executions = 0;
  rig.server.set_handler(
      // lint: coro-lambda-ok (handler and captures share the test scope)
      [&executions](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
        ++executions;
        co_return proto::OkReply(proto::NullRep{});
      });
  int ok_count = 0;
  constexpr int kCalls = 50;
  for (int i = 0; i < kCalls; ++i) {
    rig.simulator.Spawn([](Rig& rig, int& ok_count) -> sim::Task<void> {
      CallOptions opts;
      opts.timeout = sim::Msec(500);
      opts.max_attempts = 10;
      auto reply =
          co_await rig.client.Call(rig.server.address(), proto::Request(proto::NullReq{}), opts);
      if (reply.ok() && reply->status.ok()) {
        ++ok_count;
      }
    }(rig, ok_count));
  }
  rig.simulator.Run();
  EXPECT_EQ(ok_count, kCalls);
  EXPECT_GT(rig.client.retransmissions(), 0u);
}

TEST(RpcTest, DuplicateRequestsExecuteExactlyOnce) {
  // Drop every reply-direction packet for a while by making the server slow
  // instead: with loss, a retransmit can arrive while the original is still
  // executing (dropped) or after it completed (cached reply). Either way the
  // handler must run exactly once per XID.
  net::NetworkParams params;
  params.loss_rate = 0.4;
  Rig rig(params);
  int executions = 0;
  rig.server.set_handler(
      // lint: coro-lambda-ok (handler and captures share the test scope)
      [&executions, &rig](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
        ++executions;
        co_await sim::Sleep(rig.simulator, sim::Msec(200));
        co_return proto::OkReply(proto::NullRep{});
      });
  int completed = 0;
  constexpr int kCalls = 30;
  for (int i = 0; i < kCalls; ++i) {
    rig.simulator.Spawn([](Rig& rig, int& completed) -> sim::Task<void> {
      CallOptions opts;
      opts.timeout = sim::Msec(300);
      opts.max_attempts = 20;
      auto reply =
          co_await rig.client.Call(rig.server.address(), proto::Request(proto::NullReq{}), opts);
      if (reply.ok() && reply->status.ok()) {
        ++completed;
      }
    }(rig, completed));
  }
  rig.simulator.Run();
  EXPECT_EQ(completed, kCalls);
  // Exactly-once: the duplicate cache must have prevented re-execution.
  EXPECT_EQ(executions, kCalls);
  EXPECT_GT(rig.server.duplicates_suppressed(), 0u);
}

TEST(RpcTest, RetransmitAfterRewriteGetsTheOriginalReplyBytes) {
  // The reply to a read is lost, and the file is rewritten before the
  // client retransmits. The retransmit reaches the finished dup-cache entry,
  // so it must get the reply as first sent: the bytes read before the
  // rewrite, with no re-execution.
  Rig rig;
  disk::Disk disk{rig.simulator};
  fs::LocalFs fs{rig.simulator, disk};
  const std::vector<uint8_t> original(fs::kBlockSize, 0xAA);
  proto::FileHandle fh;
  rig.simulator.Spawn([](fs::LocalFs& fs, std::vector<uint8_t> bytes,
                         proto::FileHandle& fh) -> sim::Task<void> {
    auto file = co_await fs.Create(fs.root(), "f", /*exclusive=*/true);
    CHECK(file.ok());
    fh = file->fh;
    CHECK((co_await fs.Write(fh, 0, std::move(bytes), fs::LocalFs::WriteMode::kMemory)).ok());
  }(fs, original, fh));
  rig.simulator.Run();

  int executions = 0;
  rig.server.set_handler(
      // lint: coro-lambda-ok (handler and captures share the test scope)
      [&executions, &rig, &fs](proto::Request request, net::Address) -> sim::Task<proto::Reply> {
        ++executions;
        const auto& req = std::get<proto::ReadReq>(request);
        auto rep = co_await fs.Read(req.fh, req.offset, req.count);
        CHECK(rep.ok());
        if (executions == 1) {
          // Lose the first reply: the client is unreachable until the rewrite.
          rig.network.SetHostUp(rig.client.address(), false);
        }
        co_return proto::OkReply(std::move(*rep));
      });
  // Half a timeout later, rewrite the first half of the block and let the
  // client's retransmit through.
  rig.simulator.Spawn([](Rig& rig, fs::LocalFs& fs, proto::FileHandle fh) -> sim::Task<void> {
    co_await sim::Sleep(rig.simulator, sim::Msec(500));
    std::vector<uint8_t> rewrite(fs::kBlockSize / 2, 0xBB);
    CHECK((co_await fs.Write(fh, 0, std::move(rewrite), fs::LocalFs::WriteMode::kMemory)).ok());
    rig.network.SetHostUp(rig.client.address(), true);
  }(rig, fs, fh));
  proto::Bytes got;
  rig.simulator.Spawn([](Rig& rig, proto::FileHandle fh, proto::Bytes& got) -> sim::Task<void> {
    proto::ReadReq req;
    req.fh = fh;
    req.count = fs::kBlockSize;
    CallOptions opts;
    opts.timeout = sim::Sec(1);
    auto rep = Expect<proto::ReadRep>(co_await rig.client.Call(rig.server.address(), req, opts));
    CHECK(rep.ok());
    got = rep->data;
  }(rig, fh, got));
  rig.simulator.Run();

  EXPECT_EQ(executions, 1);
  EXPECT_EQ(rig.client.retransmissions(), 1u);
  EXPECT_EQ(rig.server.duplicates_suppressed(), 1u);
  EXPECT_EQ(got.ToVector(), original);
  // The file itself did change.
  EXPECT_EQ(fs.GetAttr(fh)->size, fs::kBlockSize);
  proto::Bytes now;
  rig.simulator.Spawn([](fs::LocalFs& fs, proto::FileHandle fh, proto::Bytes& now)
                          -> sim::Task<void> {
    auto rep = co_await fs.Read(fh, 0, fs::kBlockSize);
    CHECK(rep.ok());
    now = rep->data;
  }(fs, fh, now));
  rig.simulator.Run();
  ASSERT_EQ(now.size(), fs::kBlockSize);
  EXPECT_EQ(now[0], 0xBB);
  EXPECT_EQ(now[fs::kBlockSize - 1], 0xAA);
}

TEST(RpcTest, CallToDeadHostTimesOut) {
  Rig rig;
  rig.network.SetHostUp(rig.server.address(), false);
  bool done = false;
  rig.simulator.Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    CallOptions opts;
    opts.timeout = sim::Msec(100);
    opts.max_attempts = 3;
    auto reply =
        co_await rig.client.Call(rig.server.address(), proto::Request(proto::NullReq{}), opts);
    EXPECT_FALSE(reply.ok());
    EXPECT_EQ(reply.status(), base::ErrTimedOut());
    done = true;
  }(rig, done));
  rig.simulator.Run();
  EXPECT_TRUE(done);
}

TEST(RpcTest, LostReplyRetransmitsOnTimeAndRunEndsOneTimeoutAfterTheLastSend) {
  // The first reply is lost (the client host is down when it is sent). The
  // first attempt's timeout must still fire on time and retransmit; the
  // retransmit gets the cached reply, and the second attempt's cancelled
  // timeout still holds Run() open until one timeout after it was sent.
  Rig rig;
  trace::Recorder recorder(rig.simulator);
  trace::SetActive(&recorder);
  rig.server.set_handler([](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
    co_return proto::OkReply(proto::NullRep{});
  });
  int handled = 0;
  rig.server.set_worker_hook([&rig, &handled](const WorkerEvent& event) {
    if (event.phase != WorkerEvent::Phase::kAfterHandler || ++handled > 1) {
      return;
    }
    rig.network.SetHostUp(rig.client.address(), false);
    rig.simulator.Schedule(sim::Msec(1),
                           [&rig] { rig.network.SetHostUp(rig.client.address(), true); });
  });

  constexpr sim::Duration kTimeout = sim::Msec(100);
  sim::Time replied_at = -1;
  rig.simulator.Spawn([](Rig& rig, sim::Time& replied_at) -> sim::Task<void> {
    CallOptions opts;
    opts.timeout = kTimeout;
    opts.max_attempts = 3;
    opts.backoff = 1.0;
    auto reply =
        co_await rig.client.Call(rig.server.address(), proto::Request(proto::NullReq{}), opts);
    EXPECT_TRUE(reply.ok() && reply->status.ok());
    replied_at = rig.simulator.Now();
  }(rig, replied_at));
  sim::Time end = rig.simulator.Run();
  trace::SetActive(nullptr);

  std::vector<sim::Time> sent_at;
  for (const trace::Event& e : recorder.events()) {
    if (e.kind == trace::EventKind::kSpanBegin && e.name == "rpc.attempt") {
      sent_at.push_back(e.at);
    }
  }
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(rig.client.retransmissions(), 1u);
  EXPECT_EQ(rig.server.duplicates_suppressed(), 1u);
  ASSERT_EQ(sent_at.size(), 2u);
  EXPECT_EQ(sent_at[1], sent_at[0] + kTimeout);
  ASSERT_GT(replied_at, sent_at[1]);
  EXPECT_LT(replied_at, sent_at[1] + kTimeout);
  EXPECT_EQ(end, sent_at[1] + kTimeout);
  EXPECT_EQ(rig.simulator.foreground_pending(), 0u);
}

TEST(RpcTest, ServerCanCallBackIntoClient) {
  // The SNFS callback pattern: while serving a request from A, the server
  // calls B (here: calls A itself) and awaits the result before replying.
  Rig rig;
  rig.client.set_handler([](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
    co_return proto::OkReply(proto::CallbackRep{});
  });
  rig.server.set_handler(
      // lint: coro-lambda-ok (handler and captures share the test scope)
      [&rig](const proto::Request&, net::Address from) -> sim::Task<proto::Reply> {
        proto::CallbackReq cb;
        cb.invalidate = true;
        auto result = co_await rig.server.Call(from, proto::Request(cb));
        EXPECT_TRUE(result.ok());
        co_return proto::OkReply(proto::NullRep{});
      });
  bool done = false;
  rig.simulator.Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    auto reply = co_await rig.client.Call(rig.server.address(), proto::Request(proto::NullReq{}));
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) {
      co_return;
    }
    EXPECT_TRUE(reply->status.ok());
    done = true;
  }(rig, done));
  rig.simulator.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.server.client_ops().Get(proto::OpKind::kCallback), 1u);
}

TEST(RpcTest, WorkerPoolBoundsConcurrency) {
  PeerOptions opts;
  opts.num_workers = 2;
  Rig rig({}, opts);
  int running = 0;
  int peak = 0;
  rig.server.set_handler(
      // lint: coro-lambda-ok (handler and captures share the test scope)
      [&](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
        ++running;
        peak = std::max(peak, running);
        co_await sim::Sleep(rig.simulator, sim::Msec(50));
        --running;
        co_return proto::OkReply(proto::NullRep{});
      });
  for (int i = 0; i < 8; ++i) {
    rig.simulator.Spawn([](Rig& rig) -> sim::Task<void> {
      (void)co_await rig.client.Call(rig.server.address(), proto::Request(proto::NullReq{}));
    }(rig));
  }
  rig.simulator.Run();
  EXPECT_EQ(peak, 2);
}

TEST(RpcTest, WireSizeScalesWithPayload) {
  proto::WriteReq small;
  small.data = std::vector<uint8_t>(100);
  proto::WriteReq big;
  big.data = std::vector<uint8_t>(4096);
  EXPECT_GT(proto::WireSize(proto::Request(big)), proto::WireSize(proto::Request(small)) + 3900);
}

TEST(RpcTest, ShutdownFailsPendingCalls) {
  Rig rig;
  // lint: coro-lambda-ok (handler and captures share the test scope)
  rig.server.set_handler([&rig](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
    co_await sim::Sleep(rig.simulator, sim::Sec(100));
    co_return proto::OkReply(proto::NullRep{});
  });
  bool done = false;
  rig.simulator.Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    auto reply = co_await rig.client.Call(rig.server.address(), proto::Request(proto::NullReq{}));
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) {
      co_return;
    }
    EXPECT_FALSE(reply->status.ok());
    done = true;
  }(rig, done));
  rig.simulator.Schedule(sim::Msec(100), [&rig] { rig.client.Shutdown(); });
  rig.simulator.RunUntil(sim::Sec(10));
  EXPECT_TRUE(done);
}

TEST(RpcTest, GhostRepliesFromDeadGenerationAreDropped) {
  // A quick shutdown+restart while a handler is mid-flight: the old
  // generation's worker finishes *after* the restart. Its reply reflects
  // pre-crash state and must be dropped, not sent — and must not be
  // recorded in the new generation's duplicate cache, where it would mask
  // the retransmitted request's re-execution.
  Rig rig;
  int executions = 0;
  rig.server.set_handler(
      // lint: coro-lambda-ok (handler and captures share the test scope)
      [&executions, &rig](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
        int n = ++executions;
        co_await sim::Sleep(rig.simulator, sim::Msec(100));
        proto::LookupRep rep;
        rep.attr.size = static_cast<uint64_t>(n);
        co_return proto::OkReply(rep);
      });

  bool done = false;
  rig.simulator.Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    CallOptions opts;
    opts.timeout = sim::Msec(80);
    opts.max_attempts = 5;
    auto body = Expect<proto::LookupRep>(
        co_await rig.client.Call(rig.server.address(), MakeLookup("f"), opts));
    EXPECT_TRUE(body.ok());
    if (body.ok()) {
      // The reply must come from the post-restart execution, not the ghost.
      EXPECT_EQ(body->attr.size, 2u);
    }
    done = true;
  }(rig, done));
  // The host is never marked down in the network, so the ghost reply WOULD
  // be delivered if the worker sent it.
  rig.simulator.Schedule(sim::Msec(50), [&rig] { rig.server.Shutdown(); });
  rig.simulator.Schedule(sim::Msec(60), [&rig] { rig.server.Start(); });
  rig.simulator.RunUntil(sim::Sec(10));
  EXPECT_TRUE(done);
  EXPECT_EQ(executions, 2);
  EXPECT_EQ(rig.server.stale_replies_dropped(), 1u);
}

TEST(RpcTest, ShutdownClearsPendingCallsImmediately) {
  // Shutdown must forget in-flight calls synchronously: a reply that
  // straggles in after a restart must find no promise from the previous
  // incarnation, and repeated crash cycles must not grow the map.
  Rig rig;
  // lint: coro-lambda-ok (handler and captures share the test scope)
  rig.server.set_handler([&rig](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
    co_await sim::Sleep(rig.simulator, sim::Sec(100));
    co_return proto::OkReply(proto::NullRep{});
  });
  rig.simulator.Spawn([](Rig& rig) -> sim::Task<void> {
    (void)co_await rig.client.Call(rig.server.address(), proto::Request(proto::NullReq{}));
  }(rig));
  rig.simulator.Schedule(sim::Msec(100), [&rig] {
    EXPECT_EQ(rig.client.pending_calls(), 1u);
    rig.client.Shutdown();
    EXPECT_EQ(rig.client.pending_calls(), 0u);
  });
  rig.simulator.RunUntil(sim::Sec(1));
}

TEST(RpcTest, RetriedCallTracesOneLogicalSpanWithAttemptChildren) {
  // A handler slower than the client's timeout: attempt 1 times out, the
  // retransmit lands while the original execution is still in progress (a
  // dup-cache hit), and the eventual reply completes the call on attempt 2.
  // The trace must show ONE logical rpc.call span with two rpc.attempt
  // children, one rpc.handle execution, and the dup-cache hit as an instant
  // attributed to the second attempt.
  Rig rig;
  trace::Recorder recorder(rig.simulator);
  trace::SetActive(&recorder);

  // lint: coro-lambda-ok (handler and captures share the test scope)
  rig.server.set_handler([&rig](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
    co_await sim::Sleep(rig.simulator, sim::Msec(200));
    co_return proto::OkReply(proto::NullRep{});
  });

  bool done = false;
  rig.simulator.Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    CallOptions opts;
    opts.timeout = sim::Msec(150);
    opts.max_attempts = 3;
    auto reply =
        co_await rig.client.Call(rig.server.address(), proto::Request(proto::NullReq{}), opts);
    EXPECT_TRUE(reply.ok());
    done = true;
  }(rig, done));
  rig.simulator.Run();
  trace::SetActive(nullptr);
  EXPECT_TRUE(done);

  uint64_t call_span = 0;
  std::string call_end_args;
  std::vector<uint64_t> attempt_spans;
  std::vector<uint64_t> attempt_parents;
  uint64_t handle_begins = 0;
  uint64_t dup_hit_span = 0;
  std::string dup_hit_args;
  uint64_t retransmits = 0;
  for (const trace::Event& e : recorder.events()) {
    if (e.kind == trace::EventKind::kSpanBegin && e.name == "rpc.call") {
      EXPECT_EQ(call_span, 0u) << "more than one logical rpc.call span";
      call_span = e.span;
    } else if (e.kind == trace::EventKind::kSpanEnd && e.span == call_span && call_span != 0) {
      call_end_args = e.args;
    } else if (e.kind == trace::EventKind::kSpanBegin && e.name == "rpc.attempt") {
      attempt_spans.push_back(e.span);
      attempt_parents.push_back(e.parent);
    } else if (e.kind == trace::EventKind::kSpanBegin && e.name == "rpc.handle") {
      ++handle_begins;
    } else if (e.name == "rpc.dup_hit") {
      dup_hit_span = e.span;
      dup_hit_args = e.args;
    } else if (e.name == "rpc.retransmit") {
      ++retransmits;
    }
  }
  ASSERT_NE(call_span, 0u);
  EXPECT_EQ(trace::ArgValue(call_end_args, "status"), "done");
  EXPECT_EQ(trace::ArgValue(call_end_args, "attempts"), "2");
  ASSERT_EQ(attempt_spans.size(), 2u);
  EXPECT_EQ(attempt_parents[0], call_span);
  EXPECT_EQ(attempt_parents[1], call_span);
  EXPECT_EQ(retransmits, 1u);
  // The handler ran once; the retransmit was absorbed by the dup cache while
  // the original was still executing, attributed to the retransmit's attempt.
  EXPECT_EQ(handle_begins, 1u);
  EXPECT_EQ(dup_hit_span, attempt_spans[1]);
  EXPECT_EQ(trace::ArgValue(dup_hit_args, "done"), "0");
}

TEST(RpcTest, DupCacheEvictionIsBoundedWithInProgressEntries) {
  // Six workers park forever on their first requests; a stream of quick
  // calls then flows through a 4-entry duplicate cache. Eviction must skip
  // the in-progress entries in place: the cache may exceed its capacity
  // only by the number of in-progress entries, no matter how the parked
  // entries interleave with completed ones in FIFO order.
  PeerOptions server_opts;
  server_opts.num_workers = 8;  // 6 get parked; 2 stay free for quick calls
  server_opts.dup_cache_entries = 4;
  Rig rig({}, server_opts);
  rig.server.set_handler(
      // lint: coro-lambda-ok (handler and captures share the test scope)
      [&rig](const proto::Request& req, net::Address) -> sim::Task<proto::Reply> {
        if (std::holds_alternative<proto::NullReq>(req)) {
          co_await sim::Sleep(rig.simulator, sim::Sec(5000));  // park
        }
        co_return proto::OkReply(proto::NullRep{});
      });

  bool done = false;
  rig.simulator.Spawn([](Rig& rig, bool& done) -> sim::Task<void> {
    CallOptions park_opts;
    park_opts.timeout = sim::Sec(30);
    park_opts.max_attempts = 1;
    for (int i = 0; i < 6; ++i) {
      // Fire-and-forget: these occupy all six workers.
      rig.simulator.Spawn([](Rig& rig, CallOptions opts) -> sim::Task<void> {
        (void)co_await rig.client.Call(rig.server.address(), proto::Request(proto::NullReq{}),
                                       opts);
      }(rig, park_opts));
    }
    co_await sim::Sleep(rig.simulator, sim::Msec(50));
    for (int i = 0; i < 20; ++i) {
      auto reply = co_await rig.client.Call(rig.server.address(), MakeLookup("q"));
      EXPECT_TRUE(reply.ok());
      size_t size = rig.server.dup_cache_size();
      size_t in_progress = rig.server.dup_cache_in_progress();
      EXPECT_LE(size, 4u + in_progress)
          << "dup cache over bound after call " << i << ": " << size << " entries, "
          << in_progress << " in progress";
    }
    done = true;
  }(rig, done));
  rig.simulator.RunUntil(sim::Sec(20));
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.server.dup_cache_in_progress(), 6u);
}

}  // namespace
}  // namespace rpc
