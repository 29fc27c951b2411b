// Raw simulator throughput: events/sec and sim-time-per-wall-second across
// three kernel microloads, from the bare event queue up to one RPC layer.
//
//   pure-timer  self-rescheduling closure timers with mixed near/far delays
//               (exercises the timer queue: fast lane and far-timer heap);
//   ping-pong   coroutine pairs bouncing tokens through channels (exercises
//               the Ready() resumption path, the dominant event kind);
//   rpc-echo    closed-loop NullReq RPCs between two peers over the
//               simulated network (resumptions + packet delivery closures).
//
// The realistic protocol mixes (Andrew, sort, the fleet hotset) are timed
// by the repository benchmark, snfsbench.
//
// This is the one bench family whose headline numbers depend on wall-clock
// time; everything else the repo measures is virtual. The JSON therefore
// separates deterministic fields (events, work units, simulated seconds)
// from machine-dependent ones (wall seconds, events/sec). One run of a load
// swings widely on a shared host, so a full run repeats each load 5 times,
// interleaved round-robin, and the wall fields report the median run with
// the interquartile range of wall seconds beside it. Snapshots are
// checked in at the repo root as BENCH_simperf.json per the ROADMAP's
// perf-trajectory item; see EXPERIMENTS.md for how to read them.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/metrics/table.h"
#include "src/net/network.h"
#include "src/proto/messages.h"
#include "src/rpc/peer.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace {

using metrics::Table;

struct LoadResult {
  std::string name;
  uint64_t events = 0;      // simulator events processed
  uint64_t work_units = 0;  // load-specific: timer hops, rounds, calls
  double sim_sec = 0;       // virtual time elapsed
  double wall_sec = 0;      // host time elapsed (machine-dependent): median
  double wall_q1 = 0;       // interquartile range of wall_sec over the runs
  double wall_q3 = 0;
  int runs = 1;

  double events_per_sec() const { return wall_sec > 0 ? events / wall_sec : 0; }
  double sim_per_wall() const { return wall_sec > 0 ? sim_sec / wall_sec : 0; }
};

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// --- pure-timer -------------------------------------------------------------

// A battery of timers, each rescheduling itself with a rotating delay mix:
// mostly near-future (fast-lane territory), occasionally seconds out (heap
// territory), so both sides of the timer queue are exercised.
struct SelfTimer {
  sim::Simulator& simulator;
  uint64_t& hops;
  uint64_t target;
  int step;

  void Fire() {
    static constexpr sim::Duration kDelays[] = {sim::Usec(50), sim::Usec(700), sim::Msec(3),
                                                sim::Msec(40), sim::Sec(2)};
    if (hops >= target) {
      return;
    }
    ++hops;
    ++step;
    simulator.Schedule(kDelays[step % 5], [this] { Fire(); });
  }
};

LoadResult RunPureTimer(uint64_t hops_target) {
  sim::Simulator simulator;
  uint64_t hops = 0;
  std::vector<SelfTimer> timers;
  timers.reserve(64);
  for (int i = 0; i < 64; ++i) {
    timers.push_back(SelfTimer{simulator, hops, hops_target, i});
  }
  WallTimer wall;
  for (SelfTimer& t : timers) {
    t.Fire();
  }
  simulator.Run();
  LoadResult r;
  r.name = "pure_timer";
  r.events = simulator.events_processed();
  r.work_units = hops;
  r.sim_sec = sim::ToSeconds(simulator.Now());
  r.wall_sec = wall.Seconds();
  return r;
}

// --- coroutine ping-pong ----------------------------------------------------

sim::Task<void> Pinger(sim::Channel<int>& tx, sim::Channel<int>& rx, uint64_t rounds) {
  for (uint64_t i = 0; i < rounds; ++i) {
    tx.Send(static_cast<int>(i));
    co_await rx.Recv();
  }
  tx.Close();
}

sim::Task<void> Ponger(sim::Channel<int>& rx, sim::Channel<int>& tx) {
  while (true) {
    std::optional<int> v = co_await rx.Recv();
    if (!v.has_value()) {
      co_return;
    }
    tx.Send(*v);
  }
}

LoadResult RunPingPong(uint64_t rounds_per_pair) {
  sim::Simulator simulator;
  constexpr int kPairs = 8;
  std::vector<std::unique_ptr<sim::Channel<int>>> channels;
  for (int i = 0; i < 2 * kPairs; ++i) {
    channels.push_back(std::make_unique<sim::Channel<int>>(simulator));
  }
  WallTimer wall;
  for (int i = 0; i < kPairs; ++i) {
    simulator.Spawn(Pinger(*channels[2 * i], *channels[2 * i + 1], rounds_per_pair));
    simulator.Spawn(Ponger(*channels[2 * i], *channels[2 * i + 1]));
  }
  simulator.Run();
  LoadResult r;
  r.name = "ping_pong";
  r.events = simulator.events_processed();
  r.work_units = rounds_per_pair * kPairs;
  r.sim_sec = sim::ToSeconds(simulator.Now());
  r.wall_sec = wall.Seconds();
  return r;
}

// --- rpc-echo ---------------------------------------------------------------

sim::Task<void> EchoCaller(rpc::Peer& client, net::Address server, uint64_t calls,
                           uint64_t& completed) {
  for (uint64_t i = 0; i < calls; ++i) {
    auto reply = co_await client.Call(server, proto::NullReq{});
    CHECK(reply.ok());
    ++completed;
  }
}

LoadResult RunRpcEcho(uint64_t calls_per_caller) {
  sim::Simulator simulator;
  net::Network network(simulator, {}, /*seed=*/42);
  sim::Cpu client_cpu(simulator);
  sim::Cpu server_cpu(simulator);
  rpc::Peer client(simulator, network, client_cpu, "client");
  rpc::Peer server(simulator, network, server_cpu, "server");
  server.set_handler([](const proto::Request&, net::Address) -> sim::Task<proto::Reply> {
    co_return proto::OkReply(proto::NullRep{});
  });
  client.Start();
  server.Start();

  constexpr int kCallers = 4;
  uint64_t completed = 0;
  WallTimer wall;
  for (int i = 0; i < kCallers; ++i) {
    simulator.Spawn(EchoCaller(client, server.address(), calls_per_caller, completed));
  }
  simulator.Run();
  LoadResult r;
  r.name = "rpc_echo";
  r.events = simulator.events_processed();
  r.work_units = completed;
  r.sim_sec = sim::ToSeconds(simulator.Now());
  r.wall_sec = wall.Seconds();
  CHECK_EQ(completed, calls_per_caller * kCallers);
  client.Shutdown();
  server.Shutdown();
  return r;
}

// --- repetitions --------------------------------------------------------------

// Linear-interpolation quantile of an ascending sample.
double Quantile(const std::vector<double>& sorted, double p) {
  double pos = p * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

// Folds `runs` of one load into its median: the virtual fields must agree
// run to run (the determinism contract), the wall time is summarized.
LoadResult Summarize(const std::vector<LoadResult>& runs) {
  LoadResult r = runs.front();
  std::vector<double> walls;
  for (const LoadResult& run : runs) {
    CHECK_EQ(run.events, r.events);
    CHECK_EQ(run.work_units, r.work_units);
    CHECK_EQ(run.sim_sec, r.sim_sec);
    walls.push_back(run.wall_sec);
  }
  std::sort(walls.begin(), walls.end());
  r.wall_sec = Quantile(walls, 0.5);
  r.wall_q1 = Quantile(walls, 0.25);
  r.wall_q3 = Quantile(walls, 0.75);
  r.runs = static_cast<int>(runs.size());
  return r;
}

// --- output -----------------------------------------------------------------

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string LoadJson(const LoadResult& r) {
  std::string out = "{";
  out += "\"events\":" + std::to_string(r.events);
  out += ",\"work_units\":" + std::to_string(r.work_units);
  out += ",\"sim_elapsed_s\":" + JsonNum(r.sim_sec);
  out += ",\"runs\":" + std::to_string(r.runs);
  out += ",\"wall_s\":" + JsonNum(r.wall_sec);
  out += ",\"wall_s_q1\":" + JsonNum(r.wall_q1);
  out += ",\"wall_s_q3\":" + JsonNum(r.wall_q3);
  out += ",\"events_per_sec\":" + JsonNum(r.events_per_sec());
  out += ",\"sim_s_per_wall_s\":" + JsonNum(r.sim_per_wall());
  out += "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json=<path>] [--smoke]\n", argv[0]);
      return 2;
    }
  }
  // Smoke sizes keep the whole binary under ~1s for scripts/check.sh; full
  // sizes run each load long enough, and often enough, for stable events/sec.
  int runs = smoke ? 1 : 5;
  uint64_t timer_hops = smoke ? 50'000 : 2'000'000;
  uint64_t pingpong_rounds = smoke ? 20'000 : 500'000;  // per pair
  uint64_t echo_calls = smoke ? 2'000 : 50'000;         // per caller

  std::printf("=== bench_simperf: raw simulator throughput (median of %d runs) ===\n\n",
              runs);
  std::vector<std::vector<LoadResult>> samples(3);
  for (int run = 0; run < runs; ++run) {
    samples[0].push_back(RunPureTimer(timer_hops));
    samples[1].push_back(RunPingPong(pingpong_rounds));
    samples[2].push_back(RunRpcEcho(echo_calls));
  }
  std::vector<LoadResult> results;
  for (const std::vector<LoadResult>& load : samples) {
    results.push_back(Summarize(load));
  }

  Table t({"Load", "Events", "Work units", "Sim s", "Wall s", "Wall IQR", "Events/s",
           "Sim s/wall s"});
  for (const LoadResult& r : results) {
    t.AddRow({r.name, Table::Int(r.events), Table::Int(r.work_units), Table::Num(r.sim_sec, 2),
              Table::Num(r.wall_sec, 3),
              Table::Num(r.wall_q1, 3) + "-" + Table::Num(r.wall_q3, 3),
              Table::Num(r.events_per_sec(), 0), Table::Num(r.sim_per_wall(), 1)});
  }
  t.Print();

  if (!json_path.empty()) {
    std::vector<std::pair<std::string, std::string>> configs;
    for (const LoadResult& r : results) {
      configs.emplace_back(r.name, LoadJson(r));
    }
    bench::WriteBenchJson(json_path, "simperf", configs);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
