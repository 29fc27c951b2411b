// snfsbench: the repository benchmark. One workload per process:
//
//   andrew_snfs    §5.2 Andrew benchmark on SNFS, 1 server × 1 client,
//                  /tmp remote (Table 5-1 "SNFS tmp=remote");
//   sort_nfs       §5.3 external sort on NFS, 2816 KB input, /usr/tmp
//                  remote, 1280-block client cache (Table 5-3);
//   fleet_hotset   Zipf open-read-close on NFS, 4 shards × 64 clients behind
//                  fleet::MetaCache, plus one writer rewriting the hottest
//                  file every 100 ms of virtual time.
//
//   snfsbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--size full|smoke]
//
// A run repeats "set up a fresh rig, run the timed phase, tear down" until
// --seconds of host time have passed (at least kMinReps times) and reports
// host metrics as medians over the repetitions. Virtual metrics come from
// the modelled system and must repeat exactly: every repetition's virtual
// fingerprint has to match the first one. With --trace 1 one more
// repetition runs with a trace::Recorder installed after set-up; its trace
// yields the per-layer self times, must pass trace::CheckTrace, and its
// virtual fingerprint must equal the untraced one (recording never
// schedules events).
//
// Output: a table of every metric (name, value, unit, clock), the virtual
// fingerprint and the gate verdict, then one JSON line with "correct",
// "attempted", "failed" and "metrics" — the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exit status 0 when the
// gate passes, 1 when it fails, 2 on a usage error. See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/metrics/histogram.h"
#include "src/metrics/op_counters.h"
#include "src/rpc/peer.h"
#include "src/testbed/rig.h"
#include "src/trace/checker.h"
#include "src/trace/trace.h"
#include "src/workload/andrew.h"
#include "src/workload/fleet.h"
#include "src/workload/sort.h"

namespace {

using testbed::Protocol;
using testbed::Rig;
using testbed::RigOptions;
using HostClock = std::chrono::steady_clock;

// The seed later claims are developed on, and the one they are confirmed
// on (README.md, "Seeds").
constexpr uint64_t kDefaultSeed = 1989;
constexpr uint64_t kHeldOutSeed = 7919;

// SubSeed stream bases for the hotset clients' Zipf streams (plus client
// index), so warm-up and timed ops draw different files.
constexpr uint64_t kWarmupStreams = 2000;
constexpr uint64_t kTimedStreams = 1000;

constexpr int kMinReps = 3;
constexpr int kMaxReps = 2000;

double SecondsSince(HostClock::time_point start) {
  return std::chrono::duration<double>(HostClock::now() - start).count();
}

double PeakRssMb() {
  rusage usage{};
  CHECK(getrusage(RUSAGE_SELF, &usage) == 0);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Median(std::vector<double> values) {
  CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// Independent per-purpose streams from the one command-line seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  sim::Rng rng(seed ^ (stream * 0xD1B54A32D192ED03ULL));
  return rng.Next();
}

// Host speed. Shared sandboxes change speed, by up to 2x for tens of
// seconds at a time, as their neighbours come and go; no number of
// repetitions averages that out. So every host time is measured against a
// fixed reference computation timed right before and after it, and reported
// as `raw * kReferenceNominalS / reference`: the time it would have taken on
// a host where the reference takes kReferenceNominalS. The reference shares
// no code with the simulator, so a change to the simulator moves the scaled
// times exactly as it moves the raw ones. Raw medians are reported too
// (host.*_raw_s).
//
// The reference is the mix the simulator's event loop is made of: hash-map
// churn, small heap allocations and dependent loads. It tracked the
// simulator's speed shifts better than variants chasing a ring larger than
// the per-core caches or copying memory.
constexpr double kReferenceNominalS = 0.020;

double ReferenceSeconds() {
  // Built once and kept, so repeated calls leave the allocator's state alone.
  // The full-period linear congruential step (Hull-Dobell) makes the ring a
  // single cycle.
  constexpr uint32_t kNodes = uint32_t{1} << 12;
  static const std::vector<uint32_t> ring = [] {
    std::vector<uint32_t> next(kNodes);
    for (uint32_t i = 0; i < kNodes; ++i) {
      next[i] = (i * 1664525u + 1013904223u) & (kNodes - 1);
    }
    return next;
  }();
  HostClock::time_point start = HostClock::now();
  sim::Rng rng(42);
  std::unordered_map<uint64_t, std::unique_ptr<std::string>> map;
  uint64_t sink = 0;
  uint32_t at = 0;
  for (int round = 0; round < 200000; ++round) {
    for (int hop = 0; hop < 4; ++hop) {
      at = ring[at];
    }
    uint64_t key = rng.Next() % 4096;
    auto it = map.find(key);
    if (it == map.end()) {
      map.emplace(key, std::make_unique<std::string>(16 + at % 48, 'x'));
    } else {
      sink += it->second->size();
      map.erase(it);
    }
  }
  // Keep the result observable so the work cannot be optimised away.
  volatile uint64_t observed = sink + at;
  (void)observed;
  return SecondsSince(start);
}

double HostScale(double reference_s) { return Ratio(kReferenceNominalS, reference_s); }

// --- command line -------------------------------------------------------------

enum class WorkloadKind { kAndrewSnfs, kSortNfs, kFleetHotset };

struct Flags {
  WorkloadKind workload = WorkloadKind::kAndrewSnfs;
  std::string workload_name;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

[[noreturn]] void Usage(const char* argv0, const std::string& problem) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload andrew_snfs|sort_nfs|fleet_hotset [--seed N]"
               " [--seconds S] [--trace 0|1] [--size full|smoke]\n"
               "default seed %" PRIu64 ", held-out seed %" PRIu64 "\n",
               argv0, problem.c_str(), argv0, kDefaultSeed, kHeldOutSeed);
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) {
      Usage(argv[0], "missing value for " + arg);
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      have_workload = true;
      flags.workload_name = value;
      if (value == "andrew_snfs") {
        flags.workload = WorkloadKind::kAndrewSnfs;
      } else if (value == "sort_nfs") {
        flags.workload = WorkloadKind::kSortNfs;
      } else if (value == "fleet_hotset") {
        flags.workload = WorkloadKind::kFleetHotset;
      } else {
        Usage(argv[0], "unknown workload " + value);
      }
    } else if (arg == "--seed") {
      flags.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        Usage(argv[0], "bad seed " + value);
      }
    } else if (arg == "--seconds") {
      flags.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(flags.seconds >= 0)) {
        Usage(argv[0], "bad seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        Usage(argv[0], "--trace takes 0 or 1");
      }
      flags.trace = value == "1";
    } else if (arg == "--size") {
      if (value != "full" && value != "smoke") {
        Usage(argv[0], "--size takes full or smoke");
      }
      flags.smoke = value == "smoke";
    } else {
      Usage(argv[0], "unknown argument " + arg);
    }
  }
  if (!have_workload) {
    Usage(argv[0], "--workload is required");
  }
  return flags;
}

// --- workload plans ----------------------------------------------------------

// Everything a repetition needs, fixed by (workload, size, seed).
struct Plan {
  WorkloadKind kind = WorkloadKind::kAndrewSnfs;
  // andrew_snfs
  workload::AndrewShape andrew_shape;
  int andrew_trials = 0;  // timed trials after one warm-up trial
  // sort_nfs
  uint64_t sort_bytes = 0;
  int sorts = 0;  // timed sorts after one warm-up sort
  // fleet_hotset
  int shards = 0;
  int clients = 0;
  int ops_per_client = 0;
  int warmup_ops_per_client = 0;
  workload::FleetTreeShape tree;
  uint64_t seed = 0;
};

Plan MakePlan(const Flags& flags) {
  Plan plan;
  plan.kind = flags.workload;
  plan.seed = flags.seed;
  switch (flags.workload) {
    case WorkloadKind::kAndrewSnfs:
      plan.andrew_shape.seed = SubSeed(flags.seed, 1);
      plan.andrew_trials = 5;
      if (flags.smoke) {
        plan.andrew_shape.dirs = 2;
        plan.andrew_shape.files_per_dir = 3;
        plan.andrew_trials = 1;
      }
      break;
    case WorkloadKind::kSortNfs:
      plan.sort_bytes = flags.smoke ? 64 * 1024 : 2816 * 1024;  // Table 5-3's largest row
      plan.sorts = flags.smoke ? 1 : 4;
      break;
    case WorkloadKind::kFleetHotset:
      plan.shards = flags.smoke ? 2 : 4;
      plan.clients = flags.smoke ? 4 : 64;
      plan.ops_per_client = flags.smoke ? 20 : 200;
      plan.warmup_ops_per_client = flags.smoke ? 4 : 16;
      plan.tree.seed = SubSeed(flags.seed, 3);
      break;
  }
  return plan;
}

// --- counters ----------------------------------------------------------------

// Cumulative public counters of every layer, summed over the rig's machines
// and keyed by name; sim::Duration values are virtual microseconds.
// Timed-phase values are after-minus-before differences.
using Counters = std::map<std::string, int64_t>;

int64_t Get(const Counters& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

Counters Snapshot(Rig& rig) {
  Counters c;
  c["sim.events"] = static_cast<int64_t>(rig.simulator().events_processed());
  c["net.packets"] = static_cast<int64_t>(rig.network().packets_sent());
  c["net.bytes"] = static_cast<int64_t>(rig.network().bytes_sent());
  c["net.dropped"] = static_cast<int64_t>(rig.network().packets_dropped());
  auto add_peer = [&c](rpc::Peer& peer) {
    c["rpc.retransmissions"] += static_cast<int64_t>(peer.retransmissions());
    c["rpc.dup_suppressed"] += static_cast<int64_t>(peer.duplicates_suppressed());
  };
  for (int i = 0; i < rig.num_clients(); ++i) {
    testbed::ClientMachine& client = rig.client(i);
    c["cpu.client_us"] += client.cpu().busy_time();
    add_peer(client.peer());
    const metrics::OpCounters& ops = client.peer().client_ops();
    c["rpc.total"] += static_cast<int64_t>(ops.Total());
    for (int k = 1; k < proto::kNumOpKinds; ++k) {
      auto kind = static_cast<proto::OpKind>(k);
      c["rpc.calls." + std::string(proto::OpKindName(kind))] +=
          static_cast<int64_t>(ops.Get(kind));
    }
    const cache::CacheStats& stats = client.buffer_cache().stats();
    c["cache.hits"] += static_cast<int64_t>(stats.hits);
    c["cache.misses"] += static_cast<int64_t>(stats.misses);
    c["cache.delayed_writes"] += static_cast<int64_t>(stats.delayed_writes);
    c["cache.writebacks"] += static_cast<int64_t>(stats.writebacks);
    c["cache.cancelled_writes"] += static_cast<int64_t>(stats.cancelled_writes);
    c["cache.evictions"] += static_cast<int64_t>(stats.evictions);
  }
  for (int s = 0; s < rig.num_shards(); ++s) {
    testbed::ServerMachine& server = rig.shard(s);
    c["cpu.server_us"] += server.cpu().busy_time();
    add_peer(server.peer());
    c["disk.reads"] += static_cast<int64_t>(server.disk().reads());
    c["disk.writes"] += static_cast<int64_t>(server.disk().writes());
    c["disk.busy_us"] += server.disk().busy_time();
    if (server.snfs_server() != nullptr) {
      c["snfs.callbacks_issued"] += static_cast<int64_t>(server.snfs_server()->callbacks_issued());
    }
    const metrics::OpCounters& ops = server.peer().server_ops();
    c["server.rpcs." + std::to_string(s)] = static_cast<int64_t>(ops.Total());
    c["fleet.shard_meta_rpcs"] +=
        static_cast<int64_t>(ops.Get(proto::OpKind::kGetAttr) + ops.Get(proto::OpKind::kLookup));
  }
  if (fleet::MetaCache* meta = rig.meta_cache()) {
    c["cpu.server_us"] += meta->cpu().busy_time();
    add_peer(meta->peer());
    c["fleet.meta.hits"] = static_cast<int64_t>(meta->hits());
    c["fleet.meta.misses"] = static_cast<int64_t>(meta->misses());
    c["fleet.meta.coalesced"] = static_cast<int64_t>(meta->coalesced());
    c["fleet.meta.forwarded"] = static_cast<int64_t>(meta->forwarded());
    c["fleet.meta.stale_fills_rejected"] = static_cast<int64_t>(meta->stale_fills_rejected());
  }
  return c;
}

Counters Diff(const Counters& after, const Counters& before) {
  Counters d;
  for (const auto& [name, value] : after) {
    d[name] = value - Get(before, name);
  }
  return d;
}

// --- one repetition ------------------------------------------------------------

struct SetupTimes {
  double rig_build_s = 0;
  double populate_s = 0;
  double warmup_s = 0;
  double total() const { return rig_build_s + populate_s + warmup_s; }
};

// What the timed phase's workload code reports.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  sim::Duration virtual_elapsed = 0;  // Andrew/sort: sum of units; hotset: makespan
  std::array<sim::Duration, workload::kNumAndrewPhases> andrew_phases{};
  uint64_t sort_temp_bytes = 0;
};

struct Sample {
  SetupTimes setup;
  double wall_s = 0;  // host time of the timed phase
  Outcome outcome;
  Counters counters;
  sim::Duration phase_span = 0;  // virtual time from phase start to quiescence
  uint64_t snfs_state_entries = 0;
  uint64_t fs_inodes = 0;
  std::vector<int> client_hosts;
  int servers = 0;          // shards (each with one disk)
  int server_machines = 0;  // shards and the meta cache
  bool nfs = false;         // the clients run nfs::NfsClient
};

std::unique_ptr<Rig> BuildRig(const Plan& plan) {
  RigOptions options;
  switch (plan.kind) {
    case WorkloadKind::kAndrewSnfs:
      options.protocol = Protocol::kSnfs;
      options.remote_tmp = true;
      break;
    case WorkloadKind::kSortNfs:
      options.protocol = Protocol::kNfs;
      options.remote_tmp = true;
      // Table 5-3's regime: the sort's working set does not fit the usable
      // share of the client cache.
      options.client.cache.capacity_blocks = 1280;
      break;
    case WorkloadKind::kFleetHotset:
      options.protocol = Protocol::kNfs;
      options.fleet.servers = plan.shards;
      options.fleet.clients = plan.clients;
      options.fleet.meta_cache = true;
      // Too small to hold the catalog, so every read reaches the fleet.
      options.client.cache.capacity_blocks = 8;
      break;
  }
  return std::make_unique<Rig>(options);
}

workload::AndrewConfig AndrewTrialConfig(Rig& rig, const Plan& plan, int trial) {
  workload::AndrewConfig config;
  config.src_root = rig.data_root() + "/src";
  config.target_root = rig.data_root() + "/t" + std::to_string(trial);
  config.tmp_dir = rig.tmp_dir();
  config.shape = plan.andrew_shape;
  return config;
}

// Trials first..last back to back on one warm rig, each into a fresh
// target subtree and under its own root span.
sim::Task<void> AndrewTrials(Rig& rig, Plan plan, int first, int last, Outcome* out) {
  for (int trial = first; trial <= last; ++trial) {
    ++out->attempted;
    trace::Span unit("bench.andrew_trial", rig.client().address().host,
                     "trial=" + std::to_string(trial));
    auto report = co_await workload::RunAndrew(rig.simulator(), rig.client().vfs(),
                                               rig.client().cpu(),
                                               AndrewTrialConfig(rig, plan, trial));
    unit.End();
    if (!report.ok()) {
      ++out->failed;
      continue;
    }
    out->virtual_elapsed += report->total;
    for (int p = 0; p < workload::kNumAndrewPhases; ++p) {
      out->andrew_phases[static_cast<size_t>(p)] += report->phase_time[static_cast<size_t>(p)];
    }
  }
}

// Sorts first..last back to back, each to a fresh output file.
sim::Task<void> Sorts(Rig& rig, int first, int last, Outcome* out) {
  for (int sort = first; sort <= last; ++sort) {
    ++out->attempted;
    workload::SortConfig config;
    config.input_path = "/local/input";
    config.output_path = "/local/out" + std::to_string(sort);
    config.tmp_dir = rig.tmp_dir();
    trace::Span unit("bench.sort", rig.client().address().host,
                     "sort=" + std::to_string(sort));
    auto report =
        co_await workload::RunSort(rig.simulator(), rig.client().vfs(), rig.client().cpu(), config);
    unit.End();
    if (!report.ok() || !report->verified) {
      ++out->failed;
      continue;
    }
    out->virtual_elapsed += report->elapsed;
    out->sort_temp_bytes += report->temp_bytes_written;
  }
}

struct HotsetState {
  int done = 0;
  sim::Duration makespan = 0;
};

sim::Task<void> HotsetClient(Rig& rig, workload::HotsetConfig config, int c, HotsetState* state,
                             Outcome* out) {
  trace::Span unit("bench.hotset_client", rig.client(c).address().host,
                   "client=" + std::to_string(c));
  auto report = co_await workload::RunHotset(rig.simulator(), rig.client(c).vfs(),
                                             rig.client(c).cpu(), config);
  unit.End();
  out->attempted += static_cast<uint64_t>(config.ops);
  if (!report.ok()) {
    out->failed += static_cast<uint64_t>(config.ops);
  } else {
    // An op whose open or read failed is not done; a failed close is
    // counted in errors only.
    out->failed += std::max<uint64_t>(report->errors,
                                      static_cast<uint64_t>(config.ops) - report->ops_done);
    state->makespan = std::max(state->makespan, report->elapsed);
  }
  ++state->done;
}

// Client 0 rewrites the hottest catalog file every 100 ms of virtual time
// until the readers finish, so the tier's refresh-on-mutation path runs
// beside the reads.
sim::Task<void> HotsetWriter(Rig& rig, std::string path, uint32_t bytes, int readers,
                             const HotsetState* state, Outcome* out) {
  for (int w = 0;; ++w) {
    co_await sim::Sleep(rig.simulator(), sim::Msec(100));
    if (state->done == readers) {
      co_return;
    }
    ++out->attempted;
    trace::Span unit("bench.hotset_write", rig.client(0).address().host,
                     "write=" + std::to_string(w));
    auto written = co_await rig.client(0).vfs().WriteFile(
        path, std::vector<uint8_t>(bytes, static_cast<uint8_t>(w)));
    unit.End();
    if (!written.ok()) {
      ++out->failed;
    }
  }
}

workload::HotsetConfig HotsetClientConfig(Rig& rig, const Plan& plan, int c, int ops,
                                          uint64_t stream) {
  workload::HotsetConfig config;
  for (int s = 0; s < rig.num_shards(); ++s) {
    config.shard_roots.push_back(Rig::ShardRoot(s));
  }
  config.shape = plan.tree;
  config.ops = ops;
  config.seed = SubSeed(plan.seed, stream + static_cast<uint64_t>(c));
  // The shards are the resource under test; per-op client CPU would
  // serialize the clients instead (as in bench_fleet).
  config.cpu.stat_per_file = sim::Usec(100);
  config.cpu.read_per_kb = sim::Usec(50);
  return config;
}

void SpawnTimedPhase(Rig& rig, const Plan& plan, HotsetState* hot, Outcome* out) {
  switch (plan.kind) {
    case WorkloadKind::kAndrewSnfs:
      rig.simulator().Spawn(AndrewTrials(rig, plan, 1, plan.andrew_trials, out));
      break;
    case WorkloadKind::kSortNfs:
      rig.simulator().Spawn(Sorts(rig, 1, plan.sorts, out));
      break;
    case WorkloadKind::kFleetHotset: {
      for (int c = 0; c < rig.num_clients(); ++c) {
        rig.simulator().Spawn(HotsetClient(
            rig, HotsetClientConfig(rig, plan, c, plan.ops_per_client, kTimedStreams), c, hot,
            out));
      }
      // Catalog slot 0, the Zipf head, lives on shard 0 as d0/f0.
      rig.simulator().Spawn(HotsetWriter(rig, Rig::ShardRoot(0) + "/hot/d0/f0",
                                         plan.tree.file_bytes, rig.num_clients(), hot, out));
      break;
    }
  }
}

// Set-up: rig build, out-of-band population, warm-up. Each is timed; the
// warm-up's units count toward `warm`.
std::unique_ptr<Rig> SetUp(const Plan& plan, SetupTimes* times, Outcome* warm) {
  HostClock::time_point start = HostClock::now();
  std::unique_ptr<Rig> rig = BuildRig(plan);
  times->rig_build_s = SecondsSince(start);

  start = HostClock::now();
  switch (plan.kind) {
    case WorkloadKind::kAndrewSnfs:
      rig->simulator().Spawn(
          workload::PopulateAndrewTree(rig->data_fs(), rig->data_parent(), plan.andrew_shape));
      break;
    case WorkloadKind::kSortNfs:
      CHECK(rig->client().local_fs() != nullptr);
      rig->simulator().Spawn(workload::PopulateSortInput(
          *rig->client().local_fs(), rig->client().local_fs()->root(), "input", plan.sort_bytes,
          SubSeed(plan.seed, 2)));
      break;
    case WorkloadKind::kFleetHotset:
      rig->simulator().Spawn([](Rig& rig, workload::FleetTreeShape tree) -> sim::Task<void> {
        for (int s = 0; s < rig.num_shards(); ++s) {
          co_await workload::PopulateFleetTree(rig.shard_fs(s), rig.shard_data_parent(s), "hot",
                                               tree);
        }
      }(*rig, plan.tree));
      break;
  }
  rig->simulator().Run();
  times->populate_s = SecondsSince(start);

  // Warm-up: one Andrew trial, one sort, or a short hotset pass on streams
  // of its own fills the caches and server state the timed phase then
  // finds warm.
  start = HostClock::now();
  HotsetState warm_hot;
  switch (plan.kind) {
    case WorkloadKind::kAndrewSnfs:
      rig->simulator().Spawn(AndrewTrials(*rig, plan, 0, 0, warm));
      break;
    case WorkloadKind::kSortNfs:
      rig->simulator().Spawn(Sorts(*rig, 0, 0, warm));
      break;
    case WorkloadKind::kFleetHotset:
      for (int c = 0; c < rig->num_clients(); ++c) {
        rig->simulator().Spawn(HotsetClient(
            *rig, HotsetClientConfig(*rig, plan, c, plan.warmup_ops_per_client, kWarmupStreams),
            c, &warm_hot, warm));
      }
      break;
  }
  rig->simulator().Run();
  times->warmup_s = SecondsSince(start);
  return rig;
}

Sample RunRepetition(const Plan& plan, std::unique_ptr<trace::Recorder>* recorder) {
  Sample sample;
  Outcome warm;
  std::unique_ptr<Rig> rig = SetUp(plan, &sample.setup, &warm);
  sample.nfs = rig->options().protocol == Protocol::kNfs;
  sample.servers = rig->num_shards();
  sample.server_machines = rig->num_shards() + (rig->meta_cache() != nullptr ? 1 : 0);
  for (int c = 0; c < rig->num_clients(); ++c) {
    sample.client_hosts.push_back(rig->client(c).address().host);
  }
  if (recorder != nullptr) {
    *recorder = std::make_unique<trace::Recorder>(rig->simulator());
    trace::SetActive(recorder->get());
  }

  Counters before = Snapshot(*rig);
  sim::Time phase_start = rig->simulator().Now();
  HotsetState hot;
  HostClock::time_point start = HostClock::now();
  SpawnTimedPhase(*rig, plan, &hot, &sample.outcome);
  rig->simulator().Run();
  sample.wall_s = SecondsSince(start);
  sample.phase_span = rig->simulator().Now() - phase_start;
  if (recorder != nullptr) {
    trace::SetActive(nullptr);
  }
  sample.counters = Diff(Snapshot(*rig), before);

  sample.outcome.attempted += warm.attempted;
  sample.outcome.failed += warm.failed;
  if (plan.kind == WorkloadKind::kFleetHotset) {
    sample.outcome.virtual_elapsed = hot.makespan;
    if (hot.done != plan.clients) {
      sample.outcome.failed += 1;
    }
  }
  for (int s = 0; s < rig->num_shards(); ++s) {
    if (snfs::SnfsServer* server = rig->shard(s).snfs_server()) {
      sample.snfs_state_entries += server->state_table().size();
    }
    sample.fs_inodes += rig->shard_fs(s).inode_count();
  }
  return sample;
}

// --- trace analysis -------------------------------------------------------------

struct SpanTotals {
  sim::Duration total = 0;  // summed durations
  sim::Duration self = 0;   // minus the part child spans cover
};

struct TraceStats {
  std::unordered_map<std::string, SpanTotals> by_name;
  metrics::Histogram client_call_ms;  // rpc.call spans begun on client machines
  uint64_t nfs_invalidations = 0;
  uint64_t events = 0;
  uint64_t violations = 0;
};

sim::Duration Totals(const TraceStats& stats, std::string_view name, bool self) {
  auto it = stats.by_name.find(std::string(name));
  if (it == stats.by_name.end()) {
    return 0;
  }
  return self ? it->second.self : it->second.total;
}

// A span's self time is its duration minus the union of its children's
// intervals, clipped to its own (a child such as a read-ahead fetch may
// outlive its parent).
TraceStats AnalyzeTrace(const trace::Recorder& recorder, const std::vector<int>& client_hosts) {
  struct Row {
    const std::string* name = nullptr;
    sim::Time begin = 0;
    sim::Time end = -1;
    uint64_t parent = 0;
    int machine = -1;
  };
  TraceStats stats;
  const std::vector<trace::Event>& events = recorder.events();
  stats.events = events.size();
  std::vector<Row> rows(recorder.spans_begun() + 1);
  for (const trace::Event& e : events) {
    switch (e.kind) {
      case trace::EventKind::kSpanBegin:
        rows[e.span] = Row{&e.name, e.at, -1, e.parent, e.machine};
        break;
      case trace::EventKind::kSpanEnd:
        rows[e.span].end = e.at;
        break;
      case trace::EventKind::kInstant:
        if (e.name == "nfs.invalidated") {
          ++stats.nfs_invalidations;
        }
        break;
      case trace::EventKind::kCounter:
        break;
    }
  }

  struct Child {
    uint64_t parent;
    sim::Time begin;
    sim::Time end;
  };
  std::vector<Child> children;
  for (uint64_t id = 1; id < rows.size(); ++id) {
    const Row& r = rows[id];
    if (r.name != nullptr && r.end >= 0 && r.parent != 0) {
      children.push_back(Child{r.parent, r.begin, r.end});
    }
  }
  std::sort(children.begin(), children.end(), [](const Child& a, const Child& b) {
    return a.parent != b.parent ? a.parent < b.parent : a.begin < b.begin;
  });

  size_t next_child = 0;
  for (uint64_t id = 1; id < rows.size(); ++id) {
    const Row& r = rows[id];
    while (next_child < children.size() && children[next_child].parent < id) {
      ++next_child;
    }
    if (r.name == nullptr || r.end < 0) {
      continue;  // never begun in this recorder, or still open at the end
    }
    sim::Duration covered = 0;
    sim::Time cursor = r.begin;
    for (size_t i = next_child; i < children.size() && children[i].parent == id; ++i) {
      sim::Time b = std::max(children[i].begin, cursor);
      sim::Time e = std::min(children[i].end, r.end);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    SpanTotals& totals = stats.by_name[*r.name];
    totals.total += r.end - r.begin;
    totals.self += (r.end - r.begin) - covered;
    if (*r.name == "rpc.call" &&
        std::find(client_hosts.begin(), client_hosts.end(), r.machine) != client_hosts.end()) {
      stats.client_call_ms.Add(static_cast<double>(r.end - r.begin) / 1000.0);
    }
  }
  stats.violations = trace::CheckTrace(recorder).size();
  return stats;
}

// --- metrics ---------------------------------------------------------------------

enum class MetricClock { kHost, kVirtual };

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  MetricClock clock = MetricClock::kVirtual;
  bool integral = false;
};

class MetricList {
 public:
  void Host(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit), MetricClock::kHost, false});
  }
  void Virtual(std::string name, double value, std::string unit) {
    metrics_.push_back(
        Metric{std::move(name), value, std::move(unit), MetricClock::kVirtual, false});
  }
  void Count(std::string name, uint64_t value) {
    metrics_.push_back(Metric{std::move(name), static_cast<double>(value), "count",
                              MetricClock::kVirtual, true});
  }
  void Bytes(std::string name, uint64_t value) {
    metrics_.push_back(Metric{std::move(name), static_cast<double>(value), "bytes",
                              MetricClock::kVirtual, true});
  }
  void Seconds(std::string name, sim::Duration value) {
    Virtual(std::move(name), sim::ToSeconds(value), "s");
  }

  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string FormatValue(const Metric& m) {
  char buf[64];
  if (m.integral) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64, static_cast<uint64_t>(m.value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
  }
  return buf;
}

// FNV-1a 64 over "name=value" of every virtual metric of the untraced
// measurement (the trace-derived ones excluded): a host-speed change must
// leave it unchanged.
uint64_t Fingerprint(const MetricList& list) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Metric& m : list.all()) {
    if (m.clock != MetricClock::kVirtual) {
      continue;
    }
    std::string line = m.name + "=" + FormatValue(m) + "\n";
    for (char ch : line) {
      h ^= static_cast<unsigned char>(ch);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// The seven end-to-end metrics, same names on every workload.
void EndToEnd(const Sample& s, double wall_s, double setup_s, double peak_rss_mb,
              MetricList* out) {
  out->Host("wall_s", wall_s, "s");
  out->Host("setup_s", setup_s, "s");
  out->Host("peak_rss_mb", peak_rss_mb, "MB");
  out->Seconds("virtual_s", s.outcome.virtual_elapsed);
  out->Count("rpc_total", static_cast<uint64_t>(Get(s.counters, "rpc.total")));
  out->Seconds("server_cpu_s", Get(s.counters, "cpu.server_us"));
  out->Count("server_disk_writes", static_cast<uint64_t>(Get(s.counters, "disk.writes")));
}

// Per-layer counters of the untraced measurement (virtual clock, exact).
void LayerCounters(const Sample& s, MetricList* out) {
  const Counters& c = s.counters;
  auto count = [&](const std::string& name) {
    out->Count(name, static_cast<uint64_t>(Get(c, name)));
  };
  auto ratio = [&](const std::string& name, double num, double den) {
    out->Virtual(name, Ratio(num, den), "ratio");
  };
  double span = static_cast<double>(s.phase_span);

  count("sim.events");
  out->Seconds("sim.cpu.server_busy_s", Get(c, "cpu.server_us"));
  out->Seconds("sim.cpu.client_busy_s", Get(c, "cpu.client_us"));
  ratio("sim.cpu.server_util", static_cast<double>(Get(c, "cpu.server_us")),
        span * s.server_machines);
  count("net.packets");
  out->Bytes("net.bytes", static_cast<uint64_t>(Get(c, "net.bytes")));
  count("net.dropped");
  for (int k = 1; k < proto::kNumOpKinds; ++k) {
    count("rpc.calls." + std::string(proto::OpKindName(static_cast<proto::OpKind>(k))));
  }
  count("rpc.retransmissions");
  count("rpc.dup_suppressed");
  count("cache.hits");
  count("cache.misses");
  ratio("cache.hit_ratio", static_cast<double>(Get(c, "cache.hits")),
        static_cast<double>(Get(c, "cache.hits") + Get(c, "cache.misses")));
  count("cache.delayed_writes");
  count("cache.writebacks");
  count("cache.cancelled_writes");
  count("cache.evictions");
  count("disk.reads");
  count("disk.writes");
  out->Seconds("disk.busy_s", Get(c, "disk.busy_us"));
  ratio("disk.util", static_cast<double>(Get(c, "disk.busy_us")), span * s.servers);
  // NfsClient sends getattr only to probe attributes (and once per mount
  // for its root), so on NFS rigs its getattr calls are its probes.
  out->Count("nfs.attr_probes",
             s.nfs ? static_cast<uint64_t>(Get(c, "rpc.calls.getattr")) : 0);
  count("snfs.callbacks_issued");
  out->Count("snfs.state_entries", s.snfs_state_entries);
  count("fleet.meta.hits");
  count("fleet.meta.misses");
  ratio("fleet.meta.hit_ratio", static_cast<double>(Get(c, "fleet.meta.hits")),
        static_cast<double>(Get(c, "fleet.meta.hits") + Get(c, "fleet.meta.misses")));
  count("fleet.meta.coalesced");
  count("fleet.meta.forwarded");
  count("fleet.meta.stale_fills_rejected");
  count("fleet.shard_meta_rpcs");
  int64_t max_server = 0;
  int64_t sum_server = 0;
  for (int i = 0; i < s.servers; ++i) {
    int64_t n = Get(c, "server.rpcs." + std::to_string(i));
    max_server = std::max(max_server, n);
    sum_server += n;
  }
  ratio("fleet.shard_rpc_imbalance", static_cast<double>(max_server) * s.servers,
        static_cast<double>(sum_server));
  out->Count("fs.inodes", s.fs_inodes);
  for (int p = 0; p < workload::kNumAndrewPhases; ++p) {
    std::string phase(workload::AndrewPhaseName(static_cast<workload::AndrewPhase>(p)));
    std::transform(phase.begin(), phase.end(), phase.begin(),
                   [](unsigned char ch) { return static_cast<char>(std::tolower(ch)); });
    out->Seconds("workload.andrew." + phase + "_s",
                 s.outcome.andrew_phases[static_cast<size_t>(p)]);
  }
  out->Bytes("workload.sort.temp_bytes", s.outcome.sort_temp_bytes);
}

// --- output ----------------------------------------------------------------------

void PrintTable(const std::vector<Metric>& metrics) {
  std::printf("%-34s %24s  %-6s %s\n", "metric", "value", "unit", "clock");
  for (const Metric& m : metrics) {
    std::printf("%-34s %24s  %-6s %s\n", m.name.c_str(), FormatValue(m).c_str(), m.unit.c_str(),
                m.clock == MetricClock::kHost ? "host" : "virtual");
  }
}

void PrintResultJson(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += "\"" + metrics[i].name + "\": {\"value\": " + FormatValue(metrics[i]) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// Host times of the untraced repetitions, each scaled by HostScale of the
// reference time measured around it.
struct HostSamples {
  std::vector<double> wall;
  std::vector<double> setup;
  std::vector<double> rig_build;
  std::vector<double> populate;
  std::vector<double> warmup;
  std::vector<double> raw_wall;
  std::vector<double> raw_setup;
  std::vector<double> reference;

  void Add(const Sample& sample, double reference_s) {
    double scale = HostScale(reference_s);
    wall.push_back(sample.wall_s * scale);
    setup.push_back(sample.setup.total() * scale);
    rig_build.push_back(sample.setup.rig_build_s * scale);
    populate.push_back(sample.setup.populate_s * scale);
    warmup.push_back(sample.setup.warmup_s * scale);
    raw_wall.push_back(sample.wall_s);
    raw_setup.push_back(sample.setup.total());
    reference.push_back(reference_s);
  }
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  Plan plan = MakePlan(flags);
  std::printf("snfsbench workload=%s seed=%" PRIu64 " size=%s seconds=%g trace=%d\n",
              flags.workload_name.c_str(), flags.seed, flags.smoke ? "smoke" : "full",
              flags.seconds, flags.trace ? 1 : 0);

  // Untraced repetitions: host metrics are medians over them; every one's
  // virtual fingerprint must equal the first's.
  HostSamples host;
  Sample first;
  uint64_t fingerprint = 0;
  double peak_rss_mb = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool deterministic = true;
  HostClock::time_point run_start = HostClock::now();
  double reference_before = ReferenceSeconds();
  for (int rep = 0; rep < kMaxReps; ++rep) {
    Sample sample = RunRepetition(plan, nullptr);
    double reference_after = ReferenceSeconds();
    host.Add(sample, (reference_before + reference_after) / 2);
    reference_before = reference_after;
    attempted += sample.outcome.attempted;
    failed += sample.outcome.failed;
    MetricList virtual_only;
    EndToEnd(sample, 0, 0, 0, &virtual_only);
    LayerCounters(sample, &virtual_only);
    uint64_t fp = Fingerprint(virtual_only);
    if (rep == 0) {
      // The high-water mark of one repetition: later ones rebuild the same
      // rig, so the first sets the process peak without depending on how
      // many repetitions fit in --seconds.
      peak_rss_mb = PeakRssMb();
      fingerprint = fp;
      first = std::move(sample);
    } else if (fp != fingerprint) {
      deterministic = false;
    }
    if (rep + 1 >= kMinReps && SecondsSince(run_start) >= flags.seconds) {
      break;
    }
  }
  double wall_s = Median(host.wall);

  MetricList e2e;
  EndToEnd(first, wall_s, Median(host.setup), peak_rss_mb, &e2e);

  MetricList layers;
  LayerCounters(first, &layers);
  layers.Host("sim.wall_ns_per_event",
              Ratio(wall_s * 1e9, static_cast<double>(Get(first.counters, "sim.events"))), "ns");
  layers.Host("testbed.rig_build_s", Median(host.rig_build), "s");
  layers.Host("testbed.populate_s", Median(host.populate), "s");
  layers.Host("testbed.warmup_s", Median(host.warmup), "s");
  layers.Host("host.wall_raw_s", Median(host.raw_wall), "s");
  layers.Host("host.setup_raw_s", Median(host.raw_setup), "s");
  layers.Host("host.reference_s", Median(host.reference), "s");

  uint64_t violations = 0;
  bool traced_matches = true;
  if (flags.trace) {
    std::unique_ptr<trace::Recorder> recorder;
    Sample traced = RunRepetition(plan, &recorder);
    double traced_wall_s =
        traced.wall_s * HostScale((reference_before + ReferenceSeconds()) / 2);
    attempted += traced.outcome.attempted;
    failed += traced.outcome.failed;
    MetricList traced_virtual;
    EndToEnd(traced, 0, 0, 0, &traced_virtual);
    LayerCounters(traced, &traced_virtual);
    traced_matches = Fingerprint(traced_virtual) == fingerprint;
    double trace_peak_rss_mb = PeakRssMb();

    TraceStats stats = AnalyzeTrace(*recorder, traced.client_hosts);
    recorder.reset();
    violations = stats.violations;

    layers.Virtual("rpc.call_p50_ms", stats.client_call_ms.Percentile(50), "ms");
    layers.Virtual("rpc.call_p99_ms", stats.client_call_ms.Percentile(99), "ms");
    layers.Seconds("rpc.call.self_s", Totals(stats, "rpc.call", true));
    layers.Seconds("rpc.handle.self_s", Totals(stats, "rpc.handle", true));
    layers.Seconds("rpc.wire_s", Totals(stats, "rpc.attempt", true));
    layers.Seconds("cache.fetch_s", Totals(stats, "cache.fetch", false));
    layers.Seconds("cache.fetch.self_s", Totals(stats, "cache.fetch", true));
    layers.Seconds("cache.writeback_s", Totals(stats, "cache.writeback", false));
    layers.Seconds("cache.writeback.self_s", Totals(stats, "cache.writeback", true));
    layers.Seconds("disk.wait_s", Totals(stats, "disk.read", false) +
                                      Totals(stats, "disk.write", false) -
                                      Get(traced.counters, "disk.busy_us"));
    layers.Count("nfs.cache_invalidations", stats.nfs_invalidations);
    layers.Seconds("snfs.callback.self_s", Totals(stats, "snfs.callback", true) +
                                               Totals(stats, "snfs.callback_serve", true));
    layers.Seconds("workload.self_s", Totals(stats, "bench.andrew_trial", true) +
                                          Totals(stats, "bench.sort", true) +
                                          Totals(stats, "bench.hotset_client", true) +
                                          Totals(stats, "bench.hotset_write", true));
    layers.Count("trace.events", stats.events);
    layers.Host("trace.wall_s", traced_wall_s, "s");
    layers.Host("trace.overhead_pct", 100.0 * (Ratio(traced_wall_s, wall_s) - 1.0), "%");
    layers.Host("trace.peak_rss_mb", trace_peak_rss_mb, "MB");
    layers.Count("trace.violations", violations);
  }

  std::printf("repetitions=%zu (untraced); host times are medians over them, scaled to the"
              " reference speed (%.3f s per reference computation)\n",
              host.wall.size(), kReferenceNominalS);
  std::vector<Metric> all = e2e.all();
  all.insert(all.end(), layers.all().begin(), layers.all().end());
  PrintTable(all);
  std::printf("fingerprint %s %016" PRIx64 "\n", flags.workload_name.c_str(), fingerprint);

  // Gate: failed units, nondeterminism between repetitions, a traced run
  // that diverges from the untraced one, or a trace-checker violation.
  uint64_t gate_failures = failed + (deterministic ? 0 : 1) + (traced_matches ? 0 : 1) + violations;
  bool correct = gate_failures == 0;
  std::printf("gate: %s (attempted=%" PRIu64 " failed=%" PRIu64
              " deterministic=%s traced_matches=%s violations=%" PRIu64 ")\n",
              correct ? "ok" : "FAIL", attempted, failed, deterministic ? "yes" : "no",
              flags.trace ? (traced_matches ? "yes" : "no") : "n/a", violations);
  // A gate failure with no failed unit (nondeterminism, a trace violation)
  // still reports one failed operation.
  PrintResultJson(correct, attempted, correct ? 0 : std::max<uint64_t>(failed, 1),
                  flags.trace ? layers.all() : e2e.all());
  return correct ? 0 : 1;
}
