#include "src/fault/sweep.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/log.h"
#include "src/cache/buffer_cache.h"
#include "src/sim/simulator.h"
#include "src/snfs/server.h"
#include "src/snfs/state_table.h"
#include "src/trace/checker.h"
#include "src/trace/trace.h"
#include "src/vfs/vfs.h"

namespace fault {
namespace {

// Per-file ground truth. Files are single-writer (client i writes only its
// own files), so two counters pin down every legal read: any readable block
// must be a uniform fill with committed <= version <= written_max.
struct FileOracle {
  uint64_t written_max = 0;  // newest version any write attempted
  uint64_t committed = 0;    // newest version a successful Fsync covered
};

struct SeedRun {
  const SweepOptions* options = nullptr;
  testbed::Rig* rig = nullptr;
  SeedStats stats;
  sim::Time last_reboot = -1;  // schedule's last kRebootServer, for latency
  std::vector<std::vector<FileOracle>> oracles;  // [client][file]
};

void Fail(SeedRun& run, std::string why) {
  if (run.stats.ok) {
    run.stats.ok = false;
    run.stats.failure = std::move(why);
    LOG_INFO("fault", "seed %llu invariant violated: %s",
             static_cast<unsigned long long>(run.stats.seed), run.stats.failure.c_str());
  }
}

int ShardOf(const SeedRun& run, int file) { return file % run.rig->num_shards(); }

std::string FilePath(const SeedRun& run, int client, int file) {
  return run.rig->shard_mount(ShardOf(run, file)) + "/c" + std::to_string(client) + "_f" +
         std::to_string(file);
}

// `committed_before` must be captured before the read was issued: the
// writer can commit a newer version while the read is in flight, but the
// data the read observes is at least as new as that older commit point.
void VerifyBlock(SeedRun& run, const std::vector<uint8_t>& data, uint64_t committed_before,
                 const FileOracle& oracle, const std::string& path) {
  if (data.empty()) {
    if (committed_before > 0) {
      Fail(run, "committed file " + path + " read back empty");
    }
    return;  // created but never written: legal
  }
  uint8_t fill = data[0];
  for (uint8_t b : data) {
    if (b != fill) {
      Fail(run, "torn block in " + path + " (mixed fill bytes)");
      return;
    }
  }
  // Writers cap versions at 255, so the fill byte IS the version.
  uint64_t version = fill;
  uint64_t lo = std::max<uint64_t>(1, committed_before);
  if (version < lo || version > oracle.written_max) {
    Fail(run, "version " + std::to_string(version) + " of " + path + " outside [" +
                  std::to_string(lo) + ", " + std::to_string(oracle.written_max) + "]");
  }
}

sim::Task<void> ClientWorkload(SeedRun& run, int index, uint64_t seed) {
  const SweepOptions& opt = *run.options;
  sim::Simulator& simulator = run.rig->simulator();
  testbed::ClientMachine& machine = run.rig->client(index);
  sim::Rng rng(seed * 1000 + static_cast<uint64_t>(index) + 1);
  // Oracles are sized once in RunFaultSeed and never resized, so references
  // into them stay valid across suspensions.
  std::vector<FileOracle>& files = run.oracles[index];  // lint: await-stale-ref-ok

  while (simulator.Now() < opt.horizon) {
    sim::Duration gap = opt.mean_op_gap;
    co_await sim::Sleep(simulator, rng.UniformInt(gap / 2, gap + gap / 2));
    if (!machine.started()) {
      continue;  // crashed: idle until the schedule restarts us
    }
    int f = static_cast<int>(rng.UniformInt(0, opt.files_per_client - 1));
    FileOracle& oracle = files[f];  // lint: await-stale-ref-ok (never resized)
    std::string path = FilePath(run, index, f);
    vfs::Vfs& vfs = machine.vfs();
    ++run.stats.ops_attempted;
    bool ok = false;
    // If the machine crashes while this op is in flight, the coroutine
    // still runs to completion against the reset client, but the process
    // that issued the op died with the kernel: whatever the op reports is
    // void. In particular an Fsync that "succeeds" against the freshly
    // dropped cache (nothing left dirty) must not count as a commit.
    int gen = machine.crash_generation();

    if (oracle.written_max < 255 && rng.Bernoulli(0.5)) {
      // Write the next version as a uniform one-block fill. No truncate on
      // open: a crash between create and write must not be confusable with
      // data loss.
      bool do_fsync = rng.Bernoulli(0.5);
      auto fd = co_await vfs.Open(path, vfs::OpenFlags{.write = true, .create = true});
      if (fd.ok()) {
        uint64_t version = oracle.written_max + 1;
        oracle.written_max = version;  // before any byte can land anywhere
        std::vector<uint8_t> block(cache::kBlockSize, static_cast<uint8_t>(version));
        auto wrote = co_await vfs.Pwrite(*fd, 0, block);
        bool committed = false;
        if (wrote.ok() && do_fsync) {
          auto synced = co_await vfs.Fsync(*fd);
          if (synced.ok() && machine.crash_generation() == gen) {
            oracle.committed = version;
            committed = true;
          }
        }
        auto closed = co_await vfs.Close(*fd);
        ok = wrote.ok() && closed.ok() && (!do_fsync || committed) &&
             machine.crash_generation() == gen;
      }
    } else {
      uint64_t committed_before = oracle.committed;
      auto fd = co_await vfs.Open(path, vfs::OpenFlags::ReadOnly());
      if (fd.ok()) {
        auto data = co_await vfs.Pread(*fd, 0, cache::kBlockSize);
        (void)co_await vfs.Close(*fd);
        if (data.ok() && machine.crash_generation() == gen) {
          ok = true;
          ++run.stats.reads_verified;
          VerifyBlock(run, *data, committed_before, oracle, path);
        }
      }
    }

    if (ok) {
      ++run.stats.ops_ok;
      if (run.last_reboot >= 0 && run.stats.recovery_latency < 0 &&
          simulator.Now() >= run.last_reboot) {
        run.stats.recovery_latency = simulator.Now() - run.last_reboot;
      }
    } else {
      ++run.stats.ops_failed;
    }
  }
}

void CheckDupBound(SeedRun& run, rpc::Peer& peer, size_t cap) {
  size_t size = peer.dup_cache_size();
  size_t in_progress = peer.dup_cache_in_progress();
  if (size > cap + in_progress) {
    Fail(run, peer.name() + " dup cache over bound: " + std::to_string(size) + " entries, cap " +
                  std::to_string(cap) + " + " + std::to_string(in_progress) + " in progress");
  }
}

// Every RPC endpoint in the rig, with the duplicate-cache capacity it was
// configured with.
std::vector<std::pair<rpc::Peer*, size_t>> Peers(testbed::Rig& rig, const SweepOptions& opt) {
  std::vector<std::pair<rpc::Peer*, size_t>> peers;
  for (int s = 0; s < rig.num_shards(); ++s) {
    peers.emplace_back(&rig.shard(s).peer(), opt.server.peer.dup_cache_entries);
  }
  if (rig.meta_cache() != nullptr) {
    peers.emplace_back(&rig.meta_cache()->peer(), opt.fleet.meta.peer.dup_cache_entries);
  }
  for (int i = 0; i < rig.num_clients(); ++i) {
    peers.emplace_back(&rig.client(i).peer(), opt.client.peer.dup_cache_entries);
  }
  return peers;
}

sim::Task<void> InvariantChecker(SeedRun& run) {
  const SweepOptions& opt = *run.options;
  testbed::Rig& rig = *run.rig;
  while (rig.simulator().Now() < opt.horizon) {
    co_await sim::Sleep(rig.simulator(), opt.check_interval);
    ++run.stats.invariant_checks;
    for (auto [peer, cap] : Peers(rig, opt)) {
      CheckDupBound(run, *peer, cap);
    }
    for (int s = 0; s < rig.num_shards(); ++s) {
      testbed::ServerMachine& server = rig.shard(s);
      if (server.peer().running() && server.snfs_server() != nullptr) {
        // CHECK-aborts on violation; runs after every callback round because
        // the tick interleaves with handler completions.
        server.snfs_server()->state_table().CheckInvariants();
      }
    }
  }
}

// Strict end-of-run oracle: with the world quiesced, every file that ever
// committed a version and whose shard is up must read back as a uniform
// fill in [committed, written_max].
sim::Task<void> FinalReadback(SeedRun& run, int index) {
  testbed::ClientMachine& machine = run.rig->client(index);
  if (!machine.started()) {
    co_return;  // the schedule left this client down; nothing to assert
  }
  const SweepOptions& opt = *run.options;
  for (int f = 0; f < opt.files_per_client; ++f) {
    FileOracle& oracle = run.oracles[index][f];  // lint: await-stale-ref-ok (never resized)
    if (oracle.committed == 0 || !run.rig->shard(ShardOf(run, f)).peer().running()) {
      continue;
    }
    uint64_t committed_before = oracle.committed;
    std::string path = FilePath(run, index, f);
    auto data = co_await machine.vfs().ReadFile(path);
    if (!data.ok()) {
      Fail(run, "final read-back of committed file " + path + " failed");
      continue;
    }
    ++run.stats.reads_verified;
    VerifyBlock(run, *data, committed_before, oracle, path);
  }
}

}  // namespace

SeedStats RunFaultSeed(const SweepOptions& options, uint64_t seed) {
  SeedRun run;
  run.options = &options;
  run.stats.seed = seed;
  run.oracles.assign(static_cast<size_t>(options.fleet.clients),
                     std::vector<FileOracle>(static_cast<size_t>(options.files_per_client)));
  for (const FaultEvent& ev : options.schedule.events) {
    if (ev.kind == FaultEventKind::kRebootServer) {
      run.last_reboot = std::max(run.last_reboot, ev.at);
    }
  }

  testbed::RigOptions rig_options = options;
  if (options.plan.enabled()) {
    auto plan = std::make_shared<FaultPlan>(options.plan);
    plan->seed = seed;  // each sweep seed replays its own fault sequence
    rig_options.network.faults = std::move(plan);
  }
  testbed::Rig rig(std::move(rig_options));
  run.rig = &rig;
  sim::Simulator& simulator = rig.simulator();

  // Install the recorder once the rig is built, so every replay of this
  // (options, seed) pair records the same events under the same span ids.
  std::unique_ptr<trace::Recorder> recorder;
  if (options.trace_check) {
    recorder = std::make_unique<trace::Recorder>(simulator);
    trace::SetActive(recorder.get());
  }

  rig.ApplyFaultSchedule(options.schedule);
  for (int i = 0; i < rig.num_clients(); ++i) {
    simulator.Spawn(ClientWorkload(run, i, seed));
  }
  simulator.Spawn(InvariantChecker(run));
  simulator.RunUntil(options.horizon);

  for (int i = 0; i < rig.num_clients(); ++i) {
    simulator.Spawn(FinalReadback(run, i));
  }
  simulator.RunUntil(options.horizon + options.drain);

  if (recorder != nullptr) {
    trace::SetActive(nullptr);
    run.stats.trace_events = recorder->events().size();
    std::vector<trace::Violation> violations = trace::CheckTrace(recorder->events());
    run.stats.trace_violations = violations.size();
    if (!violations.empty()) {
      Fail(run, "trace checker: [" + violations.front().rule + "] " + violations.front().message);
    }
  }

  for (auto [peer, cap] : Peers(rig, options)) {
    run.stats.retransmissions += peer->retransmissions();
    run.stats.duplicates_suppressed += peer->duplicates_suppressed();
    run.stats.stale_replies_dropped += peer->stale_replies_dropped();
  }
  run.stats.packets_dropped = rig.network().packets_dropped();
  run.stats.packets_duplicated = rig.network().packets_duplicated();
  return std::move(run.stats);
}

SweepResult RunFaultSweep(const SweepOptions& options, uint64_t first_seed, int num_seeds) {
  SweepResult result;
  for (int i = 0; i < num_seeds; ++i) {
    result.seeds.push_back(RunFaultSeed(options, first_seed + static_cast<uint64_t>(i)));
  }
  return result;
}

}  // namespace fault
