// Seed-sweep driver: run a small multi-client workload under a FaultPlan
// and FaultSchedule for N different seeds, asserting protocol invariants
// throughout:
//
//  * data integrity — every readable block is a uniform fill whose version
//    lies between the last fsync-committed version and the newest written
//    version of that file (single-writer files make the oracle exact);
//  * duplicate-cache bound — no peer's cache (every shard, every client,
//    the metadata cache) exceeds its configured capacity by more than the
//    number of in-progress entries;
//  * state-table invariants — snfs::StateTable::CheckInvariants() on every
//    running shard, on a periodic tick (SNFS only; it CHECK-aborts on
//    violation);
//  * no ghost replies — replies computed by a crashed server generation
//    are dropped, never sent (counted via Peer::stale_replies_dropped).
//
// The workload runs on a testbed::Rig built from the options' topology: the
// default is one server and two clients, and `fleet` adds shards and the
// metadata cache. Client i's file f lives on shard f % shards. Each seed
// gets its own rig, fault-injector RNG stream and workload RNG streams, so a
// failing seed replays exactly.
#ifndef SRC_FAULT_SWEEP_H_
#define SRC_FAULT_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/plan.h"
#include "src/fault/schedule.h"
#include "src/sim/time.h"
#include "src/testbed/rig.h"

namespace fault {

// The inherited RigOptions give the protocol, the topology (`fleet`; two
// clients by default) and the machine and network parameters. `plan`
// replaces `network.faults`, re-seeded per run.
struct SweepOptions : testbed::RigOptions {
  int files_per_client = 3;
  sim::Duration horizon = sim::Sec(90);      // workload runs until this time
  sim::Duration drain = sim::Sec(120);       // extra time for final read-back
  sim::Duration mean_op_gap = sim::Msec(200);
  sim::Duration check_interval = sim::Sec(1);

  // Link faults; `plan.seed` is overridden with the sweep seed per run.
  FaultPlan plan;
  // Scripted crash/restart points, identical across seeds.
  FaultSchedule schedule;

  // Record a causal trace of the whole run and validate it with
  // trace::CheckTrace; violations fail the seed like any other invariant.
  bool trace_check = false;

  SweepOptions() {
    protocol = testbed::Protocol::kSnfs;
    fleet.clients = 2;
    // Recovery on by default: the sweep exists to exercise the crash paths.
    server.snfs.enable_recovery = true;
    server.snfs.recovery_grace = sim::Sec(8);
    snfs.enable_recovery = true;
    snfs.keepalive_interval = sim::Sec(5);
    client.with_local_disk = false;
  }
};

struct SeedStats {
  uint64_t seed = 0;
  bool ok = true;
  std::string failure;  // first violated invariant, when !ok

  uint64_t ops_attempted = 0;
  uint64_t ops_ok = 0;
  uint64_t ops_failed = 0;
  uint64_t reads_verified = 0;
  uint64_t invariant_checks = 0;

  uint64_t trace_events = 0;      // events recorded (0 unless trace_check)
  uint64_t trace_violations = 0;  // checker findings (first one fails the seed)

  // Summed over all peers: every shard, every client, the metadata cache.
  uint64_t retransmissions = 0;
  uint64_t duplicates_suppressed = 0;
  uint64_t stale_replies_dropped = 0;
  uint64_t packets_dropped = 0;        // network (loss + partitions + down hosts)
  uint64_t packets_duplicated = 0;     // network (fault injector)

  // First successful operation completion after the schedule's last server
  // reboot (of any shard), relative to that reboot; -1 if the schedule has no reboot or no
  // operation succeeded afterwards.
  sim::Duration recovery_latency = -1;
};

struct SweepResult {
  std::vector<SeedStats> seeds;

  bool all_ok() const {
    for (const SeedStats& s : seeds) {
      if (!s.ok) {
        return false;
      }
    }
    return true;
  }
  const SeedStats* first_failure() const {
    for (const SeedStats& s : seeds) {
      if (!s.ok) {
        return &s;
      }
    }
    return nullptr;
  }
};

// Run the workload once under `seed`; deterministic for a fixed
// (options, seed) pair.
SeedStats RunFaultSeed(const SweepOptions& options, uint64_t seed);

// Run seeds first_seed .. first_seed + num_seeds - 1.
SweepResult RunFaultSweep(const SweepOptions& options, uint64_t first_seed, int num_seeds);

}  // namespace fault

#endif  // SRC_FAULT_SWEEP_H_
