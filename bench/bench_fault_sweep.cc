// Fault matrix: the seed-sweep driver run across a grid of fault mixes and
// all three remote protocols, reporting aggregate recovery behaviour. Every
// (mix, protocol) cell runs the same two-client read/write workload under
// N seeds, asserting the protocol invariants (data-integrity oracle,
// duplicate-cache bound, state-table invariants, no ghost replies) and
// measuring:
//
//   recovery  mean time from the schedule's last server reboot to the
//             first operation that completes afterwards;
//   retrans   RPC retransmissions per seed (client + server roles);
//   dup supp  duplicate requests absorbed by the server's cache;
//   stale     ghost replies computed by a dead server generation, dropped.
//
// A non-OK cell means a seed violated an invariant; its seed number and
// the first violation are printed for replay.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/fault/sweep.h"
#include "src/metrics/table.h"

namespace {

using fault::SeedStats;
using fault::SweepOptions;
using fault::SweepResult;
using metrics::Table;
using testbed::Protocol;

// --seeds=N overrides; --trace-check records a causal trace per seed and
// runs trace::CheckTrace over it (violations fail the seed like any other
// invariant).
int g_seeds = 20;
bool g_trace_check = false;

struct Mix {
  const char* name;
  SweepOptions options;  // protocol filled in per run
};

std::vector<Mix> FaultMixes() {
  std::vector<Mix> mixes;

  {
    Mix m{"loss 10%", {}};
    m.options.plan.loss = 0.10;
    mixes.push_back(m);
  }
  {
    Mix m{"dup+reorder", {}};
    m.options.plan.duplicate = 0.10;
    m.options.plan.reorder_jitter = sim::Msec(5);
    mixes.push_back(m);
  }
  {
    Mix m{"partition", {}};
    // Cut client 1 (host 2: server=0, clients=1,2) off from the server for
    // ten seconds mid-run.
    m.options.plan.partitions.push_back(
        fault::Partition{.host_a = 0, .host_b = 2, .start = sim::Sec(30), .heal = sim::Sec(40)});
    mixes.push_back(m);
  }
  {
    Mix m{"server crash", {}};
    m.options.schedule.CrashServerAt(sim::Sec(20))
        .RebootServerAt(sim::Sec(26))
        .CrashServerInHandlerAt(sim::Sec(50))
        .RebootServerAt(sim::Sec(55));
    mixes.push_back(m);
  }
  {
    Mix m{"chaos", {}};
    m.options.plan.loss = 0.05;
    m.options.plan.duplicate = 0.05;
    m.options.plan.reorder_jitter = sim::Msec(2);
    m.options.schedule.CrashServerAt(sim::Sec(20))
        .RebootServerAt(sim::Sec(28))
        .CrashClientAt(sim::Sec(45), 1)
        .RestartClientAt(sim::Sec(55), 1)
        .CrashServerInHandlerAt(sim::Sec(65))
        .RebootServerAt(sim::Sec(70));
    mixes.push_back(m);
  }
  return mixes;
}

struct CellResult {
  bool ok = true;
  std::string detail;   // failing seed + invariant, when !ok
  double recovery_s = -1;
  double retrans = 0;
  double dup_suppressed = 0;
  double stale = 0;
  double ops_ok = 0;
};

CellResult RunCell(const Mix& mix, Protocol protocol) {
  SweepOptions options = mix.options;
  options.protocol = protocol;
  options.trace_check = g_trace_check;
  SweepResult result = fault::RunFaultSweep(options, /*first_seed=*/1, g_seeds);

  CellResult cell;
  double recovery_sum = 0;
  int recovery_n = 0;
  for (const SeedStats& s : result.seeds) {
    cell.retrans += static_cast<double>(s.retransmissions) / g_seeds;
    cell.dup_suppressed += static_cast<double>(s.duplicates_suppressed) / g_seeds;
    cell.stale += static_cast<double>(s.stale_replies_dropped) / g_seeds;
    cell.ops_ok += static_cast<double>(s.ops_ok) / g_seeds;
    if (s.recovery_latency >= 0) {
      recovery_sum += static_cast<double>(s.recovery_latency) / 1e6;
      ++recovery_n;
    }
  }
  if (recovery_n > 0) {
    cell.recovery_s = recovery_sum / recovery_n;
  }
  if (const SeedStats* failure = result.first_failure(); failure != nullptr) {
    cell.ok = false;
    cell.detail = "seed " + std::to_string(failure->seed) + ": " + failure->failure;
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--trace-check") {
      g_trace_check = true;
    } else if (arg.rfind("--seeds=", 0) == 0 && std::atoi(arg.c_str() + 8) > 0) {
      g_seeds = std::atoi(arg.c_str() + 8);
    } else {
      std::fprintf(stderr, "usage: %s [--trace-check] [--seeds=<n>]\n", argv[0]);
      return 2;
    }
  }

  std::printf("Fault matrix: %d seeds per cell, two clients, 90 s workload\n", g_seeds);
  std::printf("(recovery = mean time from last server reboot to first completed op)\n");
  if (g_trace_check) {
    std::printf("(trace checker enabled: every seed's causal trace is validated)\n");
  }
  std::printf("\n");

  Table table({"fault mix", "protocol", "ok", "ops/seed", "recovery",
               "retrans/seed", "dup supp/seed", "stale dropped"});
  bool all_ok = true;
  for (const Mix& mix : FaultMixes()) {
    for (Protocol protocol :
         {Protocol::kNfs, Protocol::kSnfs, Protocol::kNqnfs}) {
      CellResult cell = RunCell(mix, protocol);
      all_ok = all_ok && cell.ok;
      table.AddRow({mix.name, std::string(testbed::ProtocolName(protocol)),
                    cell.ok ? "yes" : "NO: " + cell.detail, Table::Num(cell.ops_ok, 0),
                    cell.recovery_s >= 0 ? Table::Seconds(cell.recovery_s) : "-",
                    Table::Num(cell.retrans, 1), Table::Num(cell.dup_suppressed, 1),
                    Table::Num(cell.stale, 2)});
    }
  }
  table.Print();
  if (!all_ok) {
    std::printf("\nINVARIANT VIOLATIONS — rerun the printed seed to replay.\n");
    return 1;
  }
  return 0;
}
