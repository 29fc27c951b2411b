// FaultSchedule: a declarative script of crash/restart points for the
// machines in a testbed, at exact simulated times. The schedule itself is
// pure data (so it can live below the testbed in the dependency graph);
// testbed::Rig::ApplyFaultSchedule interprets it against real machines — any
// shard of a fleet, any client, the metadata cache — including "crash
// mid-RPC-handler" via rpc::Peer's worker hook.
#ifndef SRC_FAULT_SCHEDULE_H_
#define SRC_FAULT_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace fault {

enum class FaultEventKind : uint8_t {
  kCrashServer,           // server host down, peer shutdown, state lost
  kRebootServer,          // server host up, epoch bump, recovery grace
  kCrashClient,           // client host down, daemons stopped
  kRestartClient,         // client host up, daemons restarted
  kCrashServerInHandler,  // crash the server from inside the next RPC
                          // handler dispatched at/after `at` (worker hook)
  kCacheDown,             // metadata-cache host off the network
  kCacheUp,               // metadata-cache host back on the network
};

struct FaultEvent {
  sim::Time at = 0;
  FaultEventKind kind = FaultEventKind::kCrashServer;
  int target = 0;  // shard index for server events, client index for client events
};

struct FaultSchedule {
  std::vector<FaultEvent> events;

  // Builder-style helpers so schedules read as scripts:
  //   FaultSchedule s;
  //   s.CrashServerAt(sim::Sec(3)).RebootServerAt(sim::Sec(5));
  FaultSchedule& CrashServerAt(sim::Time at, int shard = 0) {
    return Add(at, FaultEventKind::kCrashServer, shard);
  }
  FaultSchedule& RebootServerAt(sim::Time at, int shard = 0) {
    return Add(at, FaultEventKind::kRebootServer, shard);
  }
  FaultSchedule& CrashClientAt(sim::Time at, int client = 0) {
    return Add(at, FaultEventKind::kCrashClient, client);
  }
  FaultSchedule& RestartClientAt(sim::Time at, int client = 0) {
    return Add(at, FaultEventKind::kRestartClient, client);
  }
  FaultSchedule& CrashServerInHandlerAt(sim::Time at, int shard = 0) {
    return Add(at, FaultEventKind::kCrashServerInHandler, shard);
  }
  FaultSchedule& CacheDownAt(sim::Time at) { return Add(at, FaultEventKind::kCacheDown, 0); }
  FaultSchedule& CacheUpAt(sim::Time at) { return Add(at, FaultEventKind::kCacheUp, 0); }

  bool empty() const { return events.empty(); }

 private:
  FaultSchedule& Add(sim::Time at, FaultEventKind kind, int target) {
    events.push_back({at, kind, target});
    return *this;
  }
};

}  // namespace fault

#endif  // SRC_FAULT_SCHEDULE_H_
