// Interprets a fault::FaultSchedule against real testbed machines: crash
// and reboot any shard server, crash and restart clients, take the
// metadata cache's host off the network and back, and — via rpc::Peer's
// worker hook — crash a server from inside an RPC handler dispatch, the
// adversarial timing that exercises the ghost-reply and duplicate-cache
// paths in the recovery machinery.
#ifndef SRC_TESTBED_FAULT_RUNNER_H_
#define SRC_TESTBED_FAULT_RUNNER_H_

#include <vector>

#include "src/fault/schedule.h"
#include "src/fleet/meta_cache.h"
#include "src/testbed/machine.h"

namespace testbed {

// Schedules every event in `schedule` on `simulator` at its absolute time.
// Server events index into `servers` by shard, client events into
// `clients`; cache events need `cache` != null. An event whose target the
// topology lacks CHECK-fails. kCrashServerInHandler installs a worker hook
// on that shard's peer (replacing any previous hook): the first handler
// dispatch at or after the event time triggers a crash that lands
// mid-dispatch, while the handler coroutine is in flight.
void ApplyFaultSchedule(sim::Simulator& simulator, net::Network& network,
                        const std::vector<ServerMachine*>& servers, fleet::MetaCache* cache,
                        const std::vector<ClientMachine*>& clients,
                        const fault::FaultSchedule& schedule);

}  // namespace testbed

#endif  // SRC_TESTBED_FAULT_RUNNER_H_
