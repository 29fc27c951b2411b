#include "src/testbed/fault_runner.h"

#include <algorithm>
#include <deque>
#include <memory>

#include "src/base/log.h"

namespace testbed {

namespace {

// The machine an event names; naming one the topology lacks is a bug in
// the script, not a fault to skip.
template <typename Machine>
Machine* Target(const std::vector<Machine*>& machines, int index) {
  CHECK(index >= 0 && index < static_cast<int>(machines.size()));
  return machines[static_cast<size_t>(index)];
}

}  // namespace

void ApplyFaultSchedule(sim::Simulator& simulator, net::Network& network,
                        const std::vector<ServerMachine*>& servers, fleet::MetaCache* cache,
                        const std::vector<ClientMachine*>& clients,
                        const fault::FaultSchedule& schedule) {
  // Per shard: times at which the next handler dispatch should take it down.
  std::vector<std::vector<sim::Time>> handler_crashes(servers.size());

  for (const fault::FaultEvent& ev : schedule.events) {
    std::function<void()> fire;
    switch (ev.kind) {
      case fault::FaultEventKind::kCrashServer: {
        ServerMachine* server = Target(servers, ev.target);
        fire = [server, &network] {
          LOG_INFO("fault", "scheduled crash of %s", server->peer().name().c_str());
          server->Crash(network);
        };
        break;
      }
      case fault::FaultEventKind::kRebootServer: {
        ServerMachine* server = Target(servers, ev.target);
        fire = [server, &network] {
          LOG_INFO("fault", "scheduled reboot of %s", server->peer().name().c_str());
          server->Reboot(network);
        };
        break;
      }
      case fault::FaultEventKind::kCrashClient: {
        ClientMachine* client = Target(clients, ev.target);
        fire = [client, &network] {
          LOG_INFO("fault", "scheduled crash of %s", client->name().c_str());
          client->Crash(network);
        };
        break;
      }
      case fault::FaultEventKind::kRestartClient: {
        ClientMachine* client = Target(clients, ev.target);
        fire = [client, &network] {
          LOG_INFO("fault", "scheduled restart of %s", client->name().c_str());
          client->Restart(network);
        };
        break;
      }
      case fault::FaultEventKind::kCrashServerInHandler:
        Target(servers, ev.target);
        handler_crashes[static_cast<size_t>(ev.target)].push_back(ev.at);
        continue;
      case fault::FaultEventKind::kCacheDown:
      case fault::FaultEventKind::kCacheUp: {
        CHECK(cache != nullptr);
        bool up = ev.kind == fault::FaultEventKind::kCacheUp;
        fire = [cache, up, &network] {
          LOG_INFO("fault", "scheduled %s going %s", cache->name().c_str(), up ? "up" : "down");
          network.SetHostUp(cache->address(), up);
        };
        break;
      }
    }
    simulator.ScheduleAt(ev.at, std::move(fire), /*background=*/true);
  }

  for (size_t s = 0; s < servers.size(); ++s) {
    if (handler_crashes[s].empty()) {
      continue;
    }
    std::sort(handler_crashes[s].begin(), handler_crashes[s].end());
    // Shared with the worker hook, which outlives this call.
    auto pending = std::make_shared<std::deque<sim::Time>>(handler_crashes[s].begin(),
                                                          handler_crashes[s].end());
    ServerMachine* srv = servers[s];
    net::Network* net = &network;
    srv->peer().set_worker_hook(
        [pending, srv, net, &simulator](const rpc::WorkerEvent& event) {
          if (event.phase != rpc::WorkerEvent::Phase::kBeforeHandler) {
            return;
          }
          if (pending->empty() || simulator.Now() < pending->front()) {
            return;
          }
          pending->pop_front();
          // Crash via a zero-delay event rather than synchronously: the
          // dispatching worker proceeds into its CPU charge / handler first,
          // so the crash lands while the handler coroutine is in flight.
          simulator.Schedule(0, [srv, net] {
            LOG_INFO("fault", "crashing %s mid-handler", srv->peer().name().c_str());
            srv->Crash(*net);
          }, /*background=*/true);
        });
  }
}

}  // namespace testbed
