#include "src/testbed/rig.h"

#include <algorithm>
#include <deque>

#include "src/base/log.h"

namespace testbed {

namespace {

// The machine a fault event names; naming one the topology lacks is a bug
// in the script, not a fault to skip.
template <typename Machine>
Machine* Target(const std::vector<std::unique_ptr<Machine>>& machines, int index) {
  CHECK(index >= 0 && index < static_cast<int>(machines.size()));
  return machines[static_cast<size_t>(index)].get();
}

}  // namespace

std::string Rig::ShardRoot(int s) { return "/data/s" + std::to_string(s); }

std::string Rig::shard_mount(int s) const {
  return options_.fleet.active() ? ShardRoot(s) : data_root_;
}

Rig::Rig(RigOptions options)
    : options_(options), network_(simulator_, options.network, /*seed=*/11) {
  const FleetOptions& topology = options_.fleet;
  bool remote = options_.protocol != Protocol::kLocal;
  bool classic = !topology.active();
  CHECK(remote || classic);                // a fleet is remote by definition
  CHECK(classic || !options_.remote_tmp);  // fleet temporaries stay on the client disk
  // kLocal keeps /data and its temporaries on the client's own disk.
  CHECK(remote || options_.client.with_local_disk);
  CHECK(!topology.meta_cache || options_.protocol == Protocol::kNfs);
  CHECK_GE(topology.servers, 1);
  CHECK_GE(topology.clients, 1);

  // Hosts attach in a fixed order — shards, then the cache, then clients —
  // so host ids (and thus trace machine ids) are deterministic.
  for (int s = 0; remote && s < topology.servers; ++s) {
    ServerMachineParams params = options_.server;
    params.fs.fsid = static_cast<uint32_t>(1 + s);  // fsid names the shard
    servers_.push_back(std::make_unique<ServerMachine>(
        simulator_, network_, "server" + std::to_string(s), options_.protocol, params));
  }

  // Carve each shard's exported directory — and the classic rig's /rtmp
  // candidate — before wiring any mounts. The cache's shard map holds the
  // exported roots, so the cache attaches after the carve.
  proto::FileHandle tmp_parent;
  if (remote) {
    simulator_.Spawn([](Rig& rig, bool classic, proto::FileHandle* tmp_parent) -> sim::Task<void> {
      for (const auto& server : rig.servers_) {
        auto data = co_await server->fs().Mkdir(server->fs().root(), "data");
        CHECK(data.ok());
        rig.data_parents_.push_back(data->fh);
      }
      if (classic) {
        auto tmp = co_await rig.shard_fs(0).Mkdir(rig.shard_fs(0).root(), "tmp");
        CHECK(tmp.ok());
        *tmp_parent = tmp->fh;
      }
    }(*this, classic, &tmp_parent));
    simulator_.Run();
  }

  if (topology.meta_cache) {
    fleet::ShardMap shard_map;
    for (int s = 0; s < num_shards(); ++s) {
      shard_map.AddShard(fleet::Shard{s, ShardRoot(s), shard_fs(s).fsid(), shard(s).address(),
                                      shard_data_parent(s)});
    }
    meta_cache_ = std::make_unique<fleet::MetaCache>(simulator_, network_, "metacache",
                                                     std::move(shard_map), topology.meta);
  }
  for (int c = 0; c < topology.clients; ++c) {
    clients_.push_back(std::make_unique<ClientMachine>(
        simulator_, network_, "client" + std::to_string(c), options_.client));
  }
  if (!remote) {
    // In the local configuration /data and /local share the client disk;
    // the data tree's parent is the local fs root.
    data_parents_.push_back(data_fs().root());
  }

  // Every client mounts every shard: the classic rig at /data, a fleet at
  // ShardRoot(s). The vfs mount table's longest-prefix rule then routes by
  // path, and the mount's root handle carries the shard's fsid for
  // handle-based routing from there on. With the metadata tier the cache
  // *is* the server as far as the client can tell; it routes forwards by
  // the handles' fsid.
  if (remote && classic && options_.remote_tmp) {
    tmp_dir_ = "/rtmp";
  }
  for (const auto& client : clients_) {
    if (options_.client.with_local_disk) {
      client->MountLocal(local_root_);
    }
    if (!remote) {
      client->MountLocal(data_root_);
    }
    for (int s = 0; s < num_shards(); ++s) {
      net::Address target = meta_cache_ != nullptr ? meta_cache_->address() : shard(s).address();
      client->MountRemote(options_.protocol, shard_mount(s), target, shard_data_parent(s),
                          options_);
    }
    if (tmp_dir_ == "/rtmp") {
      client->MountRemote(options_.protocol, tmp_dir_, shard(0).address(), tmp_parent, options_);
    }
  }

  for (const auto& server : servers_) {
    server->Start();
  }
  if (meta_cache_ != nullptr) {
    meta_cache_->Start();
  }
  for (const auto& client : clients_) {
    client->Start();
  }

  if (tmp_dir_ == "/local/tmp" && options_.client.with_local_disk) {
    simulator_.Spawn([](Rig& rig) -> sim::Task<void> {
      for (const auto& client : rig.clients_) {
        auto made = co_await client->vfs().MkdirPath("/local/tmp");
        CHECK(made.ok());
      }
    }(*this));
    simulator_.Run();
  }
}

void Rig::ApplyFaultSchedule(const fault::FaultSchedule& schedule) {
  // Per shard: times at which the next handler dispatch should take it down.
  std::vector<std::vector<sim::Time>> handler_crashes(servers_.size());
  net::Network* network = &network_;

  for (const fault::FaultEvent& ev : schedule.events) {
    std::function<void()> fire;
    switch (ev.kind) {
      case fault::FaultEventKind::kCrashServer: {
        ServerMachine* server = Target(servers_, ev.target);
        fire = [server, network] {
          LOG_INFO("fault", "scheduled crash of %s", server->peer().name().c_str());
          server->Crash(*network);
        };
        break;
      }
      case fault::FaultEventKind::kRebootServer: {
        ServerMachine* server = Target(servers_, ev.target);
        fire = [server, network] {
          LOG_INFO("fault", "scheduled reboot of %s", server->peer().name().c_str());
          server->Reboot(*network);
        };
        break;
      }
      case fault::FaultEventKind::kCrashClient: {
        ClientMachine* client = Target(clients_, ev.target);
        fire = [client, network] {
          LOG_INFO("fault", "scheduled crash of %s", client->name().c_str());
          client->Crash(*network);
        };
        break;
      }
      case fault::FaultEventKind::kRestartClient: {
        ClientMachine* client = Target(clients_, ev.target);
        fire = [client, network] {
          LOG_INFO("fault", "scheduled restart of %s", client->name().c_str());
          client->Restart(*network);
        };
        break;
      }
      case fault::FaultEventKind::kCrashServerInHandler:
        Target(servers_, ev.target);
        handler_crashes[static_cast<size_t>(ev.target)].push_back(ev.at);
        continue;
      case fault::FaultEventKind::kCacheDown:
      case fault::FaultEventKind::kCacheUp: {
        fleet::MetaCache* cache = meta_cache_.get();
        CHECK(cache != nullptr);
        bool up = ev.kind == fault::FaultEventKind::kCacheUp;
        fire = [cache, up, network] {
          LOG_INFO("fault", "scheduled %s going %s", cache->name().c_str(), up ? "up" : "down");
          network->SetHostUp(cache->address(), up);
        };
        break;
      }
    }
    simulator_.ScheduleAt(ev.at, std::move(fire), /*background=*/true);
  }

  for (size_t s = 0; s < servers_.size(); ++s) {
    if (handler_crashes[s].empty()) {
      continue;
    }
    std::sort(handler_crashes[s].begin(), handler_crashes[s].end());
    // Shared with the worker hook, which outlives this call.
    auto pending = std::make_shared<std::deque<sim::Time>>(handler_crashes[s].begin(),
                                                          handler_crashes[s].end());
    ServerMachine* srv = servers_[s].get();
    sim::Simulator* simulator = &simulator_;
    srv->peer().set_worker_hook(
        [pending, srv, network, simulator](const rpc::WorkerEvent& event) {
          if (event.phase != rpc::WorkerEvent::Phase::kBeforeHandler) {
            return;
          }
          if (pending->empty() || simulator->Now() < pending->front()) {
            return;
          }
          pending->pop_front();
          // Crash via a zero-delay event rather than synchronously: the
          // dispatching worker proceeds into its CPU charge / handler first,
          // so the crash lands while the handler coroutine is in flight.
          simulator->Schedule(0, [srv, network] {
            LOG_INFO("fault", "crashing %s mid-handler", srv->peer().name().c_str());
            srv->Crash(*network);
          }, /*background=*/true);
        });
  }
}

fs::LocalFs& Rig::data_fs() {
  if (options_.protocol == Protocol::kLocal) {
    // The client's own disk hosts the data in the local configuration.
    CHECK(clients_[0]->local_fs() != nullptr);
    return *clients_[0]->local_fs();
  }
  return servers_[0]->fs();
}

disk::Disk& Rig::served_disk() {
  if (options_.protocol == Protocol::kLocal) {
    return *clients_[0]->local_disk();
  }
  return servers_[0]->disk();
}

}  // namespace testbed
