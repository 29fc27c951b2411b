#include "src/testbed/rig.h"

#include "src/base/log.h"
#include "src/testbed/fault_runner.h"

namespace testbed {

std::string_view ProtocolName(Protocol protocol) {
  switch (protocol) {
    case Protocol::kLocal:
      return "local";
    case Protocol::kNfs:
      return "NFS";
    case Protocol::kSnfs:
      return "SNFS";
    case Protocol::kNqnfs:
      return "NQNFS";
  }
  return "?";
}

namespace {
ServerProtocol ServerProtocolFor(Protocol protocol) {
  switch (protocol) {
    case Protocol::kNfs:
      return ServerProtocol::kNfs;
    case Protocol::kNqnfs:
      return ServerProtocol::kNqnfs;
    default:
      return ServerProtocol::kSnfs;
  }
}
}  // namespace

std::string Rig::ShardRoot(int s) { return "/data/s" + std::to_string(s); }

Rig::Rig(RigOptions options)
    : options_(options), network_(simulator_, options.network, /*seed=*/11) {
  const FleetOptions& topology = options_.fleet;
  bool remote = options_.protocol != Protocol::kLocal;
  bool classic = !topology.active();
  CHECK(remote || classic);                // a fleet is remote by definition
  CHECK(classic || !options_.remote_tmp);  // fleet temporaries stay on the client disk
  CHECK(!topology.meta_cache || options_.protocol == Protocol::kNfs);
  CHECK_GE(topology.servers, 1);
  CHECK_GE(topology.clients, 1);
  ServerProtocol protocol = ServerProtocolFor(options_.protocol);

  // Hosts attach in a fixed order — shards, then the cache, then clients —
  // so host ids (and thus trace machine ids) are deterministic.
  for (int s = 0; remote && s < topology.servers; ++s) {
    ServerMachineParams params = options_.server;
    params.fs.fsid = static_cast<uint32_t>(1 + s);  // fsid names the shard
    servers_.push_back(std::make_unique<ServerMachine>(
        simulator_, network_, "server" + std::to_string(s), protocol, params));
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
    client->MountLocal(local_root_);
    if (!remote) {
      client->MountLocal(data_root_);
    }
    for (int s = 0; s < num_shards(); ++s) {
      net::Address target = meta_cache_ != nullptr ? meta_cache_->address() : shard(s).address();
      client->MountRemote(protocol, classic ? data_root_ : ShardRoot(s), target,
                          shard_data_parent(s), options_);
    }
    if (tmp_dir_ == "/rtmp") {
      client->MountRemote(protocol, tmp_dir_, shard(0).address(), tmp_parent, options_);
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

  if (tmp_dir_ == "/local/tmp") {
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
  std::vector<ServerMachine*> servers;
  for (const auto& server : servers_) {
    servers.push_back(server.get());
  }
  std::vector<ClientMachine*> clients;
  for (const auto& client : clients_) {
    clients.push_back(client.get());
  }
  testbed::ApplyFaultSchedule(simulator_, network_, servers, meta_cache_.get(), clients,
                              schedule);
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
