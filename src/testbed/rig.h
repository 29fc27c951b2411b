// Rig: one benchmark configuration — N shard servers (none under kLocal),
// an optional metadata cache and M clients — built by one sequence:
// attach the machines, carve each shard's exported directory, mount, start,
// and make /local/tmp on every client that has a local disk.
//
// The classic rig is the paper's testbed, one server and one client
// (FleetOptions at its defaults). It mounts shard 0 at /data, and the
// layouts the paper's tables vary are:
//
//   kLocal          /data and the temp dir both on the client's local disk;
//   kNfs/kSnfs/kNqnfs
//                   /data remote; temp dir either local or remote (/rtmp)
//                   per `remote_tmp` ("one with just the data files remotely
//                   mounted but temporary files kept locally, and the last
//                   with both data and temporary files remotely mounted").
//
// A fleet (src/fleet) differs in one layout rule: shard k exports its tree
// at ShardRoot(k) = "/data/s<k>" instead of /data. Every shard has fsid
// 1+k and every client mounts every shard, so the vfs mount table does the
// client-side longest-prefix routing and the one logical namespace spans
// the fleet. With fleet.meta_cache (NFS only) a fleet::MetaCache is
// interposed on the network path: clients mount the shards with the
// cache's address as the server, and the cache answers getattr/lookup or
// forwards by fsid.
//
// Clients with a local disk (ClientMachineParams::with_local_disk, the
// default) mount it at /local for benchmark inputs/outputs that are not
// under test; kLocal needs it. Machines are named server<k>, metacache and
// client<c>; ApplyFaultSchedule scripts crashes against them.
#ifndef SRC_TESTBED_RIG_H_
#define SRC_TESTBED_RIG_H_

#include <memory>
#include <string>
#include <vector>

#include "src/fault/schedule.h"
#include "src/fleet/meta_cache.h"
#include "src/testbed/machine.h"

namespace testbed {

// N-server × M-client fleet topology. The defaults (1×1, no cache) are the
// classic rig.
struct FleetOptions {
  int servers = 1;
  int clients = 1;
  // Interpose a fleet::MetaCache between the clients and the shards.
  // NFS only: SNFS/NQNFS callbacks address the peer the server saw the
  // open/lease from, which would be the cache.
  bool meta_cache = false;
  fleet::MetaCacheParams meta;

  bool active() const { return servers > 1 || clients > 1 || meta_cache; }
};

// The inherited nfs / snfs / nqnfs members configure the remote clients.
struct RigOptions : ClientProtocolParams {
  Protocol protocol = Protocol::kLocal;
  bool remote_tmp = false;  // classic rig under kNfs / kSnfs / kNqnfs only
  ClientMachineParams client;
  ServerMachineParams server;
  net::NetworkParams network;  // network.faults enables link-fault injection
  FleetOptions fleet;
};

class Rig {
 public:
  explicit Rig(RigOptions options);

  // Where benchmark data / temporaries should go.
  const std::string& data_root() const { return data_root_; }    // "/data"
  const std::string& tmp_dir() const { return tmp_dir_; }        // varies
  const std::string& local_root() const { return local_root_; }  // "/local"

  // The file system that holds shard 0's data (for out-of-band population)
  // and the directory handle it is mounted on; client 0's disk under kLocal.
  fs::LocalFs& data_fs();
  proto::FileHandle data_parent() const { return data_parents_[0]; }

  sim::Simulator& simulator() { return simulator_; }
  ClientMachine& client(int i = 0) { return *clients_[static_cast<size_t>(i)]; }
  net::Network& network() { return network_; }
  const RigOptions& options() const { return options_; }

  // RPC issued by client 0 (all zero in the local configuration).
  const metrics::OpCounters& client_rpcs() const { return clients_[0]->peer().client_ops(); }
  // Server disk counters (the client's own disk for kLocal).
  disk::Disk& served_disk();

  int num_shards() const { return static_cast<int>(servers_.size()); }
  int num_clients() const { return static_cast<int>(clients_.size()); }
  ServerMachine& shard(int s) { return *servers_[static_cast<size_t>(s)]; }
  fleet::MetaCache* meta_cache() { return meta_cache_.get(); }
  fs::LocalFs& shard_fs(int s) { return servers_[static_cast<size_t>(s)]->fs(); }
  proto::FileHandle shard_data_parent(int s) const {
    return data_parents_[static_cast<size_t>(s)];
  }
  // Namespace prefix shard s exports in a fleet, "/data/s<s>".
  static std::string ShardRoot(int s);
  // Where every client mounts shard s: /data on the classic rig,
  // ShardRoot(s) on any other layout.
  std::string shard_mount(int s) const;

  // Schedules every event of `schedule` at its absolute time against this
  // rig's machines: server events name a shard, client events a client,
  // cache events the metadata cache. An event whose target the topology
  // lacks CHECK-fails. kCrashServerInHandler installs a worker hook on that
  // shard's peer (replacing any previous hook): the first handler dispatch
  // at or after the event time triggers a crash that lands mid-dispatch,
  // while the handler coroutine is in flight. Call after population so the
  // faults land in the run.
  void ApplyFaultSchedule(const fault::FaultSchedule& schedule);

 private:
  RigOptions options_;
  sim::Simulator simulator_;
  net::Network network_;
  std::vector<std::unique_ptr<ServerMachine>> servers_;
  std::unique_ptr<fleet::MetaCache> meta_cache_;
  std::vector<std::unique_ptr<ClientMachine>> clients_;
  std::string data_root_ = "/data";
  std::string tmp_dir_ = "/local/tmp";
  std::string local_root_ = "/local";
  // Per shard: the exported directory; client 0's local root under kLocal.
  std::vector<proto::FileHandle> data_parents_;
};

}  // namespace testbed

#endif  // SRC_TESTBED_RIG_H_
