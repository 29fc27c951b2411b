// The remote-client core shared by the NFS, SNFS and NQNFS clients.
//
// The paper builds SNFS by moving Sprite's consistency protocol into NFS
// while keeping NFS's file-access operations as they are. This class holds
// those operations, written once: the per-mount node table (one node per
// fileid), the buffer-cache backing that fetches and stores blocks with
// read/write RPCs, and the namespace operations — root, lookup, create,
// mkdir, rmdir, rename and cookie-paged readdir. Each protocol subclass
// keeps only its consistency policy: when cached data is validated, when
// written data reaches the server, and how server callbacks are served.
//
// The two delayed-write protocols, SNFS and NQNFS, share more, and that is
// here too: daemon generations, the callback skeleton (count, write-back
// flush, invalidate), the cached read and write path, truncate, and fsync
// as a flush of the file's dirty blocks. NFS writes through and overrides
// Truncate and Fsync; the machine never routes callbacks to it.
//
// The core calls back into the protocol through virtual hooks. A hook that
// returns sim::Task must be pure virtual here: snfslint resolves a call
// against the caller's class first, and only a body-less Task declaration
// counts as may-suspend — a non-suspending default body would hide every
// suspending override from the await-stale-ref, await-cached-size and
// suspend-escape rules (DESIGN.md §2).
#ifndef SRC_NFS_REMOTE_CLIENT_H_
#define SRC_NFS_REMOTE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/net/network.h"
#include "src/proto/messages.h"
#include "src/rpc/peer.h"
#include "src/sim/simulator.h"
#include "src/vfs/vfs.h"

namespace nfs {

class RemoteClient : public vfs::FileSystem {
 public:
  // The buffer cache's backing callbacks hold `this`.
  RemoteClient(const RemoteClient&) = delete;
  RemoteClient& operator=(const RemoteClient&) = delete;

  // Spawns the protocol's daemons. Stop makes them exit at their next
  // wake-up; a later Start begins a new generation.
  void Start();
  void Stop() { running_ = false; }

  // Crash simulation: per-file client state lives in kernel memory and dies
  // with the machine. The buffer cache is dropped separately by the machine.
  virtual void Reset();

  // True when this mount instance tracks the file (used by the machine's
  // callback dispatcher when several mounts come from the same server).
  bool Owns(const proto::FileHandle& fh) const {
    auto it = nodes_.find(fh.fileid);
    return it != nodes_.end() && it->second->fh == fh;
  }

  // Service a callback RPC from the server: an SNFS callback or an NQNFS
  // vacate, which share the channel. Must not send RPCs inline — see §3.2's
  // deadlock discussion — so a protocol defers any follow-up work.
  sim::Task<proto::Reply> HandleCallback(proto::CallbackReq req);

  // --- vfs::FileSystem: the namespace, identical in every protocol ----------
  sim::Task<base::Result<vfs::GnodeRef>> Root() override;
  sim::Task<base::Result<vfs::GnodeRef>> Lookup(vfs::GnodeRef dir, std::string name) override;
  sim::Task<base::Result<vfs::GnodeRef>> Create(vfs::GnodeRef dir, std::string name,
                                                bool exclusive) override;
  sim::Task<base::Result<vfs::GnodeRef>> Mkdir(vfs::GnodeRef dir, std::string name) override;
  sim::Task<base::Result<void>> Rmdir(vfs::GnodeRef dir, std::string name) override;
  sim::Task<base::Result<void>> Rename(vfs::GnodeRef from_dir, std::string from_name,
                                       vfs::GnodeRef to_dir, std::string to_name) override;
  sim::Task<base::Result<std::vector<proto::DirEntry>>> ReadDir(vfs::GnodeRef dir) override;

  // --- vfs::FileSystem: the delayed-write defaults (SNFS, NQNFS) ------------
  sim::Task<base::Result<void>> Truncate(vfs::GnodeRef node, uint64_t size) override;
  sim::Task<base::Result<void>> Fsync(vfs::GnodeRef node) override;

  int mount_id() const { return mount_id_; }
  uint32_t fsid() const { return root_fh_.fsid; }
  uint64_t callbacks_served() const { return callbacks_served_; }

 protected:
  // Per-file client state; each protocol derives its own node from it.
  struct Node : vfs::Gnode {
    // Delayed-write protocols: whether blocks of the file might be in the
    // cache, and the server version those blocks correspond to.
    bool have_cached_data = false;
    uint64_t cached_version = 0;
    bool possibly_inconsistent = false;
  };
  using NodeRef = std::shared_ptr<Node>;

  // `protocol` names the trace events ("nfs", "snfs", "nqnfs") and the
  // buffer-cache mount, so the trace checker can enforce single-writer
  // caching per protocol and host.
  RemoteClient(sim::Simulator& simulator, rpc::Peer& peer, net::Address server,
               proto::FileHandle root_fh, cache::BufferCache& cache, std::string protocol);

  template <typename N>
  static std::shared_ptr<N> AsNode(const vfs::GnodeRef& node) {
    return std::static_pointer_cast<N>(node);
  }
  // The node tracked for `fileid`, or null.
  NodeRef FindNode(uint64_t fileid) const;
  NodeRef Intern(const proto::FileHandle& fh, const proto::Attr& attr);
  // Tracked fileids in ascending order. Daemons that await an RPC per file
  // walk this, so the event queue does not depend on hash order.
  std::vector<uint64_t> SortedFileids() const;

  // Unwraps a reply body after giving the protocol its look at the reply.
  // Not a coroutine, so it adds no frame to an RPC.
  template <typename Rep>
  base::Result<Rep> Accept(base::Result<proto::Reply> reply) {
    if (reply.ok()) {
      OnReply(*reply);
    }
    return rpc::Expect<Rep>(std::move(reply));
  }
  // Getattr, read and write calls, for Accept. Plain functions returning
  // the call's task, so they add no coroutine frame either.
  sim::Task<base::Result<proto::Reply>> CallGetAttr(proto::FileHandle fh);
  sim::Task<base::Result<proto::Reply>> CallRead(proto::FileHandle fh, uint64_t offset,
                                                 uint32_t count);
  sim::Task<base::Result<proto::Reply>> CallWrite(proto::FileHandle fh, uint64_t offset,
                                                  std::vector<uint8_t> data);
  // The remove RPC; on success the mount stops tracking `fileid`.
  sim::Task<base::Result<void>> SendRemove(vfs::GnodeRef dir, std::string name,
                                           uint64_t fileid);

  // Local (this-machine) open counts.
  static void CountOpen(vfs::Gnode& node, bool write);
  static void CountClose(vfs::Gnode& node, bool write);

  // Delayed-write data path: reads and writes through the buffer cache.
  // `<protocol>.read_observe` is the trace checker's observation point: a
  // cached read may only see the version the server granted.
  sim::Task<base::Result<std::vector<uint8_t>>> CachedRead(NodeRef node, uint64_t offset,
                                                           uint32_t count);
  sim::Task<base::Result<void>> CachedWrite(NodeRef node, uint64_t offset,
                                            std::vector<uint8_t> data);
  // Takes server attributes unless the file has dirty blocks here: then the
  // local attributes are authoritative.
  void AdoptAttrs(Node& node, const proto::Attr& attr);
  // Drops the file's cached blocks, clean and dirty.
  void DropCachedData(Node& node);
  // Emits `<protocol>.invalidated` for the trace checker.
  void TraceInvalidated(const Node& node, const char* reason);
  // "fsid=<fsid> file=<fileid>": how the checker's per-file events name a
  // file, so one fileid on two shards stays two files.
  std::string TraceFileArgs(uint64_t fileid) const;

  // True while the daemons of `generation` should keep running.
  bool Running(uint64_t generation) const {
    return running_ && generation == daemon_generation_;
  }

  // --- hooks ------------------------------------------------------------------
  virtual NodeRef NewNode() = 0;
  // Fresh server attributes for a tracked node (lookup or create of a known
  // file). Default: AdoptAttrs, never shrinking the size below the local
  // view.
  virtual void RefreshAttrs(Node& node, const proto::Attr& attr);
  // Every successfully delivered reply, before its body is unwrapped.
  virtual void OnReply(const proto::Reply& reply) {}
  // A block fetched into the cache; `attr` came with it.
  virtual void OnFetched(Node& node, const proto::Attr& attr) {}
  // The node a create RPC returned.
  virtual void OnCreated(Node& node) {}
  virtual void SpawnDaemons(uint64_t generation) {}
  // For each tracked node at a crash; workload code may still hold it.
  virtual void OnCrash(Node& node) {}
  // A callback served for a tracked node, after the write-back flush and,
  // when `req.invalidate`, after the cached blocks were dropped.
  virtual void OnCallback(NodeRef node, const proto::CallbackReq& req) {}
  virtual std::string CallbackSpanArgs(const proto::CallbackReq& req) const;

  sim::Simulator& simulator_;
  rpc::Peer& peer_;
  net::Address server_;
  proto::FileHandle root_fh_;
  cache::BufferCache& cache_;
  std::string protocol_;
  int mount_id_;
  bool running_ = false;
  // Bumped on every Start: daemons from a previous incarnation observe the
  // change and exit instead of running alongside their replacements.
  uint64_t daemon_generation_ = 0;
  std::unordered_map<uint64_t, NodeRef> nodes_;
  uint64_t callbacks_served_ = 0;
};

}  // namespace nfs

#endif  // SRC_NFS_REMOTE_CLIENT_H_
