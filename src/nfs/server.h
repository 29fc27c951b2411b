// The NFS server: stateless, translating each RPC into LocalFs operations.
// It is the one NFS dispatch: the SNFS and NQNFS servers hold one and pass
// it every request they do not handle themselves.
//
// Per the stateless-server contract, every write RPC is synchronous with
// the disk ("an NFS server is required to write data to stable storage
// before returning from the remote procedure call"); the server retains no
// per-client or per-open-file state, so crash recovery is "the server
// simply restarts".
#ifndef SRC_NFS_SERVER_H_
#define SRC_NFS_SERVER_H_

#include "src/fs/local_fs.h"
#include "src/net/network.h"
#include "src/proto/messages.h"
#include "src/sim/task.h"

namespace nfs {

class NfsServer {
 public:
  explicit NfsServer(fs::LocalFs& fs) : fs_(fs) {}

  NfsServer(const NfsServer&) = delete;
  NfsServer& operator=(const NfsServer&) = delete;

  sim::Task<proto::Reply> Handle(proto::Request request, net::Address from);

 private:
  fs::LocalFs& fs_;
};

}  // namespace nfs

#endif  // SRC_NFS_SERVER_H_
