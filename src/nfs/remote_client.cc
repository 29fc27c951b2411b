#include "src/nfs/remote_client.h"

#include <algorithm>
#include <string>

#include "src/base/log.h"
#include "src/trace/trace.h"

namespace nfs {

using cache::kBlockSize;

RemoteClient::RemoteClient(sim::Simulator& simulator, rpc::Peer& peer, net::Address server,
                           proto::FileHandle root_fh, cache::BufferCache& cache,
                           std::string protocol)
    : simulator_(simulator),
      peer_(peer),
      server_(server),
      root_fh_(root_fh),
      cache_(cache),
      protocol_(std::move(protocol)) {
  cache::Backing backing;
  backing.fetch = [this](uint64_t fileid, uint64_t block)
      -> sim::Task<base::Result<std::vector<uint8_t>>> {
    NodeRef node = FindNode(fileid);
    if (node == nullptr) {
      co_return base::ErrStale();
    }
    auto rep = Accept<proto::ReadRep>(co_await CallRead(node->fh, block * kBlockSize, kBlockSize));
    if (!rep.ok()) {
      co_return rep.status();
    }
    OnFetched(*node, rep->attr);
    co_return rep->data.ToVector();
  };
  backing.store = [this](uint64_t fileid, uint64_t block,
                         std::vector<uint8_t> data) -> sim::Task<base::Result<void>> {
    NodeRef node = FindNode(fileid);
    if (node == nullptr) {
      co_return base::ErrStale();
    }
    auto rep = Accept<proto::AttrRep>(
        co_await CallWrite(node->fh, block * kBlockSize, std::move(data)));
    if (!rep.ok()) {
      co_return rep.status();
    }
    co_return base::OkStatus();
  };
  backing.trace_name = protocol_;
  backing.trace_machine = peer_.address().host;
  backing.trace_fsid = fsid();
  mount_id_ = cache_.RegisterMount(std::move(backing));
}

void RemoteClient::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  ++daemon_generation_;
  SpawnDaemons(daemon_generation_);
}

void RemoteClient::Reset() {
  for (auto& [fileid, node] : nodes_) {  // lint: ordered-ok (independent field resets)
    OnCrash(*node);
  }
  nodes_.clear();
}

RemoteClient::NodeRef RemoteClient::FindNode(uint64_t fileid) const {
  auto it = nodes_.find(fileid);
  return it == nodes_.end() ? nullptr : it->second;
}

RemoteClient::NodeRef RemoteClient::Intern(const proto::FileHandle& fh,
                                           const proto::Attr& attr) {
  auto it = nodes_.find(fh.fileid);
  if (it != nodes_.end() && it->second->fh == fh) {
    RefreshAttrs(*it->second, attr);
    return it->second;
  }
  NodeRef node = NewNode();
  node->fh = fh;
  node->attr = attr;
  nodes_[fh.fileid] = node;
  return node;
}

void RemoteClient::RefreshAttrs(Node& node, const proto::Attr& attr) {
  proto::Attr merged = attr;
  merged.size = std::max(merged.size, node.attr.size);
  AdoptAttrs(node, merged);
}

void RemoteClient::AdoptAttrs(Node& node, const proto::Attr& attr) {
  if (!cache_.HasDirty(mount_id_, node.fh.fileid)) {
    node.attr = attr;
  }
}

std::vector<uint64_t> RemoteClient::SortedFileids() const {
  std::vector<uint64_t> fileids;
  fileids.reserve(nodes_.size());
  for (const auto& [fileid, node] : nodes_) {  // lint: ordered-ok (sorted below)
    fileids.push_back(fileid);
  }
  std::sort(fileids.begin(), fileids.end());
  return fileids;
}

// --- RPCs ----------------------------------------------------------------------

sim::Task<base::Result<proto::Reply>> RemoteClient::CallGetAttr(proto::FileHandle fh) {
  proto::GetAttrReq req;
  req.fh = fh;
  return peer_.Call(server_, std::move(req));
}

sim::Task<base::Result<proto::Reply>> RemoteClient::CallRead(proto::FileHandle fh,
                                                             uint64_t offset, uint32_t count) {
  proto::ReadReq req;
  req.fh = fh;
  req.offset = offset;
  req.count = count;
  return peer_.Call(server_, std::move(req));
}

sim::Task<base::Result<proto::Reply>> RemoteClient::CallWrite(proto::FileHandle fh,
                                                              uint64_t offset,
                                                              std::vector<uint8_t> data) {
  proto::WriteReq req;
  req.fh = fh;
  req.offset = offset;
  req.data = std::move(data);
  return peer_.Call(server_, std::move(req));
}

sim::Task<base::Result<void>> RemoteClient::SendRemove(vfs::GnodeRef dir, std::string name,
                                                       uint64_t fileid) {
  proto::RemoveReq req;
  req.dir = dir->fh;
  req.name = name;
  auto rep = Accept<proto::NullRep>(co_await peer_.Call(server_, req));
  if (!rep.ok()) {
    co_return rep.status();
  }
  nodes_.erase(fileid);
  co_return base::OkStatus();
}

// --- namespace -----------------------------------------------------------------

sim::Task<base::Result<vfs::GnodeRef>> RemoteClient::Root() {
  if (NodeRef root = FindNode(root_fh_.fileid)) {
    co_return vfs::GnodeRef(root);
  }
  auto rep = Accept<proto::AttrRep>(co_await CallGetAttr(root_fh_));
  if (!rep.ok()) {
    co_return rep.status();
  }
  co_return vfs::GnodeRef(Intern(root_fh_, rep->attr));
}

sim::Task<base::Result<vfs::GnodeRef>> RemoteClient::Lookup(vfs::GnodeRef dir,
                                                            std::string name) {
  proto::LookupReq req;
  req.dir = dir->fh;
  req.name = name;
  auto rep = Accept<proto::LookupRep>(co_await peer_.Call(server_, req));
  if (!rep.ok()) {
    co_return rep.status();
  }
  co_return vfs::GnodeRef(Intern(rep->fh, rep->attr));
}

sim::Task<base::Result<vfs::GnodeRef>> RemoteClient::Create(vfs::GnodeRef dir,
                                                            std::string name,
                                                            bool exclusive) {
  proto::CreateReq req;
  req.dir = dir->fh;
  req.name = name;
  req.exclusive = exclusive;
  auto rep = Accept<proto::CreateRep>(co_await peer_.Call(server_, req));
  if (!rep.ok()) {
    co_return rep.status();
  }
  NodeRef node = Intern(rep->fh, rep->attr);
  OnCreated(*node);
  co_return vfs::GnodeRef(node);
}

sim::Task<base::Result<vfs::GnodeRef>> RemoteClient::Mkdir(vfs::GnodeRef dir,
                                                           std::string name) {
  proto::MkdirReq req;
  req.dir = dir->fh;
  req.name = name;
  auto rep = Accept<proto::CreateRep>(co_await peer_.Call(server_, req));
  if (!rep.ok()) {
    co_return rep.status();
  }
  co_return vfs::GnodeRef(Intern(rep->fh, rep->attr));
}

sim::Task<base::Result<void>> RemoteClient::Rmdir(vfs::GnodeRef dir, std::string name) {
  proto::RmdirReq req;
  req.dir = dir->fh;
  req.name = name;
  auto rep = Accept<proto::NullRep>(co_await peer_.Call(server_, req));
  if (!rep.ok()) {
    co_return rep.status();
  }
  co_return base::OkStatus();
}

sim::Task<base::Result<void>> RemoteClient::Rename(vfs::GnodeRef from_dir,
                                                   std::string from_name,
                                                   vfs::GnodeRef to_dir,
                                                   std::string to_name) {
  proto::RenameReq req;
  req.from_dir = from_dir->fh;
  req.from_name = from_name;
  req.to_dir = to_dir->fh;
  req.to_name = to_name;
  auto rep = Accept<proto::NullRep>(co_await peer_.Call(server_, req));
  if (!rep.ok()) {
    co_return rep.status();
  }
  co_return base::OkStatus();
}

sim::Task<base::Result<std::vector<proto::DirEntry>>> RemoteClient::ReadDir(vfs::GnodeRef dir) {
  std::vector<proto::DirEntry> all;
  uint64_t cookie = 0;
  while (true) {
    proto::ReadDirReq req;
    req.dir = dir->fh;
    req.cookie = cookie;
    req.count = 64;
    auto rep = Accept<proto::ReadDirRep>(co_await peer_.Call(server_, req));
    if (!rep.ok()) {
      co_return rep.status();
    }
    for (auto& e : rep->entries) {
      cookie = e.cookie;
      all.push_back(std::move(e));
    }
    if (rep->eof) {
      break;
    }
  }
  co_return all;
}

// --- open counts ---------------------------------------------------------------

void RemoteClient::CountOpen(vfs::Gnode& node, bool write) {
  if (write) {
    ++node.open_writes;
  } else {
    ++node.open_reads;
  }
}

void RemoteClient::CountClose(vfs::Gnode& node, bool write) {
  if (write) {
    CHECK_GT(node.open_writes, 0u);
    --node.open_writes;
  } else {
    CHECK_GT(node.open_reads, 0u);
    --node.open_reads;
  }
}

// --- delayed-write data path -----------------------------------------------------

sim::Task<base::Result<std::vector<uint8_t>>> RemoteClient::CachedRead(NodeRef node,
                                                                       uint64_t offset,
                                                                       uint32_t count) {
  TRACE_INSTANT(protocol_ + ".read_observe", peer_.address().host,
                TraceFileArgs(node->fh.fileid) +
                    " version=" + std::to_string(node->cached_version));
  auto data = co_await cache_.Read(mount_id_, node->fh.fileid, offset, count, node->attr.size,
                                   /*read_ahead=*/true);
  if (data.ok() && !data->empty()) {
    node->have_cached_data = true;
  }
  co_return data;
}

sim::Task<base::Result<void>> RemoteClient::CachedWrite(NodeRef node, uint64_t offset,
                                                        std::vector<uint8_t> data) {
  uint64_t end = offset + data.size();
  CO_RETURN_IF_ERROR(co_await cache_.WriteDelayed(mount_id_, node->fh.fileid, offset,
                                                  std::move(data), node->attr.size));
  node->have_cached_data = true;
  node->attr.size = std::max(node->attr.size, end);
  node->attr.mtime = simulator_.Now();
  co_return base::OkStatus();
}

void RemoteClient::DropCachedData(Node& node) {
  cache_.InvalidateFile(mount_id_, node.fh.fileid);
  node.have_cached_data = false;
}

void RemoteClient::TraceInvalidated(const Node& node, const char* reason) {
  TRACE_INSTANT(protocol_ + ".invalidated", peer_.address().host,
                TraceFileArgs(node.fh.fileid) + " reason=" + reason);
}

std::string RemoteClient::TraceFileArgs(uint64_t fileid) const {
  return "fsid=" + std::to_string(fsid()) + " file=" + std::to_string(fileid);
}

sim::Task<base::Result<void>> RemoteClient::Truncate(vfs::GnodeRef gnode, uint64_t size) {
  NodeRef node = AsNode<Node>(gnode);
  cache_.CancelDirty(mount_id_, node->fh.fileid);
  DropCachedData(*node);
  proto::SetAttrReq req;
  req.fh = node->fh;
  req.size = size;
  auto rep = Accept<proto::AttrRep>(co_await peer_.Call(server_, req));
  if (!rep.ok()) {
    co_return rep.status();
  }
  node->attr = rep->attr;
  co_return base::OkStatus();
}

sim::Task<base::Result<void>> RemoteClient::Fsync(vfs::GnodeRef gnode) {
  // "If reliability is more important than performance, an application can
  // use explicit file-flushing operations to cause write-through."
  co_return co_await cache_.FlushFile(mount_id_, gnode->fh.fileid);
}

// --- callbacks -------------------------------------------------------------------

std::string RemoteClient::CallbackSpanArgs(const proto::CallbackReq& req) const {
  return "file=" + std::to_string(req.fh.fileid) + " wb=" + (req.writeback ? "1" : "0") +
         " inv=" + (req.invalidate ? "1" : "0");
}

sim::Task<proto::Reply> RemoteClient::HandleCallback(proto::CallbackReq req) {
  ++callbacks_served_;
  trace::Span serve_span;
  if (trace::Active() != nullptr) {
    serve_span.Begin(protocol_ + ".callback_serve", peer_.address().host, CallbackSpanArgs(req));
  }
  NodeRef node = FindNode(req.fh.fileid);
  if (node == nullptr || !(node->fh == req.fh)) {
    co_return proto::OkReply(proto::CallbackRep{});
  }
  if (req.writeback) {
    // "The client should not return from the callback RPC until all the
    // dirty blocks have been written back to the server."
    (void)co_await cache_.FlushFile(mount_id_, node->fh.fileid);
  }
  if (req.invalidate) {
    DropCachedData(*node);
  }
  OnCallback(node, req);
  co_return proto::OkReply(proto::CallbackRep{});
}

}  // namespace nfs
