// Demonstrates the paper's central correctness claim side by side: under
// concurrent write-sharing, an NFS reader sees stale data for up to its
// attribute-probe interval, while SNFS disables caching and keeps every
// read current.
//
//   ./build/examples/write_sharing
#include <cstdio>
#include <string>

#include "src/testbed/machine.h"

using testbed::ClientMachine;
using testbed::Protocol;
using testbed::ServerMachine;

namespace {

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }
std::string Str(const std::vector<uint8_t>& v) { return {v.begin(), v.end()}; }

sim::Task<void> Scenario(sim::Simulator& simulator, ClientMachine& writer,
                         ClientMachine& reader, const char* label, int* stale_reads) {
  vfs::Vfs& w = writer.vfs();
  vfs::Vfs& r = reader.vfs();
  (void)co_await w.WriteFile("/data/ticker", Bytes("gen-0"));

  auto rfd = co_await r.Open("/data/ticker", vfs::OpenFlags::ReadOnly());
  auto wfd = co_await w.Open("/data/ticker", vfs::OpenFlags::ReadWrite());
  if (!rfd.ok() || !wfd.ok()) {
    co_return;
  }
  std::printf("--- %s: writer updates every 500 ms; reader polls right after ---\n", label);
  for (int gen = 1; gen <= 6; ++gen) {
    std::string value = "gen-" + std::to_string(gen);
    (void)co_await w.Pwrite(*wfd, 0, Bytes(value));
    auto got = co_await r.Pread(*rfd, 0, 16);
    bool stale = !got.ok() || Str(*got) != value;
    if (stale) {
      ++*stale_reads;
    }
    std::printf("  t=%6.2fs  wrote \"%s\"  reader saw \"%s\"%s\n",
                sim::ToSeconds(simulator.Now()), value.c_str(),
                got.ok() ? Str(*got).c_str() : "<error>", stale ? "   <-- STALE" : "");
    co_await sim::Sleep(simulator, sim::Msec(500));
  }
  (void)co_await w.Close(*wfd);
  (void)co_await r.Close(*rfd);
}

}  // namespace

int main() {
  int nfs_stale = 0;
  {
    sim::Simulator simulator;
    net::Network network(simulator, {});
    ServerMachine server(simulator, network, "server", Protocol::kNfs);
    ClientMachine writer(simulator, network, "writer");
    ClientMachine reader(simulator, network, "reader");
    writer.MountNfs("/data", server.address(), server.root());
    reader.MountNfs("/data", server.address(), server.root());
    server.Start();
    writer.Start();
    reader.Start();
    simulator.Spawn(Scenario(simulator, writer, reader, "NFS", &nfs_stale));
    simulator.Run();
  }

  int snfs_stale = 0;
  {
    sim::Simulator simulator;
    net::Network network(simulator, {});
    ServerMachine server(simulator, network, "server", Protocol::kSnfs);
    ClientMachine writer(simulator, network, "writer");
    ClientMachine reader(simulator, network, "reader");
    writer.MountSnfs("/data", server.address(), server.root());
    reader.MountSnfs("/data", server.address(), server.root());
    server.Start();
    writer.Start();
    reader.Start();
    simulator.Spawn(Scenario(simulator, writer, reader, "SNFS", &snfs_stale));
    simulator.Run();
  }

  std::printf("\nStale reads: NFS %d, SNFS %d\n", nfs_stale, snfs_stale);
  std::printf("\"Spritely NFS guarantees that no two clients will have inconsistent\n");
  std::printf(" cached copies of a file.\" — and here it shows.\n");
  return snfs_stale == 0 ? 0 : 1;
}
