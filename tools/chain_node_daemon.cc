// One clinic-deployment member as an OS process: an EventLoop, a
// SocketTransport, and a ClinicDaemon (chain node + role peer) on top.
// Four processes — doctor, patient, researcher, observer — run the Fig. 5
// update cascade over real loopback TCP and each write a JSON report whose
// "compare" block must agree across processes AND with a simulated run of
// the same code (tools/run_loopback_cascade.sh checks both). Usage (one
// command line, wrapped here):
//
//   chain_node_daemon --role=doctor --port-base=21500
//       [--host=127.0.0.1] [--block-interval-ms=200] [--tick-interval-ms=20]
//       [--timeout-s=60] [--linger-ms=N] [--report=/path/report.json]
//
// Every process derives the full address map from --port-base: the process
// playing role index i (doctor 0, patient 1, researcher 2, observer 3)
// listens on port-base+i, so the route map needs no per-id flags. Exits 0
// on convergence, 1 on failure/timeout.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/strings.h"
#include "core/daemon.h"
#include "net/event_loop.h"
#include "net/socket_transport.h"

namespace {

using medsync::Json;
using medsync::kMicrosPerMilli;
using medsync::kMicrosPerSecond;
using medsync::Micros;
using medsync::Result;
using medsync::StrCat;
using medsync::core::ClinicDaemon;
using medsync::core::ClinicDaemonOptions;
using medsync::core::ClinicRole;

struct Flags {
  std::string role;
  std::string host = "127.0.0.1";
  int port_base = 0;
  int block_interval_ms = 200;
  int tick_interval_ms = 20;
  int timeout_s = 60;
  /// How long to keep serving after local convergence, so slower processes
  /// can still seal and fetch through us (two block intervals by default).
  int linger_ms = -1;
  std::string report_path;
};

bool ParseIntFlag(const char* arg, const char* name, int* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = std::atoi(arg + len + 1);
  return true;
}

bool ParseStringFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --role=doctor|patient|researcher|observer"
               " --port-base=N [--host=H] [--block-interval-ms=N]"
               " [--tick-interval-ms=N] [--timeout-s=N] [--linger-ms=N]"
               " [--report=PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (ParseStringFlag(arg, "--role", &flags.role) ||
        ParseStringFlag(arg, "--host", &flags.host) ||
        ParseStringFlag(arg, "--report", &flags.report_path) ||
        ParseIntFlag(arg, "--port-base", &flags.port_base) ||
        ParseIntFlag(arg, "--block-interval-ms", &flags.block_interval_ms) ||
        ParseIntFlag(arg, "--tick-interval-ms", &flags.tick_interval_ms) ||
        ParseIntFlag(arg, "--timeout-s", &flags.timeout_s) ||
        ParseIntFlag(arg, "--linger-ms", &flags.linger_ms)) {
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s\n", arg);
    return Usage(argv[0]);
  }
  Result<ClinicRole> role = medsync::core::ParseClinicRole(flags.role);
  if (!role.ok() || flags.port_base <= 0 || flags.port_base > 65500) {
    return Usage(argv[0]);
  }
  if (flags.linger_ms < 0) flags.linger_ms = 2 * flags.block_interval_ms;

  medsync::net::EventLoop loop;

  medsync::net::SocketTransportOptions net_options;
  net_options.listen_host = flags.host;
  net_options.listen_port = static_cast<uint16_t>(
      flags.port_base + ClinicDaemon::NodeIndexFor(*role));
  for (ClinicRole other :
       {ClinicRole::kDoctor, ClinicRole::kPatient, ClinicRole::kResearcher,
        ClinicRole::kObserver}) {
    if (other == *role) continue;
    const std::string address = StrCat(
        flags.host, ":", flags.port_base + ClinicDaemon::NodeIndexFor(other));
    for (const std::string& id : ClinicDaemon::LocalIds(other)) {
      net_options.routes[id] = address;
    }
  }
  medsync::net::SocketTransport transport(&loop, std::move(net_options));
  if (medsync::Status status = transport.Listen(); !status.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", status.ToString().c_str());
    return 1;
  }

  ClinicDaemonOptions options;
  options.role = *role;
  options.block_interval = Micros{flags.block_interval_ms} * kMicrosPerMilli;
  options.tick_interval = Micros{flags.tick_interval_ms} * kMicrosPerMilli;
  options.timeout = Micros{flags.timeout_s} * kMicrosPerSecond;
  auto daemon = ClinicDaemon::Create(options, &loop, &transport);
  if (!daemon.ok()) {
    std::fprintf(stderr, "bootstrap failed: %s\n",
                 daemon.status().ToString().c_str());
    return 1;
  }
  transport.set_metrics(&(*daemon)->metrics());
  (*daemon)->Start();

  // Drive the loop until convergence (plus a linger so slower peers can
  // still catch up through this process), failure, or timeout.
  const Micros poll = Micros{flags.tick_interval_ms} * kMicrosPerMilli;
  Micros linger_until = 0;
  while (true) {
    loop.RunOnce(poll);
    if ((*daemon)->failed()) break;
    if ((*daemon)->converged()) {
      if (linger_until == 0) {
        linger_until = loop.Now() + Micros{flags.linger_ms} * kMicrosPerMilli;
      } else if (loop.Now() >= linger_until) {
        break;
      }
    }
  }

  Json report = (*daemon)->Report();
  const std::string rendered = report.DumpPretty();
  if (!flags.report_path.empty()) {
    std::FILE* out = std::fopen(flags.report_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flags.report_path.c_str());
      return 1;
    }
    std::fwrite(rendered.data(), 1, rendered.size(), out);
    std::fputc('\n', out);
    std::fclose(out);
  } else {
    std::printf("%s\n", rendered.c_str());
  }

  if ((*daemon)->failed()) {
    std::fprintf(stderr, "%s failed: %s\n", flags.role.c_str(),
                 (*daemon)->failure().ToString().c_str());
    return 1;
  }
  return 0;
}
