// qdmd — the qdm solver daemon: a SolverService behind the HTTP front end
// in qdm/net (endpoints and wire format in docs/network.md).
//
//   qdmd [--port N] [--workers N] [--max-queue-depth N]
//
//   --port             TCP port on 127.0.0.1 (default 7777; 0 asks the
//                      kernel for an ephemeral port). The chosen port is
//                      printed as the first output line either way:
//                      "qdmd: listening on port <PORT>".
//   --workers          Concurrent job cap (0 = hardware default).
//   --max-queue-depth  Admission-control high watermark (0 = unbounded).
//
// SIGINT/SIGTERM trigger a graceful shutdown: stop accepting, resolve
// queued jobs Cancelled, let running jobs finish, answer every in-flight
// request, then exit 0.
//
// Smoke it with curl:
//
//   curl http://127.0.0.1:7777/healthz
//   curl -X POST http://127.0.0.1:7777/v1/jobs -d '{"version":1,
//     "type":"submit","solver":"simulated_annealing",
//     "qubo":{"num_variables":2,"offset":0,"linear":[0.5,-1],
//             "quadratic":[[0,1,2]]},
//     "options":{"num_reads":4,"seed":7}}'
//   curl -X POST http://127.0.0.1:7777/v1/jobs/1/wait

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "qdm/net/server.h"

namespace {

int ParseIntFlag(const char* flag, const char* text) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 0 || value > 65535) {
    std::fprintf(stderr,
                 "qdmd: %s expects an integer in [0, 65535], got "
                 "'%s'\n",
                 flag, text);
    std::exit(2);
  }
  return static_cast<int>(value);
}

}  // namespace

int main(int argc, char** argv) {
  qdm::net::ServerConfig config;
  config.port = 7777;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--port" && has_value) {
      config.port = ParseIntFlag("--port", argv[++i]);
    } else if (arg == "--workers" && has_value) {
      config.service.num_workers = ParseIntFlag("--workers", argv[++i]);
    } else if (arg == "--max-queue-depth" && has_value) {
      config.service.max_queue_depth =
          ParseIntFlag("--max-queue-depth", argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: qdmd [--port N] [--workers N] [--max-queue-depth N]\n");
      return 0;
    } else {
      std::fprintf(stderr, "qdmd: unknown argument '%s' (see --help)\n",
                   arg.c_str());
      return 2;
    }
  }

  // Block the shutdown signals BEFORE any thread is spawned so every
  // thread inherits the mask and sigwait below is the only consumer.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  auto server = qdm::net::QdmServer::Start(config);
  if (!server.ok()) {
    std::fprintf(stderr, "qdmd: %s\n", server.status().ToString().c_str());
    return 1;
  }

  std::printf("qdmd: listening on port %d\n", (*server)->port());
  std::printf("qdmd: %d workers, max queue depth %d\n",
              (*server)->service().num_workers(),
              config.service.max_queue_depth);
  std::fflush(stdout);

  int signal_number = 0;
  sigwait(&signals, &signal_number);
  std::printf("qdmd: received %s, draining...\n",
              signal_number == SIGTERM ? "SIGTERM" : "SIGINT");
  std::fflush(stdout);

  (*server)->Stop();
  std::printf("qdmd: drained, bye\n");
  return 0;
}
