// artemisd — the ARTEMIS tuning daemon.
//
// A long-lived tuning service on a unix-domain socket: clients submit
// stencil programs; the daemon compiles, tunes and answers from one
// shared ArtemisContext. Concurrent requests for the same program are
// deduplicated (one tuner evaluation, everyone gets byte-identical plan
// bytes), published plans are served straight from the content-addressed
// plan store, and every tune is journaled so a killed daemon resumes
// from its write-ahead log on restart. See docs/SERVICE.md.
//
//   artemisd --socket /tmp/artemis.sock --store plans/
//   artemisd --socket s.sock --store plans/ --journal-dir wal/
//   artemisd --socket s.sock --device v100 --strategy ppcg --jobs 4

#include <cstdio>
#include <cstring>
#include <string>

#include "artemis/common/parallel.hpp"
#include "artemis/service/socket_server.hpp"

using namespace artemis;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket <path>\n"
               "       [--store dir]          durable content-addressed "
               "plan store\n"
               "       [--journal-dir dir]    per-program tuning journals "
               "(resume after kill)\n"
               "       [--strategy artemis|ppcg|stencilgen|global|"
               "global-stream]\n"
               "       [--device k40|p100|v100|a100|h100]\n"
               "       [--jobs N]             simulator parallelism\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path, store_path, journal_dir;
  std::string strategy_name = "artemis";
  std::string device_name = "p100";
  int jobs = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--store" && i + 1 < argc) {
      store_path = argv[++i];
    } else if (arg == "--journal-dir" && i + 1 < argc) {
      journal_dir = argv[++i];
    } else if (arg == "--strategy" && i + 1 < argc) {
      strategy_name = argv[++i];
    } else if (arg == "--device" && i + 1 < argc) {
      device_name = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      try {
        jobs = std::stoi(argv[++i]);
      } catch (const std::exception&) {
        jobs = -1;
      }
      if (jobs < 1) {
        std::fprintf(stderr, "artemisd: --jobs expects an integer >= 1\n");
        return 2;
      }
    } else {
      return usage(argv[0]);
    }
  }
  if (socket_path.empty()) return usage(argv[0]);

  try {
    set_default_jobs(jobs);
    service::ServiceOptions opts;
    opts.context.device = driver::device_by_name(device_name);
    opts.context.strategy = driver::strategy_by_name(strategy_name);
    opts.context.jobs = jobs;
    opts.context.store_root = store_path;
    opts.journal_dir = journal_dir;

    service::ArtemisService svc(opts);
    service::SocketServer server(svc, socket_path);
    std::printf("artemisd: listening on %s (device=%s, strategy=%s)\n",
                socket_path.c_str(), device_name.c_str(),
                strategy_name.c_str());
    std::fflush(stdout);
    server.serve();
    std::printf("artemisd: shutdown\n");
  } catch (const Error& e) {
    std::fprintf(stderr, "artemisd: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
