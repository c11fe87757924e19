// bcn_serve: the stability-verdict service — the phase-plane analysis
// engine as a long-running TCP server (protocol: docs/SERVICE.md).
//
//   bcn_serve [--port 0] [--threads 0] [--cache-entries 4096]
//             [--cache-shards 8] [--monitors spec]
//
// Binds 127.0.0.1:<port> (0 = ephemeral), prints "listening on port N"
// once ready, and serves until SIGINT/SIGTERM or a client's shutdown
// op.  Every verdict is byte-identical to the matching bcn_analyze
// output, cold or cached (scripts/check.sh gate 10 enforces this).
//
// Exit codes: 0 ok, 1 startup failure (bind/listen), 2 usage error.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/args.h"
#include "obs/monitor.h"
#include "service/server.h"

using namespace bcn;

namespace {

void usage() {
  std::puts(
      "usage: bcn_serve [--port n] [--threads n] [--cache-entries n]\n"
      "                 [--cache-shards n] [--monitors spec] [--help]\n"
      "  --port n          TCP port on 127.0.0.1 (default 0 = ephemeral;\n"
      "                    the chosen port is printed on startup)\n"
      "  --threads n       cache misses computed at once (default 0 = all\n"
      "                    hardware threads); each miss runs serially on\n"
      "                    its connection's thread, so parallelism comes\n"
      "                    from concurrent connections\n"
      "  --cache-entries n verdict-cache capacity across all shards\n"
      "                    (default 4096)\n"
      "  --cache-shards n  verdict-cache lock shards (default 8)\n"
      "  --monitors spec   arm runtime monitors (obs/monitor.h); with\n"
      "                    `finite` armed, verdicts built on a non-finite\n"
      "                    integration become monitor errors");
}

// ArgParser::get_int silently falls back on garbage; malformed counts
// must fail loudly with the usage exit code.
bool parse_count(const std::string& text, long long max, long long* out) {
  if (text.empty() || text.size() > 9) return false;
  long long value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  if (value > max) return false;
  *out = value;
  return true;
}

bool flag_count(const ArgParser& args, const char* name, long long max,
                long long* out) {
  const auto text = args.get(name);
  if (!text) return true;
  if (!parse_count(*text, max, out)) {
    std::fprintf(stderr,
                 "--%s: bad value '%s' (expected a non-negative integer "
                 "<= %lld)\n",
                 name, text->c_str(), max);
    return false;
  }
  return true;
}

volatile std::sig_atomic_t g_signal = 0;
void on_signal(int) { g_signal = 1; }

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (args.get_bool("help")) {
    usage();
    return 0;
  }
  if (!reject_unknown_flags(args, {"help", "port", "threads", "cache-entries",
                                   "cache-shards", "monitors"})) {
    usage();
    return 2;
  }

  long long port = 0, threads = 0, cache_entries = 4096, cache_shards = 8;
  if (!flag_count(args, "port", 65535, &port) ||
      !flag_count(args, "threads", 4096, &threads) ||
      !flag_count(args, "cache-entries", 100'000'000, &cache_entries) ||
      !flag_count(args, "cache-shards", 4096, &cache_shards)) {
    return 2;
  }
  if (cache_entries == 0 || cache_shards == 0) {
    std::fprintf(stderr, "--cache-entries/--cache-shards must be positive\n");
    return 2;
  }

  service::ServiceConfig config;
  config.port = static_cast<int>(port);
  config.threads = static_cast<int>(threads);
  config.cache_entries = static_cast<std::size_t>(cache_entries);
  config.cache_shards = static_cast<std::size_t>(cache_shards);
  if (const auto spec = args.get("monitors")) {
    std::string error;
    const auto parsed = obs::parse_monitor_spec(*spec, &error);
    if (!parsed) {
      std::fprintf(stderr, "--monitors: %s\n%s\n", error.c_str(),
                   obs::monitor_spec_usage());
      return 2;
    }
    config.monitors = *parsed;
  }

  service::ServiceServer server(config);
  if (!server.start()) {
    std::fprintf(stderr, "bcn_serve: %s\n", server.error().c_str());
    return 1;
  }
  std::printf("listening on port %d\n", server.port());
  std::fflush(stdout);

  // A signal handler cannot safely notify a condition variable, so the
  // wait interleaves short condition waits with a signal-flag poll.
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_signal == 0 && !server.wait_for_shutdown(0.05)) {
  }
  server.stop();
  std::printf("shutdown: %llu requests, %llu cache hits, %llu misses\n",
              static_cast<unsigned long long>(
                  server.metrics().find_counter("service.requests")->value()),
              static_cast<unsigned long long>(
                  server.metrics().find_counter("service.cache.hits")->value()),
              static_cast<unsigned long long>(
                  server.metrics()
                      .find_counter("service.cache.misses")
                      ->value()));
  return 0;
}
