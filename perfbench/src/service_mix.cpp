// service_mix: an in-process ServiceServer with a 2-worker pool under a
// closed loop of four loopback connections.  The service's real clients
// (bcn_load, scripts, bcn_report) each wait for their reply, hence the
// closed loop.  Requests are Zipf-distributed verdicts over a gain grid
// four times the cache size, so hits, misses and evictions all happen,
// plus a small share of batch-mode stability maps from a handful of
// distinct grids.  This is the only workload where the service and the
// scalar hybrid integrator do most of the work.
#include <algorithm>
#include <atomic>
#include <functional>
#include <cstdio>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/report.h"
#include "analysis/sweep.h"
#include "exec/parallel_for.h"
#include "layer_trace.h"
#include "obs/tracing.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kConnections = 4;
constexpr int kPoolWorkers = 2;
constexpr std::size_t kCacheEntries = 1024;
constexpr int kAxis = 64;  // kAxis^2 = 4096 verdict keys, 4x the cache
constexpr double kZipfExponent = 1.0;
constexpr int kMapGrids = 6;
constexpr double kMapShare = 0.005;
constexpr int kWarmupPerConnection = 300;
constexpr int kSetupRepeats = 32;
constexpr double kWindowSeconds = 0.5;
constexpr double kK = 2e-8;
constexpr double kQ0 = 2.5e6;
constexpr double kBuffer = 5e6;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Request lines: the kAxis^2 verdict keys first, then the map grids.
struct RequestPool {
  std::vector<std::string> lines;
  std::vector<double> a;  // per verdict key
  std::vector<double> b;
  std::size_t verdicts = 0;
  ZipfPool zipf;
  std::uint64_t seed;

  explicit RequestPool(std::uint64_t s)
      : zipf(static_cast<std::size_t>(kAxis) * kAxis, kZipfExponent, s),
        seed(s) {
    const auto a_axis = bcn::analysis::logspace(1e8, 1e10, kAxis);
    const auto b_axis = bcn::analysis::logspace(1e-3, 1e-1, kAxis);
    char buf[256];
    for (const double av : a_axis) {
      for (const double bv : b_axis) {
        std::snprintf(buf, sizeof buf,
                      "{\"op\":\"verdict\",\"a\":%.9g,\"b\":%.9g}", av, bv);
        lines.emplace_back(buf);
        a.push_back(av);
        b.push_back(bv);
      }
    }
    verdicts = lines.size();
    Rng rng(s ^ 0x3a9ull);
    for (int m = 0; m < kMapGrids; ++m) {
      const double a_lo = 1e8 * (1.0 + 4.0 * rng.uniform());
      const double b_lo = 1e-3 * (1.0 + 4.0 * rng.uniform());
      std::snprintf(buf, sizeof buf,
                    "{\"op\":\"stability_map\",\"grid\":16,\"mode\":\"batch\","
                    "\"a_min\":%.6g,\"a_max\":%.6g,\"b_min\":%.6g,"
                    "\"b_max\":%.6g}",
                    a_lo, a_lo * 100.0, b_lo, b_lo * 100.0);
      lines.emplace_back(buf);
    }
  }

  // The i-th request of connection `conn`: a pure function of
  // (seed, conn, i), whatever the timing.
  std::size_t draw(Rng& rng) const {
    if (rng.uniform() < kMapShare) return verdicts + rng.below(kMapGrids);
    return zipf.draw(rng);
  }
  bool is_map(std::size_t key) const { return key >= verdicts; }
};

bcn::service::ServiceConfig service_config() {
  bcn::service::ServiceConfig cfg;
  cfg.threads = kPoolWorkers;
  cfg.cache_entries = kCacheEntries;
  return cfg;
}

// One server plus its connected clients.
struct Rig {
  std::unique_ptr<bcn::service::ServiceServer> server;
  std::vector<bcn::service::LineClient> clients;
  bool ok = false;
};

Rig start_rig() {
  Rig rig;
  rig.server = std::make_unique<bcn::service::ServiceServer>(service_config());
  if (!rig.server->start()) {
    std::fprintf(stderr, "service_mix: server start failed: %s\n",
                 rig.server->error().c_str());
    return rig;
  }
  rig.clients.resize(kConnections);
  for (auto& c : rig.clients) {
    if (!c.connect_to("127.0.0.1", rig.server->port())) {
      std::fprintf(stderr, "service_mix: connect failed: %s\n",
                   c.error().c_str());
      return rig;
    }
  }
  rig.ok = true;
  return rig;
}

// What one closed-loop phase observed.
struct LoopResult {
  Tally tally;
  // Latencies are kept as float and completions as per-window counts, so
  // the benchmark's own memory stays small next to the server's.
  std::vector<float> latency_ms;        // every timed request
  std::vector<double> cold_verdict_ms;  // first sight of a verdict key
  std::vector<double> window_count;     // completions per kWindowSeconds
  double elapsed_s = 0.0;
  // Body hash per key, 0 when the key was never answered.
  std::vector<std::uint64_t> body_hash;
};

// Per-key first-answer table shared by the client threads: the first
// answer fixes the hash and every later answer (cached or not) must
// match it byte for byte.
class AnswerBook {
 public:
  explicit AnswerBook(std::size_t keys) : hash_(keys, 0), seen_(keys) {}
  // True when this is the first time any client sends `key`.
  bool first_send(std::size_t key) { return !seen_[key].exchange(true); }
  bool record(std::size_t key, std::uint64_t h) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (hash_[key] == 0) {
      hash_[key] = h;
      return true;
    }
    return hash_[key] == h;
  }
  std::vector<std::uint64_t> hashes() const { return hash_; }

 private:
  std::mutex mutex_;
  std::vector<std::uint64_t> hash_;
  std::vector<std::atomic<bool>> seen_;
};

// Warm-up (untimed) and then `seconds` of closed-loop load over the rig's
// connections.  `at_start` runs once warm-up is over, just before timing
// starts (the traced pass turns span collection on there).
LoopResult run_loop(Rig& rig, const RequestPool& pool, double seconds,
                    const std::function<void()>& at_start = [] {}) {
  AnswerBook book(pool.lines.size());
  std::latch warmed(kConnections + 1);
  std::latch go(1);
  Clock::time_point start;
  std::atomic<bool> stop{false};
  const auto windows =
      static_cast<std::size_t>(seconds / kWindowSeconds) + 2;
  struct PerClient {
    Tally tally;
    std::vector<float> latency_ms;
    std::vector<double> cold_ms, window_count;
  };
  std::vector<PerClient> per(kConnections);
  for (auto& p : per) p.window_count.assign(windows, 0.0);

  const auto client_body = [&](int c) {
    auto& client = rig.clients[static_cast<std::size_t>(c)];
    PerClient& mine = per[static_cast<std::size_t>(c)];
    Rng rng(pool.seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(c));
    const auto one = [&](bool timed) {
      const std::size_t key = pool.draw(rng);
      const bool cold = book.first_send(key) && !pool.is_map(key);
      const auto t0 = Clock::now();
      const std::optional<std::string> reply = client.request(pool.lines[key]);
      const auto t1 = Clock::now();
      const bool ok = reply && reply->find("\"error\"") == std::string::npos &&
                      book.record(key, fnv1a(*reply));
      mine.tally.check(ok);
      if (timed) {
        const double ms = std::chrono::duration<double, std::milli>(t1 - t0)
                              .count();
        mine.latency_ms.push_back(static_cast<float>(ms));
        if (cold) mine.cold_ms.push_back(ms);
        const auto w = static_cast<std::size_t>(
            std::chrono::duration<double>(t1 - start).count() /
            kWindowSeconds);
        if (w < windows) mine.window_count[w] += 1.0;
      }
      return reply.has_value();
    };
    bool alive = true;
    for (int i = 0; i < kWarmupPerConnection && alive; ++i) alive = one(false);
    warmed.arrive_and_wait();
    go.wait();
    while (alive && !stop.load(std::memory_order_relaxed)) alive = one(true);
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) threads.emplace_back(client_body, c);
  warmed.arrive_and_wait();
  at_start();
  start = Clock::now();
  go.count_down();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : threads) t.join();

  LoopResult result;
  result.elapsed_s = seconds_since(start);
  result.window_count.assign(windows, 0.0);
  for (auto& p : per) {
    for (std::size_t w = 0; w < windows; ++w) {
      result.window_count[w] += p.window_count[w];
    }
    result.tally.add(p.tally);
    result.latency_ms.insert(result.latency_ms.end(), p.latency_ms.begin(),
                             p.latency_ms.end());
    result.cold_verdict_ms.insert(result.cold_verdict_ms.end(),
                                  p.cold_ms.begin(), p.cold_ms.end());
  }
  result.body_hash = book.hashes();
  return result;
}

// Requests per second in each whole window of the timed phase; the median
// over windows damps a stall in one of them.
std::vector<double> window_qps(const LoopResult& loop) {
  const auto whole = std::max<std::size_t>(
      static_cast<std::size_t>(loop.elapsed_s / kWindowSeconds), 1);
  std::vector<double> qps;
  for (std::size_t w = 0; w < whole && w < loop.window_count.size(); ++w) {
    qps.push_back(loop.window_count[w] / kWindowSeconds);
  }
  return qps;
}

// Latency percentile over the float samples.
double latency_percentile(const LoopResult& loop, double p) {
  return percentile(std::vector<double>(loop.latency_ms.begin(),
                                        loop.latency_ms.end()),
                    p);
}

// Every distinct answer the clients saw must equal service::execute
// called directly on the same line (the cold path, outside the server).
Tally oracle_check(const RequestPool& pool,
                   const std::vector<std::uint64_t>& hashes) {
  std::vector<std::size_t> keys;
  for (std::size_t k = 0; k < hashes.size(); ++k) {
    if (hashes[k] != 0) keys.push_back(k);
  }
  std::vector<char> ok(keys.size(), 0);
  bcn::exec::ParallelForOptions opts;
  opts.threads = host_threads();
  bcn::exec::parallel_for(
      keys.size(),
      [&](std::size_t i) {
        std::string error;
        const auto request =
            bcn::service::parse_request(pool.lines[keys[i]], &error);
        if (!request) return;
        const auto result =
            bcn::service::execute(*request, bcn::service::ServiceOptions{},
                                  nullptr);
        ok[i] = !result.error && fnv1a(result.body) == hashes[keys[i]];
      },
      opts);
  Tally tally;
  for (const char v : ok) tally.check(v != 0);
  return tally;
}

// Median set-up time: request pool, server start, client connections.
// The set-up is multi-threaded (the server starts its threads), so unlike
// the other workloads' set-ups it does not visit the CPUs in turn.
double timed_setup(std::uint64_t seed, std::unique_ptr<RequestPool>* pool,
                   Rig* rig) {
  std::vector<double> times;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    auto p = std::make_unique<RequestPool>(seed);
    Rig g = start_rig();
    times.push_back(seconds_since(t0));
    rig->clients.clear();
    if (rig->server) rig->server->stop();
    *pool = std::move(p);
    *rig = std::move(g);
  }
  return median(times);
}

}  // namespace

Measured measure_service_mix(const RunSpec& spec) {
  Measured m;
  std::unique_ptr<RequestPool> pool;
  Rig rig;
  m.setup_s = timed_setup(spec.seed, &pool, &rig);
  if (!rig.ok) {
    m.tally.check(false);
    return m;
  }
  // Which path the latencies measure: hits are answered by the reader
  // thread, misses wait for a batch on the pool.
  auto& cache = rig.server->cache();
  std::uint64_t h0 = 0, m0 = 0;
  LoopResult loop = run_loop(rig, *pool, spec.seconds, [&] {
    h0 = cache.hits();
    m0 = cache.misses();
  });
  const auto hits = static_cast<double>(cache.hits() - h0);
  const auto misses = static_cast<double>(cache.misses() - m0);
  rig.clients.clear();
  rig.server->stop();
  m.tally.add(loop.tally);
  m.tally.add(oracle_check(*pool, loop.body_hash));

  const std::size_t n = loop.latency_ms.size();
  const auto qps = window_qps(loop);
  m.work_per_s = median(qps);
  m.op_p50_ms = latency_percentile(loop, 50);
  const double p99 = latency_percentile(loop, 99);
  m.named.add("svc_qps", m.work_per_s, "req/s");
  m.named.add("svc_p50_ms", m.op_p50_ms, "ms");
  m.named.add("svc_p99_ms", percentile_supported(n, 99) ? p99 : -1.0, "ms");
  m.named.add("svc_latency_samples", static_cast<double>(n), "count");
  m.named.add("svc_qps_mean", static_cast<double>(n) / loop.elapsed_s,
              "req/s");
  m.named.add("svc_cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  return m;
}

Tally trace_service_mix(const RunSpec& spec, MetricSet& out) {
  Tally tally;
  const RequestPool pool(spec.seed);
  const double slice = spec.seconds / 2.0;

  // Untraced reference slice.
  double untraced_p50 = 0.0;
  std::vector<double> cold_ms;
  {
    Rig rig = start_rig();
    if (!rig.ok) {
      tally.check(false);
      return tally;
    }
    LoopResult loop = run_loop(rig, pool, slice);
    rig.clients.clear();
    rig.server->stop();
    tally.add(loop.tally);
    untraced_p50 = latency_percentile(loop, 50);
    cold_ms = loop.cold_verdict_ms;
  }

  // Traced slice: same load with span collection on after warm-up.
  reset_spans();
  Rig rig = start_rig();
  if (!rig.ok) {
    tally.check(false);
    return tally;
  }
  auto& cache = rig.server->cache();
  const auto* batches =
      rig.server->metrics().find_counter("service.batches");
  const auto batch_total = [batches] {
    return batches ? batches->value() : std::uint64_t{0};
  };
  // Counter deltas cover the timed phase only, not warm-up.
  std::uint64_t h0 = 0, m0 = 0, e0 = 0, b0 = 0;
  LoopResult loop = run_loop(rig, pool, slice, [&] {
    h0 = cache.hits();
    m0 = cache.misses();
    e0 = cache.evictions();
    b0 = batch_total();
    bcn::obs::tracing_enable();
  });
  const std::uint64_t hits = cache.hits() - h0;
  const std::uint64_t misses = cache.misses() - m0;
  const std::uint64_t evictions = cache.evictions() - e0;
  const std::uint64_t batch_count = batch_total() - b0;
  // Ping round trips: transport plus the reader path, nothing cached.
  std::vector<double> ping_us;
  for (int i = 0; i < 1000; ++i) {
    const auto t0 = Clock::now();
    const auto reply = rig.clients[0].request("{\"op\":\"ping\"}");
    ping_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    tally.check(reply.has_value());
  }
  rig.clients.clear();
  rig.server->stop();
  const SpanProfile prof = profile_spans(collect_spans());
  tally.add(loop.tally);
  tally.add(oracle_check(pool, loop.body_hash));

  // Direct probes, untraced: parse + key, cold execute, report render.
  std::vector<std::size_t> sample;
  {
    Rng rng(spec.seed ^ 0x5a3ull);
    for (int i = 0; i < 40; ++i) sample.push_back(rng.below(pool.verdicts));
  }
  std::size_t parses = 0;
  const auto p0 = Clock::now();
  while (parses < 20000) {
    for (const auto& line : pool.lines) {
      std::string error;
      const auto req = bcn::service::parse_request(line, &error);
      if (req) bcn::service::cache_key(*req);
      ++parses;
    }
  }
  const double parse_us = seconds_since(p0) * 1e6 / static_cast<double>(parses);

  const auto exec_ms = [&](std::size_t key) {
    std::string error;
    const auto req = bcn::service::parse_request(pool.lines[key], &error);
    const auto t0 = Clock::now();
    const auto result =
        bcn::service::execute(*req, bcn::service::ServiceOptions{}, nullptr);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    tally.check(!result.error);
    return ms;
  };
  std::vector<double> verdict_ms, map_ms, report_ms;
  for (const std::size_t key : sample) verdict_ms.push_back(exec_ms(key));
  for (int m = 0; m < kMapGrids; ++m) {
    map_ms.push_back(exec_ms(pool.verdicts + static_cast<std::size_t>(m)));
  }
  for (const std::size_t key : sample) {
    bcn::analysis::VerdictRequest request;
    request.params = bcn::service::canonical_plant(pool.a[key], pool.b[key],
                                                   kK, kQ0, kBuffer);
    const auto t0 = Clock::now();
    const auto report = bcn::analysis::render_verdict_report(request);
    report_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    tally.check(!report.text.empty());
  }
  // The same cold verdicts traced: how much of one is the ODE layer, and
  // how much any of the program's spans account for.  The requests of
  // the load run on the server's threads, which the client's spans cannot
  // see, so the service's coverage is read here, on the cold path that
  // runs on the calling thread.
  reset_spans();
  bcn::obs::tracing_enable();
  for (const std::size_t key : sample) {
    bcn::obs::TraceSpan span("bench.service.execute");
    exec_ms(key);
  }
  const SpanProfile cold = profile_spans(collect_spans());
  const double cold_total = cold.dur_s("bench.service.execute");
  const double ode_share =
      cold_total > 0.0 ? cold.layer_self("ode") / cold_total : 0.0;

  const double execute_verdict_ms = median(verdict_ms);
  const double lookups = static_cast<double>(hits + misses);
  out.add("service.parse_us", parse_us, "us");
  out.add("service.cache_hit_ratio",
          lookups > 0 ? static_cast<double>(hits) / lookups : 0.0, "ratio");
  out.add("service.cache_evictions", static_cast<double>(evictions), "count");
  out.add("service.batch_size_mean",
          batch_count > 0 ? static_cast<double>(misses) / batch_count : 0.0,
          "count");
  out.add("service.execute_verdict_ms", execute_verdict_ms, "ms");
  out.add("service.execute_map_ms", median(map_ms), "ms");
  out.add("service.ping_rtt_us", median(ping_us), "us");
  // Derived, not measured: untraced cold client latency minus the direct
  // execute time of a cold verdict.
  out.add("service.wait_ms_derived", median(cold_ms) - execute_verdict_ms,
          "ms");
  out.add("analysis.verdict_ms", median(report_ms), "ms");
  out.add("ode.self_s", prof.layer_self("ode"), "s");
  out.add("ode.hybrid_segments",
          misses > 0 ? static_cast<double>(
                           prof.calls_of("ode.hybrid_segment")) /
                           static_cast<double>(misses)
                     : 0.0,
          "count");
  out.add("ode.cold_verdict_share", ode_share, "ratio");
  out.add("obs.coverage.service_mix", cold.coverage, "ratio");
  out.add("obs.trace_overhead.service_mix",
          latency_percentile(loop, 50) / untraced_p50 - 1.0, "ratio");
  return tally;
}

}  // namespace perfbench
