// End-to-end tests of the stability-verdict TCP server: protocol
// round-trips, FIFO ordering, cache-counter accuracy, the determinism
// contract (cached == cold, byte for byte) under concurrent clients,
// misses running side by side, single-flight execution and the
// request-line limit.  The whole suite runs under TSan in
// scripts/check.sh gate 1, and repeatedly at ctest -j8 in gate 11.
#include "service/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "service/client.h"

namespace bcn::service {
namespace {

// A scalar 40x40 map: hundreds of milliseconds of one slot's time,
// where a cold default verdict takes about one.
constexpr const char* kSlowMap =
    "{\"op\":\"stability_map\",\"mode\":\"scalar\",\"grid\":40}";

class ServerTest : public ::testing::Test {
 protected:
  void start(ServiceConfig config = {}, int threads = 2) {
    config.threads = threads;
    server_ = std::make_unique<ServiceServer>(config);
    ASSERT_TRUE(server_->start()) << server_->error();
    ASSERT_GT(server_->port(), 0);
  }

  LineClient connect() {
    LineClient client;
    EXPECT_TRUE(client.connect_to("127.0.0.1", server_->port()))
        << client.error();
    return client;
  }

  std::uint64_t counter(const std::string& name) {
    const auto* c = server_->metrics().find_counter(name);
    return c ? c->value() : 0;
  }

  // Polls until `name` reaches `value`; false after ten seconds.
  bool await_counter(const std::string& name, std::uint64_t value) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (counter(name) < value) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  std::unique_ptr<ServiceServer> server_;
};

TEST_F(ServerTest, PingVerdictAndErrorRoundTrip) {
  start();
  LineClient client = connect();
  EXPECT_EQ(client.request("{\"op\":\"ping\",\"id\":1}").value(),
            "{\"id\":1,\"op\":\"ping\",\"ok\":true}");

  const auto verdict = client.request("{\"op\":\"verdict\",\"id\":2}");
  ASSERT_TRUE(verdict);
  const auto body = FlatJson::parse(*verdict);
  ASSERT_TRUE(body);
  EXPECT_EQ(body->number("id").value(), 2.0);
  EXPECT_EQ(body->string_value("op").value(), "verdict");
  EXPECT_TRUE(body->string_value("text").has_value());

  const auto error = client.request("{\"op\":\"verdict\",\"a\":\"x\"}");
  ASSERT_TRUE(error);
  EXPECT_NE(error->find("\"error\":\"bad_request\""), std::string::npos);
  server_->stop();
}

TEST_F(ServerTest, PipelinedRequestsAnswerInFifoOrder) {
  start();
  LineClient client = connect();
  // Queue a slow analytic request, a cacheable repeat, and two cheap
  // ops before reading anything; responses must come back 1,2,3,4.
  ASSERT_TRUE(client.send_line("{\"op\":\"verdict\",\"id\":1}"));
  ASSERT_TRUE(client.send_line("{\"op\":\"verdict\",\"id\":2}"));
  ASSERT_TRUE(client.send_line("{\"op\":\"ping\",\"id\":3}"));
  ASSERT_TRUE(client.send_line("{\"op\":\"verdict\",\"id\":4,\"a\":4e8}"));
  for (int expected = 1; expected <= 4; ++expected) {
    const auto response = client.read_line();
    ASSERT_TRUE(response);
    const auto body = FlatJson::parse(*response);
    ASSERT_TRUE(body) << *response;
    EXPECT_EQ(body->number("id").value(), expected);
  }
  server_->stop();
}

TEST_F(ServerTest, CacheCountersTrackLookupsExactly) {
  ServiceConfig config;
  config.cache_entries = 2;
  config.cache_shards = 1;
  start(config);
  LineClient client = connect();
  // Distinct verdicts: a=4e8, a=5e8, a=6e8 with capacity 2 -> the third
  // insert evicts a=4e8; repeating it is a miss again.
  const char* first = "{\"op\":\"verdict\",\"a\":4e8}";
  ASSERT_TRUE(client.request(first));
  ASSERT_TRUE(client.request(first));  // hit
  ASSERT_TRUE(client.request("{\"op\":\"verdict\",\"a\":5e8}"));
  ASSERT_TRUE(client.request("{\"op\":\"verdict\",\"a\":6e8}"));  // evicts
  ASSERT_TRUE(client.request(first));  // miss: was evicted
  EXPECT_EQ(counter("service.cache.hits"), 1u);
  EXPECT_EQ(counter("service.cache.misses"), 4u);
  EXPECT_EQ(counter("service.cache.evictions"), 2u);
  EXPECT_EQ(counter("service.requests"), 5u);

  // The stats op reports the same registry.
  const auto stats = client.request("{\"op\":\"stats\"}");
  ASSERT_TRUE(stats);
  const auto body = FlatJson::parse(*stats);
  ASSERT_TRUE(body);
  EXPECT_EQ(body->number("service.cache.hits").value(), 1.0);
  EXPECT_EQ(body->number("service.cache.misses").value(), 4.0);
  server_->stop();
}

TEST_F(ServerTest, CachedEqualsColdByteForByteUnderConcurrentClients) {
  start();
  // Phase 1 (cold): one client warms each distinct request once.
  std::vector<std::string> pool;
  for (int i = 0; i < 6; ++i) {
    JsonWriter json;
    json.add("op", "verdict");
    json.add("a", 8e8 + 2e8 * i);
    pool.push_back(json.to_line());
  }
  std::map<std::string, std::string> cold;
  {
    LineClient client = connect();
    for (const auto& line : pool) {
      const auto response = client.request(line);
      ASSERT_TRUE(response);
      cold[line] = *response;
    }
  }
  EXPECT_EQ(counter("service.cache.misses"), pool.size());

  // Phase 2 (cached): concurrent clients replay the pool; every
  // response must equal its cold counterpart byte for byte.
  constexpr int kClients = 4;
  constexpr int kPasses = 5;
  std::mutex mismatch_mutex;
  std::vector<std::string> mismatches;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LineClient client;
      if (!client.connect_to("127.0.0.1", server_->port())) return;
      for (int pass = 0; pass < kPasses; ++pass) {
        for (std::size_t i = 0; i < pool.size(); ++i) {
          const auto& line = pool[(i + static_cast<std::size_t>(c)) %
                                  pool.size()];
          const auto response = client.request(line);
          if (!response || *response != cold[line]) {
            std::lock_guard<std::mutex> lock(mismatch_mutex);
            mismatches.push_back(line);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " responses diverged from cold";
  // Every phase-2 lookup was a hit: the pool was fully warmed first.
  EXPECT_EQ(counter("service.cache.hits"),
            static_cast<std::uint64_t>(kClients * kPasses) * pool.size());
  EXPECT_EQ(counter("service.cache.misses"), pool.size());
  server_->stop();
}

TEST_F(ServerTest, VerdictMissIsNotHeldBehindASlowMap) {
  start();  // two execution slots
  LineClient slow = connect();
  LineClient fast = connect();
  // Each reply records its arrival rank; the verdict must not wait for
  // the map that started before it while a slot sits idle.
  ASSERT_TRUE(slow.send_line(kSlowMap));
  ASSERT_TRUE(await_counter("service.cache.misses", 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::atomic<int> rank{0};
  int map_rank = -1;
  std::thread map_reader([&] {
    if (slow.read_line()) map_rank = rank.fetch_add(1);
  });
  const auto verdict = fast.request("{\"op\":\"verdict\"}");
  const int verdict_rank = rank.fetch_add(1);
  map_reader.join();
  ASSERT_TRUE(verdict);
  EXPECT_NE(verdict->find("\"op\":\"verdict\""), std::string::npos);
  EXPECT_EQ(verdict_rank, 0);
  EXPECT_EQ(map_rank, 1);
  server_->stop();
}

TEST_F(ServerTest, ConcurrentIdenticalMissesExecuteOnce) {
  start({}, /*threads=*/1);
  // Occupy the only slot, so the verdict below cannot finish before
  // every copy of it has missed the cache.
  LineClient slow = connect();
  ASSERT_TRUE(slow.send_line(kSlowMap));
  ASSERT_TRUE(await_counter("service.cache.misses", 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  constexpr int kCopies = 4;
  const char* cold = "{\"op\":\"verdict\",\"a\":3e9}";
  std::vector<LineClient> clients;
  for (int c = 0; c < kCopies; ++c) {
    clients.push_back(connect());
    ASSERT_TRUE(clients.back().send_line(cold));
  }
  ASSERT_TRUE(await_counter("service.cache.misses", 1 + kCopies));
  std::vector<std::string> bodies;
  for (auto& client : clients) {
    const auto response = client.read_line();
    ASSERT_TRUE(response);
    bodies.push_back(*response);
  }
  ASSERT_TRUE(slow.read_line());
  for (const auto& body : bodies) EXPECT_EQ(body, bodies.front());
  EXPECT_NE(bodies.front().find("\"op\":\"verdict\""), std::string::npos);
  // One execution for the map and one for all copies of the verdict.
  EXPECT_EQ(counter("service.executions"), 2u);
  EXPECT_EQ(counter("service.cache.misses"), 1u + kCopies);
  server_->stop();
}

TEST_F(ServerTest, OverlongRequestLineIsRefusedAndClosed) {
  start();
  LineClient client = connect();
  // The terminator lies more than one read chunk past the 1 MiB limit,
  // so the server sees an unterminated line over the limit.
  ASSERT_TRUE(client.send_line(std::string((std::size_t{1} << 20) + 8192,
                                           'x')));
  const auto response = client.read_line();
  ASSERT_TRUE(response);
  EXPECT_NE(response->find("\"error\":\"parse\""), std::string::npos);
  EXPECT_NE(response->find("request line too long"), std::string::npos);
  EXPECT_FALSE(client.read_line());  // the server closed the connection
  EXPECT_EQ(counter("service.errors"), 1u);
  server_->stop();
}

TEST_F(ServerTest, ShutdownOpUnblocksWaitAndStopIsIdempotent) {
  start();
  LineClient client = connect();
  EXPECT_FALSE(server_->shutdown_requested());
  const auto response = client.request("{\"op\":\"shutdown\",\"id\":1}");
  ASSERT_TRUE(response);
  EXPECT_NE(response->find("\"ok\":true"), std::string::npos);
  EXPECT_TRUE(server_->wait_for_shutdown(5.0));
  server_->stop();
  server_->stop();  // idempotent
  LineClient refused;
  EXPECT_FALSE(refused.connect_to("127.0.0.1", server_->port()));
}

TEST_F(ServerTest, DestructorStopsARunningServer) {
  start();
  LineClient client = connect();
  ASSERT_TRUE(client.request("{\"op\":\"verdict\"}"));
  server_.reset();  // ~ServiceServer must tear down cleanly mid-connection
}

}  // namespace
}  // namespace bcn::service
