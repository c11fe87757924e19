#include "sim/shard/engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "exec/thread_pool.h"
#include "sim/shard/fabric.h"

namespace bcn::sim::shard {
namespace {

// Same FNV-1a as the PR 4 trajectory digest (tests/sim/determinism_test).
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
  }
  return h;
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return mix_u64(h, bits);
}

// Sense-reversing epoch barrier.  Its acquire/release pair publishes
// every outbox and earliest-epoch slot written before the barrier to
// every shard after it; yield keeps the protocol usable when shards
// outnumber cores.
class EpochBarrier {
 public:
  explicit EpochBarrier(int parties) : parties_(parties) {}

  void arrive_and_wait(bool* sense) {
    const bool my = !*sense;
    *sense = my;
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      count_.store(0, std::memory_order_relaxed);
      sense_.store(my, std::memory_order_release);
    } else {
      while (sense_.load(std::memory_order_acquire) != my) {
        std::this_thread::yield();
      }
    }
  }

 private:
  const int parties_;
  std::atomic<int> count_{0};
  std::atomic<bool> sense_{false};
};

// A sorted epoch bucket as Simulator::run_until's stream of external
// events (event_queue.h): each record is dispatched straight from the
// bucket to its destination entity, never through the heap.
struct BucketStream {
  const TransferRecord* next;
  const TransferRecord* end;
  EventTarget* const* targets;  // by gid

  bool done() const { return next == end; }
  SimTime when() const { return next->deliver_at; }
  EventTarget* take(SimEvent& event) {
    const TransferRecord& record = *next++;
    event.kind = record.kind;
    event.payload = record.payload;
    return targets[record.dst_gid];
  }
};

class Shard;

struct Shared {
  const Topology* topo = nullptr;
  const FabricOptions* options = nullptr;
  SimTime quantum = 1;
  std::uint64_t total_epochs = 0;
  std::uint64_t sample_every_epochs = 1;
  std::uint64_t total_samples = 0;
  std::uint32_t source_gid_base = 0;  // ports are [0, base), sources after
  std::vector<std::uint32_t> shard_of_gid;
  std::vector<EventTarget*> targets;  // by gid; read-only while running
  std::vector<Shard*> shards;         // by index
  std::unique_ptr<EpochBarrier> barrier;
};

class Shard final : public TransferSink {
 public:
  Simulator sim;
  int index = 0;
  Shared* shared = nullptr;
  std::vector<FabricPort> ports;       // local, in gid order
  std::vector<FabricSource> sources;   // local, in flow-id order
  std::vector<std::uint32_t> port_gids;
  std::vector<std::uint32_t> flow_ids;
  std::vector<std::vector<TransferRecord>> buckets;  // epoch ring
  std::vector<std::uint64_t> bucket_epoch;  // absolute epoch per ring slot
  std::size_t ring = 1;
  // Cross-shard records staged in the current step, by step parity and
  // destination shard; the destination collects them at the top of the
  // next step.  Steps, not epoch numbers, pick the parity: two executed
  // epochs in a row can share one when the epochs between are skipped.
  std::array<std::vector<std::vector<TransferRecord>>, 2> outbox;
  SimTime outbox_earliest = 0;  // min deliver_at sent to an outbox this step
  // This shard's earliest pending epoch after each step, by step parity;
  // peers read it after the barrier that ends the step.
  std::array<std::uint64_t, 2> earliest{};
  std::uint64_t step = 0;  // epochs executed so far
  bool sense = false;
  std::uint64_t staged = 0;
  std::uint64_t cross = 0;
  obs::RunMonitor monitor;
  FabricPort* trace_port = nullptr;    // set on the owning shard only
  std::vector<double> queue_partial;   // per sample: sum of local ports
  std::vector<double> trace_partial;   // per sample: trace-port occupancy

  void stage(const TransferRecord& record) override {
    ++staged;
    const std::uint32_t dst = shared->shard_of_gid[record.dst_gid];
    if (static_cast<int>(dst) == index) {
      bucket_of(record.deliver_at).push_back(record);
      return;
    }
    ++cross;
    outbox_earliest = std::min(outbox_earliest, record.deliver_at);
    outbox[step & 1][dst].push_back(record);
  }

  std::vector<TransferRecord>& bucket_of(SimTime deliver_at) {
    const auto epoch =
        static_cast<std::uint64_t>(deliver_at / shared->quantum);
    const auto slot = static_cast<std::size_t>(epoch % ring);
    // The ring is deeper than the longest delivery horizon, so every
    // record landing in a slot shares one absolute epoch.
    bucket_epoch[slot] = epoch;
    return buckets[slot];
  }

  // Takes every peer's records staged for this shard in the previous
  // step.  Race-free without atomics: peers write the other parity during
  // this step and cannot write this one again before the barrier that
  // ends it, which this shard reaches only after collecting.
  void collect() {
    for (Shard* peer : shared->shards) {
      std::vector<TransferRecord>& box = peer->outbox[(step - 1) & 1][index];
      for (const TransferRecord& record : box) {
        bucket_of(record.deliver_at).push_back(record);
      }
      box.clear();
    }
  }

  void sample(std::uint64_t sample_index, SimTime t) {
    double sum = 0.0;
    for (const FabricPort& port : ports) sum += port.queue_bits();
    queue_partial[sample_index] = sum;
    if (trace_port) trace_partial[sample_index] = trace_port->queue_bits();
    if (monitor.armed()) {
      obs::MonitorSample s;
      s.t = to_seconds(t);
      s.queue_bits = sum;
      double rate = 0.0;
      for (const FabricSource& src : sources) {
        rate += src.rate();
        s.frames_sent += src.frames_sent();
      }
      s.aggregate_rate = rate;
      for (const FabricPort& port : ports) {
        const FabricPortCounters& c = port.counters();
        s.frames_enqueued += c.arrivals - c.drops;
        s.frames_dropped += c.drops;
        s.frames_delivered += c.delivered_frames;
        s.bits_delivered += c.delivered_bits;
      }
      monitor.on_sample(s);
    }
  }

  // Runs epoch e with its bucket sorted by the shard-invariant key
  // (deliver_at, src_gid, src_seq) as the Simulator's staged stream, so
  // the merge reproduces one global order on every shard count.  Records
  // staged meanwhile deliver in later epochs, hence other ring slots.
  void run_epoch(std::uint64_t e) {
    const SimTime q = shared->quantum;
    std::vector<TransferRecord>& bucket = buckets[e % ring];
    std::sort(bucket.begin(), bucket.end(), transfer_before);
    BucketStream stream{bucket.data(), bucket.data() + bucket.size(),
                        shared->targets.data()};
    sim.run_until(static_cast<SimTime>(e + 1) * q - 1, stream);
    bucket.clear();
    if ((e + 1) % shared->sample_every_epochs == 0) {
      const std::uint64_t s = (e + 1) / shared->sample_every_epochs - 1;
      if (s < shared->total_samples) {
        sample(s, static_cast<SimTime>(e + 1) * q);
      }
    }
  }

  // The one epoch loop, for every shard count (engine.h): each step runs
  // an epoch, publishes this shard's earliest pending epoch, and jumps
  // past the barrier to the minimum over every shard's slot.
  void run() {
    const auto q = static_cast<std::uint64_t>(shared->quantum);
    const std::uint64_t se = shared->sample_every_epochs;
    for (std::uint64_t e = 0; e < shared->total_epochs; ++step) {
      collect();  // nothing to take at step 0
      outbox_earliest = std::numeric_limits<SimTime>::max();
      run_epoch(e);
      std::uint64_t next = ((e + 1) / se + 1) * se - 1;  // sample boundary
      if (!sim.idle()) {
        next = std::min(
            next, static_cast<std::uint64_t>(sim.next_event_time()) / q);
      }
      for (std::size_t i = 0; i < ring; ++i) {
        if (!buckets[i].empty()) next = std::min(next, bucket_epoch[i]);
      }
      next = std::min(next, static_cast<std::uint64_t>(outbox_earliest) / q);
      earliest[step & 1] = next;
      shared->barrier->arrive_and_wait(&sense);
      for (const Shard* peer : shared->shards) {
        next = std::min(next, peer->earliest[step & 1]);
      }
      e = std::max(e + 1, next);
    }
  }
};

}  // namespace

FabricResult run_fabric(const Topology& topo, const FabricOptions& options,
                        int shard_count) {
  const int S = std::max(1, shard_count);
  const auto P = static_cast<std::uint32_t>(topo.ports.size());
  const auto F = static_cast<std::uint32_t>(topo.flows.size());

  Shared shared;
  shared.topo = &topo;
  shared.options = &options;
  shared.quantum = std::max<SimTime>(1, topo.link_delay);
  shared.total_epochs = static_cast<std::uint64_t>(
      (options.duration + shared.quantum - 1) / shared.quantum);
  shared.sample_every_epochs = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(options.sample_interval / shared.quantum));
  shared.total_samples = shared.total_epochs / shared.sample_every_epochs;
  shared.source_gid_base = P;

  const Partition part = partition_topology(topo, S);
  shared.shard_of_gid.resize(P + F);
  for (std::uint32_t p = 0; p < P; ++p) {
    shared.shard_of_gid[p] = part.shard_of_port[p];
  }
  for (std::uint32_t f = 0; f < F; ++f) {
    shared.shard_of_gid[P + f] = part.shard_of_flow[f];
  }
  shared.targets.assign(P + F, nullptr);
  shared.barrier = std::make_unique<EpochBarrier>(S);

  const std::uint64_t sample_every_arrivals = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(1.0 / options.pm)));
  const std::uint32_t trace_gid = std::min(options.trace_port, P - 1);

  // --- build shards (single-threaded) ------------------------------------
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    shards.push_back(std::make_unique<Shard>());
    Shard& shard = *shards.back();
    shared.shards.push_back(&shard);
    shard.index = s;
    shard.shared = &shared;
    shard.ring = topo.max_route_length() + 3;
    shard.buckets.resize(shard.ring);
    shard.bucket_epoch.assign(shard.ring, 0);
    for (auto& boxes : shard.outbox) boxes.resize(static_cast<std::size_t>(S));
    shard.queue_partial.assign(shared.total_samples, 0.0);
    for (std::uint32_t p = 0; p < P; ++p) {
      if (shared.shard_of_gid[p] == static_cast<std::uint32_t>(s)) {
        shard.port_gids.push_back(p);
      }
    }
    for (std::uint32_t f = 0; f < F; ++f) {
      if (shared.shard_of_gid[P + f] == static_cast<std::uint32_t>(s)) {
        shard.flow_ids.push_back(f);
      }
    }
    // Exact sizing before init: entity pointers enter the target table.
    shard.ports.resize(shard.port_gids.size());
    shard.sources.resize(shard.flow_ids.size());

    obs::RunMonitor* monitor = nullptr;
    if (options.monitors.any()) {
      obs::MonitorConfig mc;
      mc.spec = options.monitors;
      mc.action = obs::ViolationAction::Record;
      // The watchdog watches shard-local delivery; a shard owning no
      // terminal (last-hop) port never delivers, so arming it there
      // would trip on sound runs.
      bool owns_terminal = false;
      for (std::uint32_t f = 0; f < F && !owns_terminal; ++f) {
        const std::uint32_t last = topo.route(f)[topo.route_length(f) - 1];
        owns_terminal = shared.shard_of_gid[last] ==
                        static_cast<std::uint32_t>(s);
      }
      if (!owns_terminal) mc.spec.watchdog = false;
      shard.monitor.configure(mc);
      // The bound serves both the per-frame check (one port) and the
      // per-sample check (the shard's aggregate occupancy), so it is the
      // sum of local buffers: the only bound that is valid for the
      // aggregate.  Per-port overflow is enforced by drop-tail anyway;
      // this monitor exists to catch runaway accounting.
      double buffer_sum = 0.0;
      for (const std::uint32_t p : shard.port_gids) {
        buffer_sum += topo.ports[p].buffer_bits;
      }
      shard.monitor.set_queue_bound(buffer_sum);
      shard.monitor.set_rate_bound(
          static_cast<double>(shard.flow_ids.size()) *
          options.regulator.max_rate);
      monitor = &shard.monitor;
    }

    for (std::size_t i = 0; i < shard.port_gids.size(); ++i) {
      const std::uint32_t gid = shard.port_gids[i];
      shard.ports[i].init(&shard.sim, &shard, &topo, gid, P, options.q0,
                          options.w, sample_every_arrivals, monitor);
      shared.targets[gid] = &shard.ports[i];
      if (gid == trace_gid) {
        shard.trace_port = &shard.ports[i];
        shard.trace_partial.assign(shared.total_samples, 0.0);
      }
    }
    for (std::size_t i = 0; i < shard.flow_ids.size(); ++i) {
      const std::uint32_t f = shard.flow_ids[i];
      shard.sources[i].init(&shard.sim, &shard, &topo, f, P + f,
                            options.regulator, options.initial_rate);
      shared.targets[P + f] = &shard.sources[i];
      shard.sources[i].start();
    }
  }

  // --- run ----------------------------------------------------------------
  // Only the epoch loop is timed: partition, shard build and pool start
  // are setup, not simulation.
  std::chrono::steady_clock::time_point start;
  if (S == 1) {
    start = std::chrono::steady_clock::now();
    shards[0]->run();
  } else {
    exec::ThreadPool pool(S, /*pin_to_core=*/true);
    start = std::chrono::steady_clock::now();
    for (int s = 0; s < S; ++s) {
      Shard* shard = shards[static_cast<std::size_t>(s)].get();
      pool.submit([shard] { shard->run(); });
    }
    pool.wait_idle();
  }
  const double run_seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();

  // --- deterministic merge (single-threaded, gid order) -------------------
  FabricResult result;
  result.shards = S;
  result.epochs = shared.total_epochs;
  result.executed_epochs = shards[0]->step;
  result.run_seconds = run_seconds;

  std::vector<const FabricPort*> port_by_gid(P, nullptr);
  std::vector<const FabricSource*> source_by_flow(F, nullptr);
  for (const auto& shard : shards) {
    result.events_executed += shard->sim.executed();
    result.staged_records += shard->staged;
    result.cross_shard_records += shard->cross;
    for (std::size_t i = 0; i < shard->port_gids.size(); ++i) {
      port_by_gid[shard->port_gids[i]] = &shard->ports[i];
    }
    for (std::size_t i = 0; i < shard->flow_ids.size(); ++i) {
      source_by_flow[shard->flow_ids[i]] = &shard->sources[i];
    }
  }

  std::uint64_t h = kFnvOffset;
  h = mix_u64(h, shared.total_epochs);
  for (std::uint32_t p = 0; p < P; ++p) {
    const FabricPortCounters& c = port_by_gid[p]->counters();
    result.frames_dropped += c.drops;
    result.frames_delivered += c.delivered_frames;
    result.frames_forwarded += c.forwarded;
    result.frames_sampled += c.samples;
    result.bcn_sent += c.bcn_sent;
    result.bits_delivered += c.delivered_bits;
    h = mix_u64(h, c.arrivals);
    h = mix_u64(h, c.drops);
    h = mix_u64(h, c.samples);
    h = mix_u64(h, c.bcn_sent);
    h = mix_u64(h, c.forwarded);
    h = mix_u64(h, c.delivered_frames);
    h = mix_double(h, c.delivered_bits);
    h = mix_double(h, c.peak_queue_bits);
    h = mix_double(h, port_by_gid[p]->queue_bits());
  }
  result.flow_stats.resize(F);
  for (std::uint32_t f = 0; f < F; ++f) {
    result.flow_stats[f].frames_sent = source_by_flow[f]->frames_sent();
    result.flow_stats[f].rate = source_by_flow[f]->rate();
    result.frames_sent += result.flow_stats[f].frames_sent;
    h = mix_u64(h, result.flow_stats[f].frames_sent);
    h = mix_double(h, result.flow_stats[f].rate);
  }

  result.trace_queue.assign(shared.total_samples, 0.0);
  result.total_queue.assign(shared.total_samples, 0.0);
  for (const auto& shard : shards) {
    if (shard->trace_port) result.trace_queue = shard->trace_partial;
    // Queue bits are integer-valued doubles (multiples of the frame
    // size) well below 2^53, so per-shard partial sums add exactly in
    // any order -- the merged series cannot depend on the partition.
    for (std::uint64_t i = 0; i < shared.total_samples; ++i) {
      result.total_queue[i] += shard->queue_partial[i];
    }
  }
  for (const double v : result.trace_queue) h = mix_double(h, v);
  for (const double v : result.total_queue) h = mix_double(h, v);
  h = mix_u64(h, result.staged_records);
  h = mix_u64(h, result.events_executed);
  result.digest = h;

  // Monitor fold: shard 0's monitor absorbs the rest; merge_from orders
  // violations by (t, invariant, message), not by arrival thread.
  if (options.monitors.any()) {
    obs::RunMonitor& merged = shards[0]->monitor;
    for (std::size_t s = 1; s < shards.size(); ++s) {
      merged.merge_from(shards[s]->monitor);
    }
    result.monitor_checks = merged.checks();
    result.monitor_violations = merged.violation_count();
    result.violations = merged.violations();
  }
  return result;
}

}  // namespace bcn::sim::shard
