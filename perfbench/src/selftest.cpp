// Self-tests for the benchmark's own arithmetic (stats.h, layer_trace.h).
// A plain executable, not a suite of the main build: the benchmark package
// stands alone.  Run through `python3 perfbench/run.py --self-test`; exits
// 1 when any expectation fails, after reporting each one.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "layer_trace.h"
#include "obs/tracing.h"
#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED (line %d): %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

using namespace perfbench;

void percentile_index() {
  EXPECT(percentile_rank(1000, 99) == 990);
  EXPECT(percentile_rank(100, 50) == 50);
  EXPECT(percentile_rank(101, 50) == 51);
  EXPECT(percentile_rank(1, 99) == 1);
  EXPECT(percentile_rank(10, 100) == 10);
  // p99 needs ten samples beyond it: 1000 samples is the least that does.
  EXPECT(samples_beyond(1000, 99) == 10);
  EXPECT(percentile_supported(1000, 99));
  EXPECT(!percentile_supported(999, 99));
  EXPECT(percentile_supported(100, 90));
  EXPECT(!percentile_supported(99, 90));
  EXPECT(!percentile_supported(0, 50));

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(static_cast<double>(i));
  EXPECT(percentile(v, 99) == 990.0);
  EXPECT(percentile(v, 50) == 500.0);
  EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  EXPECT(std::isnan(median({})));
  EXPECT(std::isnan(percentile({}, 50)));
}

bcn::obs::SpanRecord record(const char* name, std::uint64_t dur,
                           std::uint64_t self) {
  bcn::obs::SpanRecord r;
  r.name = name;
  r.dur_ns = dur;
  r.self_ns = self;
  return r;
}

void self_time_and_coverage() {
  EXPECT(coverage_ratio(90, 100) == 0.9);
  EXPECT(coverage_ratio(0, 100) == 0.0);
  EXPECT(coverage_ratio(5, 0) == 0.0);

  // Roll-up and coverage over hand-made records: a call of 100 ns whose
  // program spans cover 90 ns of it, and a call of 100 ns with none.
  std::vector<bcn::obs::SpanRecord> spans = {
      record("bench.ode.call", 100, 10), record("ode.integrate", 90, 60),
      record("core.step", 30, 30)};
  SpanProfile p = profile_spans(spans);
  EXPECT(p.coverage == 0.9);
  EXPECT(p.calls_of("ode.integrate") == 1);
  EXPECT(p.calls_of("missing") == 0);
  EXPECT(p.dur_s("ode.integrate") == 90e-9);
  EXPECT(p.layer_self("ode") == 60e-9);
  EXPECT(p.layer_self("core") == 30e-9);
  EXPECT(p.layer_self("bench") == 10e-9);
  EXPECT(p.layer_self("sim") == 0.0);
  spans.push_back(record("bench.ode.call", 100, 100));
  p = profile_spans(spans);
  EXPECT(p.coverage == 0.45);
  EXPECT(p.calls_of("bench.ode.call") == 2);
  EXPECT(profile_spans({record("ode.integrate", 5, 5)}).coverage == 0.0);

  // Recorded spans: the tracer's self time is the span's length minus its
  // direct children, so a call's self time plus its children's lengths
  // is its length exactly, and coverage is the children's share.
  reset_spans();
  bcn::obs::tracing_enable();
  {
    bcn::obs::TraceSpan call("bench.ode.call");
    for (int i = 0; i < 2; ++i) {
      bcn::obs::TraceSpan child("ode.child");
      bcn::obs::TraceSpan grandchild("core.grandchild");
    }
  }
  const auto recorded = collect_spans();
  EXPECT(recorded.size() == 5);
  std::uint64_t call_dur = 0, call_self = 0, children = 0, child_self = 0;
  for (const auto& s : recorded) {
    const std::string name = s.name;
    if (name == "bench.ode.call") {
      call_dur = s.dur_ns;
      call_self = s.self_ns;
    } else if (name == "ode.child") {
      children += s.dur_ns;
      child_self += s.self_ns;
    }
  }
  EXPECT(call_self + children == call_dur);
  p = profile_spans(recorded);
  EXPECT(p.calls_of("ode.child") == 2);
  EXPECT(std::abs(p.layer_self("ode") - static_cast<double>(child_self) / 1e9) <
         1e-15);
  EXPECT(p.coverage == coverage_ratio(children, call_dur));
}

void zipf_determinism() {
  const ZipfPool a(4096, 1.0, 42);
  const ZipfPool b(4096, 1.0, 42);
  const ZipfPool c(4096, 1.0, 43);
  Rng ra(7), rb(7), rc(7);
  int same_as_other_seed = 0;
  std::vector<int> hits(4096, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::size_t ka = a.draw(ra);
    EXPECT(ka == b.draw(rb));
    if (ka == c.draw(rc)) ++same_as_other_seed;
    EXPECT(ka < 4096);
    ++hits[ka];
  }
  // Another seed permutes the hot set, so streams mostly differ.
  EXPECT(same_as_other_seed < 20000 / 2);
  // Skew: the hottest key takes about 1/H(4096) ~ 11% of draws.
  int hottest = 0;
  for (const int h : hits) hottest = h > hottest ? h : hottest;
  EXPECT(hottest > 20000 / 20 && hottest < 20000 / 5);

  Rng x(1), y(1);
  for (int i = 0; i < 100; ++i) EXPECT(x.next() == y.next());
  for (int i = 0; i < 1000; ++i) {
    const double u = x.uniform();
    EXPECT(u >= 0.0 && u < 1.0);
  }
}

void metric_names() {
  EXPECT(valid_metric_name("work_per_s"));
  EXPECT(valid_metric_name("service.cache_hit_ratio"));
  EXPECT(valid_metric_name("obs.coverage.fabric_fattree"));
  EXPECT(valid_metric_name("9lives-x"));
  EXPECT(!valid_metric_name(""));
  EXPECT(!valid_metric_name(".leading_dot"));
  EXPECT(!valid_metric_name("_leading_underscore"));
  EXPECT(!valid_metric_name("has space"));
  EXPECT(!valid_metric_name("slash/name"));
  EXPECT(!valid_metric_name("quote\"name"));
  EXPECT(!valid_metric_name(std::string(65, 'a')));
  EXPECT(valid_metric_name(std::string(64, 'a')));

  MetricSet set;
  set.add("a.b", 1.5, "ms");
  bool threw = false;
  try {
    set.add("a.b", 2.0, "ms");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  EXPECT(threw);
  threw = false;
  try {
    set.add("bad name", 2.0, "ms");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  EXPECT(threw);
  EXPECT(metrics_json(set) ==
         "{\"a.b\":{\"value\":1.5,\"unit\":\"ms\"}}");
}

}  // namespace

int main() {
  percentile_index();
  self_time_and_coverage();
  zipf_determinism();
  metric_names();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
