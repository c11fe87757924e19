// The benchmark's own arithmetic: order statistics, the coverage ratio,
// the seeded Zipf request pool, and metric-name validation.  Everything
// here is pure so selftest.cpp can pin it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// --- order statistics -----------------------------------------------------

// Nearest-rank percentile: the 1-based rank ceil(p/100 * n).  p in
// (0, 100]; n >= 1.
std::size_t percentile_rank(std::size_t n, double p);

// Samples strictly beyond the percentile's rank.
std::size_t samples_beyond(std::size_t n, double p);

// A tail percentile is reported only when at least this many samples lie
// beyond it; otherwise it is an extrapolation from fewer than ten events.
inline constexpr std::size_t kMinTailSamples = 10;
bool percentile_supported(std::size_t n, double p);

// Nearest-rank percentile of `values` (copied and sorted).  NaN when
// empty.
double percentile(std::vector<double> values, double p);

// Midpoint median (mean of the two middle values for even n).  NaN when
// empty.
double median(std::vector<double> values);

// --- coverage ------------------------------------------------------------

// Attributed time over wall time; 0 when wall is 0.
double coverage_ratio(std::uint64_t attributed_ns, std::uint64_t wall_ns);

// --- seeded inputs --------------------------------------------------------

// splitmix64: the benchmark's only random source, so inputs depend on
// the seed alone (not on the standard library's distributions).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  // [0, 1)
  std::uint64_t below(std::uint64_t n);  // [0, n); n >= 1

 private:
  std::uint64_t state_;
};

// Zipf(s) over `keys` items whose rank order is a seeded permutation, so
// each seed has its own hot set.  draw() maps a uniform variate to a key
// by inverse CDF, so a stream is a pure function of the seed.
class ZipfPool {
 public:
  ZipfPool(std::size_t keys, double exponent, std::uint64_t seed);
  std::size_t draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> rank_to_key_;
};

// --- metrics --------------------------------------------------------------

// [A-Za-z0-9][A-Za-z0-9_.-]{0,63}
bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Name-unique, validated metric list in insertion order.
class MetricSet {
 public:
  // Throws std::invalid_argument on an invalid or repeated name.
  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }
  const Metric* find(std::string_view name) const;

 private:
  std::vector<Metric> items_;
};

// {"name":{"value":v,"unit":"u"},...} with round-trip precision.
std::string metrics_json(const MetricSet& metrics);

}  // namespace perfbench
