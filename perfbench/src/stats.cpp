#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace perfbench {

std::size_t percentile_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const double exact = p / 100.0 * static_cast<double>(n);
  // Guard against 99/100*1000 landing a hair above 990.
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - percentile_rank(n, p);
}

bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= kMinTailSamples;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t rank = percentile_rank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double coverage_ratio(std::uint64_t attributed_ns, std::uint64_t wall_ns) {
  return wall_ns == 0 ? 0.0
                      : static_cast<double>(attributed_ns) /
                            static_cast<double>(wall_ns);
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t n) {
  return n <= 1 ? 0 : next() % n;
}

ZipfPool::ZipfPool(std::size_t keys, double exponent, std::uint64_t seed) {
  if (keys == 0) throw std::invalid_argument("ZipfPool: keys must be > 0");
  cdf_.resize(keys);
  double sum = 0.0;
  for (std::size_t r = 0; r < keys; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
  cdf_.back() = 1.0;
  rank_to_key_.resize(keys);
  for (std::size_t i = 0; i < keys; ++i) rank_to_key_[i] = i;
  Rng rng(seed ^ 0x7a1full);
  for (std::size_t i = keys - 1; i > 0; --i) {
    std::swap(rank_to_key_[i], rank_to_key_[rng.below(i + 1)]);
  }
}

std::size_t ZipfPool::draw(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto rank = static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(),
                               static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  return rank_to_key_[rank];
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name: " + name);
  }
  if (find(name) != nullptr) {
    throw std::invalid_argument("duplicate metric name: " + name);
  }
  items_.push_back({name, value, unit});
}

const Metric* MetricSet::find(std::string_view name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string metrics_json(const MetricSet& metrics) {
  std::string out = "{";
  char buf[64];
  for (const Metric& m : metrics.items()) {
    if (out.size() > 1) out += ",";
    // Non-finite values are not JSON numbers; null makes a bad
    // measurement visible instead of passing it off as a number.
    if (std::isfinite(m.value)) {
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    out += "\"" + m.name + "\":{\"value\":" + buf + ",\"unit\":\"" + m.unit +
           "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
