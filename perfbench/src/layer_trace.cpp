#include "layer_trace.h"

#include <string_view>

#include "stats.h"

namespace perfbench {

void reset_spans() {
  bcn::obs::tracing_disable();
  bcn::obs::tracing_drain();
  bcn::obs::tracing_clear();
}

std::vector<bcn::obs::SpanRecord> collect_spans() {
  bcn::obs::tracing_disable();
  bcn::obs::tracing_drain();
  std::vector<bcn::obs::SpanRecord> spans = bcn::obs::tracing_spans();
  bcn::obs::tracing_clear();
  return spans;
}

std::uint64_t SpanProfile::calls_of(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0 : it->second.calls;
}

double SpanProfile::dur_s(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.total_seconds;
}

double SpanProfile::layer_self(const std::string& layer) const {
  const auto it = layer_self_s.find(layer);
  return it == layer_self_s.end() ? 0.0 : it->second;
}

SpanProfile profile_spans(const std::vector<bcn::obs::SpanRecord>& spans) {
  SpanProfile profile;
  for (auto& entry : bcn::obs::build_self_profile(spans)) {
    const std::string_view name = entry.name;
    profile.layer_self_s[std::string(name.substr(0, name.find('.')))] +=
        entry.self_seconds;
    profile.by_name.emplace(entry.name, std::move(entry));
  }
  std::uint64_t call_ns = 0, attributed_ns = 0;
  for (const auto& s : spans) {
    if (std::string_view(s.name).substr(0, 6) != "bench.") continue;
    call_ns += s.dur_ns;
    attributed_ns += s.dur_ns - s.self_ns;
  }
  profile.coverage = coverage_ratio(attributed_ns, call_ns);
  return profile;
}

}  // namespace perfbench
