// Span bookkeeping for the traced pass.
//
// Spans come from two places: the program's own spans (exec.*, ode.*,
// analysis.*, core.*, sim.run_until) and bench-side spans, named
// "bench.<layer>.<call>", that the workloads open around each call into
// a layer's public functions.  Self time is the tracer's own
// (SpanRecord::self_ns: a span's length minus its direct children on the
// same thread); this file only rolls it up.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/tracing.h"

namespace perfbench {

// Drops every span recorded so far.  Call only while no other thread is
// recording (the drain contract of obs/tracing.h).
void reset_spans();

// Turns collection off, drains, and returns the spans recorded since
// reset_spans().  Call only after every thread that recorded spans has
// been joined or otherwise quiesced.
std::vector<bcn::obs::SpanRecord> collect_spans();

struct SpanProfile {
  // obs::build_self_profile, keyed by span name.
  std::map<std::string, bcn::obs::ProfileEntry> by_name;
  // Self time per layer (the span name's first dotted component) over
  // the program's own spans; bench-side spans roll up under "bench".
  std::map<std::string, double> layer_self_s;
  // Over the bench-side spans: the share of their wall time that the
  // program's spans nested in them cover, i.e. sum(dur - self) over
  // sum(dur).  Work a call hands to other threads and waits for counts as
  // unattributed, since the caller's span cannot see those threads.  0
  // when no bench-side span was recorded.
  double coverage = 0.0;

  std::uint64_t calls_of(const std::string& name) const;
  double dur_s(const std::string& name) const;
  double layer_self(const std::string& layer) const;
};

SpanProfile profile_spans(const std::vector<bcn::obs::SpanRecord>& spans);

}  // namespace perfbench
