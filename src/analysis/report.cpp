#include "analysis/report.h"

#include <functional>
#include <utility>

#include "analysis/transient.h"
#include "common/format.h"
#include "common/table.h"
#include "control/frequency.h"
#include "core/mechanism.h"
#include "core/stability.h"

namespace bcn::analysis {

namespace {

// The numeric verdict at both model levels, shared by both paths: the
// finite-monitor exit, the report's stable/peak/dip fields and one text
// line per level.  False when the finite monitor tripped.
bool render_numeric_levels(
    const VerdictRequest& request, const char* linearized_label,
    const char* nonlinear_label,
    const std::function<core::NumericVerdict(core::ModelLevel)>& verdict_at,
    VerdictReport& report) {
  const double q0 = request.params.q0;
  for (const auto& [level, name] :
       {std::pair{core::ModelLevel::Linearized, linearized_label},
        std::pair{core::ModelLevel::Nonlinear, nonlinear_label}}) {
    const core::NumericVerdict verdict = verdict_at(level);
    report.nonfinite = report.nonfinite || verdict.nonfinite;
    if (request.finite_monitor && verdict.nonfinite) {
      // The stderr line bcn_analyze prints when the monitor trips.
      report.monitor_error = strf(
          "monitor: finite: %s fluid integration produced a "
          "non-finite state; no verdict\n",
          name);
      return false;
    }
    if (level == core::ModelLevel::Linearized) {
      report.stable_linearized = verdict.strongly_stable;
      report.peak_q_linearized = verdict.max_x + q0;
      report.dip_q_linearized = verdict.min_x + q0;
    } else {
      report.stable_nonlinear = verdict.strongly_stable;
      report.peak_q_nonlinear = verdict.max_x + q0;
      report.dip_q_nonlinear = verdict.min_x + q0;
    }
    report.text += strf("numeric %s: %-22s peak q = %.6g, dip q = %.6g\n",
                        name,
                        verdict.strongly_stable ? "strongly stable"
                                                : "NOT strongly stable",
                        verdict.max_x + q0, verdict.min_x + q0);
  }
  return true;
}

// The generic path for fluid facets other than BCN's (bcn_analyze's
// non-closed-form branch).
void render_mechanism_path(const VerdictRequest& request,
                           VerdictReport& report) {
  const auto* info = core::find_mechanism(request.mechanism);
  report.text += strf("mechanism: %s -- %s\n", info->name, info->summary);
  core::MechanismConfig mcfg;
  mcfg.plant = request.params;
  const auto mech = core::make_fluid_mechanism(request.mechanism, mcfg);
  if (!mech) {
    report.has_fluid = false;
    report.text += strf(
        "packet-only mechanism: no fluid facet to analyze; use "
        "the packet benches (bcn_bench --mechanism %s).\n",
        request.mechanism.c_str());
    return;
  }
  report.text += strf("equilibrium at the origin: %s\n",
                      mech->has_equilibrium() ? "yes" : "no (sawtooth orbit)");
  TablePrinter laws({"region", "lambda^2 + m lambda + n", "m", "n"});
  for (const auto& law : mech->region_laws()) {
    laws.add_row({law.label,
                  law.linearizable ? "second-order" : "constant drive",
                  TablePrinter::format(law.m), TablePrinter::format(law.n)});
  }
  report.text += laws.to_string("linearized region laws");

  core::MechanismRunOptions mopts;
  mopts.duration = request.duration;
  render_numeric_levels(request, "linearized", "nonlinear ",
                        [&](core::ModelLevel level) {
                          mopts.level = level;
                          return core::mechanism_numeric_verdict(*mech, mopts);
                        },
                        report);
}

// The closed-form path (bcn / bcn-draft share BCN's fluid facet).
void render_bcn_path(const VerdictRequest& request, VerdictReport& report) {
  const core::BcnParams& p = request.params;
  const auto analysis = core::analyze_stability(p);
  report.closed_form = true;
  report.paper_case = core::to_string(analysis.classification.paper_case);
  report.proposition = analysis.proposition;
  report.proposition_satisfied = analysis.proposition_satisfied;
  report.theorem1_satisfied = analysis.theorem1_satisfied;
  report.theorem1_required_buffer = analysis.theorem1_required_buffer;
  report.text += strf("analysis: %s\n\n", analysis.summary().c_str());

  if (!render_numeric_levels(request, "linearized (eq.9) ",
                             "nonlinear  (eq.8) ",
                             [&](core::ModelLevel level) {
                               return core::numeric_strong_stability(
                                   p, {.level = level});
                             },
                             report)) {
    return;
  }

  if (const auto est = analysis::estimate_transient(p)) {
    report.text += strf(
        "\ntransient estimate: cycle %.4g s, contraction %.6f per "
        "cycle, settling to 5%% band in %.4g s\n",
        est->cycle_time, est->contraction_ratio, est->settling_time);
  }

  const control::LoopTransfer inc{p.a(), p.k()};
  const control::LoopTransfer dec{p.b() * p.capacity, p.k()};
  report.text += strf(
      "\nfrequency margins: increase crossover %.4g rad/s, phase "
      "margin %.4g rad, delay margin %.4g s; decrease %.4g rad/s, "
      "%.4g rad, %.4g s\n",
      control::gain_crossover(inc), control::phase_margin(inc),
      control::delay_margin(inc), control::gain_crossover(dec),
      control::phase_margin(dec), control::delay_margin(dec));
}

}  // namespace

VerdictReport render_verdict_report(const VerdictRequest& request) {
  VerdictReport report;
  report.text = strf("%s\n\n", request.params.describe().c_str());
  if (request.mechanism == "bcn" || request.mechanism == "bcn-draft") {
    render_bcn_path(request, report);
  } else {
    render_mechanism_path(request, report);
  }
  return report;
}

}  // namespace bcn::analysis
