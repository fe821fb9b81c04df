#include "ssta/propagate.hpp"

#include <algorithm>
#include <cmath>

#include "core/scales.hpp"
#include "sta/scale.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace sva {

namespace {

/// sqrt(Var(f^2)) for f ~ U(-1,1): E[f^4] - E[f^2]^2 = 1/5 - 1/9.
const double kFocusSigma = std::sqrt(4.0 / 45.0);

/// Mean of f^2 for f ~ U(-1,1).
constexpr double kFocusMean = 1.0 / 3.0;

std::vector<std::vector<CanonicalDelay>> build_factors(
    const Netlist& netlist, const ContextLibrary& context,
    const std::vector<VersionKey>& versions, const SstaVariationModel& model) {
  model.budget.validate();
  SVA_REQUIRE(model.global_share >= 0.0 && model.global_share <= 1.0);
  const std::vector<std::vector<ArcAnnotation>> annotations = annotate_arcs(
      netlist, context, versions, model.budget, model.policy);

  const Nm l_nom = netlist.library().master(0).tech().gate_length;
  const Nm lvar_focus = model.budget.lvar_focus(l_nom);
  // Same residual decomposition as ContextAwareSampler, optionally split
  // into a chip-global and a local part (3-sigma = residual half-range).
  const Nm sigma_residual = (model.budget.total(l_nom) -
                             model.budget.lvar_pitch(l_nom) - lvar_focus) /
                            3.0;
  const Nm sigma_global = sigma_residual * model.global_share;
  const Nm sigma_local = sigma_residual * (1.0 - model.global_share);

  std::vector<std::vector<CanonicalDelay>> factors(annotations.size());
  for (std::size_t gi = 0; gi < annotations.size(); ++gi) {
    factors[gi].resize(annotations[gi].size());
    for (std::size_t ai = 0; ai < annotations[gi].size(); ++ai) {
      const ArcAnnotation& ann = annotations[gi][ai];
      Nm s = 0.0;  // signed through-focus excursion of this arc class
      switch (ann.arc_class) {
        case ArcClass::Smile:
          s = +lvar_focus;
          break;
        case ArcClass::Frown:
          s = -lvar_focus;
          break;
        case ArcClass::SelfCompensated:
          s = 0.0;
          break;
      }
      CanonicalDelay& f = factors[gi][ai];
      f.mean_ps = (ann.l_nom_new + s * kFocusMean) / l_nom;
      f.a_focus_ps = s * kFocusSigma / l_nom;
      f.a_global_ps = sigma_global / l_nom;
      f.local_ps = sigma_local / l_nom;
    }
  }
  return factors;
}

std::vector<std::vector<double>> mean_factor_matrix(
    const std::vector<std::vector<CanonicalDelay>>& factors) {
  std::vector<std::vector<double>> out(factors.size());
  for (std::size_t gi = 0; gi < factors.size(); ++gi) {
    out[gi].resize(factors[gi].size());
    for (std::size_t ai = 0; ai < factors[gi].size(); ++ai)
      out[gi][ai] = factors[gi][ai].mean_ps;
  }
  return out;
}

}  // namespace

SstaEngine::SstaEngine(const Netlist& netlist,
                       const CharacterizedLibrary& library,
                       const ContextLibrary& context,
                       const std::vector<VersionKey>& versions,
                       const SstaVariationModel& model,
                       const StaConfig& config)
    : netlist_(&netlist),
      library_(&library),
      config_(config),
      factors_(build_factors(netlist, context, versions, model)),
      sta_(netlist, library, config),
      base_(sta_.run(MatrixScale(mean_factor_matrix(factors_)))) {
  // Residual index space: one slot per (gate, master-arc) CD residual,
  // then one max-noise slot per gate.
  std::size_t arc_total = 0;
  res_offset_.resize(factors_.size());
  for (std::size_t gi = 0; gi < factors_.size(); ++gi) {
    res_offset_[gi] = static_cast<std::uint32_t>(arc_total);
    arc_total += factors_[gi].size();
  }
  SVA_REQUIRE_MSG(arc_total + factors_.size() < sparse::kEnd,
                  "residual index space exceeds 32-bit slots");
  arc_total_ = static_cast<std::uint32_t>(arc_total);
}

const CanonicalDelay& SstaEngine::arc_factor(std::size_t gate,
                                             std::size_t arc_index) const {
  SVA_REQUIRE(gate < factors_.size());
  SVA_REQUIRE(arc_index < factors_[gate].size());
  return factors_[gate][arc_index];
}

void SstaEngine::evaluate_gate(std::size_t gi, State& st,
                               Scratch& sc) const {
  const Netlist& nl = *netlist_;
  const GateInst& gate = nl.gates()[gi];
  const CharacterizedCell& cell = library_->cells[gate.cell_index];
  const double load = sta_.net_load_ff(gate.output_net);
  const auto& pins = nl.input_pins_of(gate.cell_index);
  const std::size_t n = gate.fanin_nets.size();

  CanonicalDelay acc;
  std::vector<double>& q = st.gate_pin_tightness[gi];
  q.assign(n, 0.0);
  std::vector<SlewSensitivity> cand_slew(n);
  if (sc.cand_slew.size() < n) sc.cand_slew.resize(n);

  for (std::size_t pi = 0; pi < n; ++pi) {
    const std::size_t in_net = gate.fanin_nets[pi];
    const CharacterizedArc& arc = cell.arc_for(pins[pi]);
    const CanonicalDelay& fac = factors_[gi][arc.arc_index];
    const CanonicalDelay& ain = st.arrival[in_net];
    const SlewSensitivity& sin = st.slew_sens[in_net];

    // Operating point: the deterministic mean-state slew of the fanin
    // net.  Finite-difference derivatives carry slew variation to first
    // order through the NLDM tables.
    const double s0 = base_.slew_ps[in_net];
    const double d0 = arc.nldm.delay_ps(s0, load);
    const double so0 = arc.nldm.output_slew_ps(s0, load);
    const double ds = std::max(0.5, 0.05 * s0);
    const double dd_dslew =
        (arc.nldm.delay_ps(s0 + ds, load) - arc.nldm.delay_ps(s0 - ds, load)) /
        (2.0 * ds);
    const double dso_dslew = (arc.nldm.output_slew_ps(s0 + ds, load) -
                              arc.nldm.output_slew_ps(s0 - ds, load)) /
                             (2.0 * ds);

    const double wire_delay =
        config_.wire_delay_per_sink_ps *
        static_cast<double>(nl.nets()[in_net].sinks.size());

    // Arrival candidate: fanin arrival + wire + factor * table delay,
    // with the slew chain folded in (k = d(delay)/d(slew) at the mean
    // factor).  Shared variables (focus, global) chain linearly; the
    // local term chains as a coefficient vector over the independent
    // residuals, so every correlation -- the fanin's slew/arrival
    // overlap, reconvergent fanin cones, this arc's fresh residual
    // scaling both delay and output slew -- is carried exactly.
    const double k = fac.mean_ps * dd_dslew;
    const SparseVec& ain_c = st.arr_coef[in_net];
    const SparseVec& sin_c = st.slew_coef[in_net];
    const auto rid =
        static_cast<std::uint32_t>(res_offset_[gi] + arc.arc_index);

    CanonicalDelay cand;
    cand.mean_ps = ain.mean_ps + wire_delay + fac.mean_ps * d0;
    cand.a_focus_ps = ain.a_focus_ps + fac.a_focus_ps * d0 + k * sin.a_focus_ps;
    cand.a_global_ps =
        ain.a_global_ps + fac.a_global_ps * d0 + k * sin.a_global_ps;
    sparse::axpy_add(ain_c, k, sin_c, rid, fac.local_ps * d0, sc.cand);
    cand.local_ps = std::sqrt(sparse::sq_norm(sc.cand));

    // Output-slew candidate, same first-order chain.
    const double ks = fac.mean_ps * dso_dslew;
    SlewSensitivity& cs = cand_slew[pi];
    cs.a_focus_ps = fac.a_focus_ps * so0 + ks * sin.a_focus_ps;
    cs.a_global_ps = fac.a_global_ps * so0 + ks * sin.a_global_ps;
    SparseVec& cs_c = sc.cand_slew[pi];
    sparse::axpy_add({}, ks, sin_c, rid, fac.local_ps * so0, cs_c);
    cs.local_ps = std::sqrt(sparse::sq_norm(cs_c));

    // Left-fold Clark max in pin order; the fold updates the selection
    // probabilities so they sum to exactly 1.  The local covariance of
    // the incumbent and the candidate is the exact dot product of their
    // residual vectors (the incumbent's unassigned max-noise part is
    // independent of the candidate, so it rightly contributes nothing).
    if (pi == 0) {
      acc = cand;
      sc.acc.swap(sc.cand);
      q[0] = 1.0;
    } else {
      const double lcov = sparse::dot(sc.acc, sc.cand);
      const ClarkMax m = clark_max(acc, cand, lcov);
      const double t = m.tightness_a;
      for (std::size_t j = 0; j < pi; ++j) q[j] *= t;
      q[pi] = 1.0 - t;
      sparse::blend(t, sc.acc, sc.cand, sc.tmp);
      sc.acc.swap(sc.tmp);
      acc = m.value;
    }
  }

  // The tightness-blended vector under-counts the Clark-matched
  // variance (max of two forms is noisier than their blend); park the
  // deficit in this gate's own max-noise slot so downstream consumers
  // see it as a shared -- not independent -- residual.
  const double mix_var = sparse::sq_norm(sc.acc);
  const double deficit = acc.local_ps * acc.local_ps - mix_var;
  sparse::insert(sc.acc, arc_total_ + static_cast<std::uint32_t>(gi),
                 std::sqrt(std::max(deficit, 0.0)));
  acc.local_ps = std::sqrt(mix_var + std::max(deficit, 0.0));

  // Merged output slew: tightness-weighted blend of the per-pin slews
  // (first-order moment matching of the selected slew), componentwise on
  // the residual vectors so downstream correlation survives the merge.
  SlewSensitivity merged;
  sc.merged.clear();
  for (std::size_t pi = 0; pi < n; ++pi) {
    merged.a_focus_ps += q[pi] * cand_slew[pi].a_focus_ps;
    merged.a_global_ps += q[pi] * cand_slew[pi].a_global_ps;
    sparse::add_scaled(sc.merged, q[pi], sc.cand_slew[pi], sc.tmp);
  }
  merged.local_ps = std::sqrt(sparse::sq_norm(sc.merged));

  // Copies, not moves: the stored vectors get exact-size allocations and
  // the scratch buffers keep their capacity for the next gate.
  st.arrival[gate.output_net] = acc;
  st.slew_sens[gate.output_net] = merged;
  st.arr_coef[gate.output_net] = sc.acc;
  st.slew_coef[gate.output_net] = sc.merged;
}

SstaEngine::State SstaEngine::make_state() const {
  const Netlist& nl = *netlist_;
  State st;
  st.arrival.assign(nl.nets().size(), CanonicalDelay{});
  st.slew_sens.assign(nl.nets().size(), SlewSensitivity{});
  st.gate_pin_tightness.resize(nl.gates().size());
  st.arr_coef.resize(nl.nets().size());
  st.slew_coef.resize(nl.nets().size());
  return st;
}

SstaResult SstaEngine::finalize(State st) const {
  const Netlist& nl = *netlist_;
  SstaResult out;

  // Chip max: fold over primary outputs in net-index order.  Endpoints
  // share most of their cones, so the fold carries the same exact local
  // covariance the per-gate merges use.
  for (std::size_t ni = 0; ni < nl.nets().size(); ++ni)
    if (nl.nets()[ni].is_primary_output) out.po_nets.push_back(ni);
  SVA_REQUIRE_MSG(!out.po_nets.empty(), "netlist has no primary outputs");

  out.po_tightness.assign(out.po_nets.size(), 0.0);
  out.critical = st.arrival[out.po_nets[0]];
  SparseVec crit_coef = st.arr_coef[out.po_nets[0]];
  SparseVec tmp;
  out.po_tightness[0] = 1.0;
  for (std::size_t i = 1; i < out.po_nets.size(); ++i) {
    const CanonicalDelay& cand = st.arrival[out.po_nets[i]];
    const SparseVec& cand_coef = st.arr_coef[out.po_nets[i]];
    const double lcov = sparse::dot(crit_coef, cand_coef);
    const ClarkMax m = clark_max(out.critical, cand, lcov);
    const double t = m.tightness_a;
    for (std::size_t j = 0; j < i; ++j) out.po_tightness[j] *= t;
    out.po_tightness[i] = 1.0 - t;
    sparse::blend(t, crit_coef, cand_coef, tmp);
    crit_coef.swap(tmp);
    out.critical = m.value;
  }

  out.arrival = std::move(st.arrival);
  out.slew_sens = std::move(st.slew_sens);
  out.gate_pin_tightness = std::move(st.gate_pin_tightness);
  return out;
}

SstaResult SstaEngine::run(const CancelToken* cancel) const {
  SVA_FAILPOINT("ssta.propagate");
  State st = make_state();
  Scratch scratch;
  for (std::size_t gi : netlist_->topological_order()) {
    if (cancel) cancel->check();
    evaluate_gate(gi, st, scratch);
  }
  return finalize(std::move(st));
}

}  // namespace sva
