#pragma once
// Block-based SSTA propagation over the levelized timing graph.
//
// The paper's variation taxonomy maps onto the canonical basis as:
//
//  * through-pitch context  -> deterministic per-arc mean shift (the
//    context-predicted nominal length from core/classify, exactly the
//    systematic component ContextAwareSampler treats as deterministic);
//  * through-focus smile/frown -> sensitivity to ONE shared chip-level
//    defocus variable.  The Bossung response is quadratic (shift =
//    +-lvar_focus * f^2 with f ~ U(-1,1)), so the standardized variable
//    is X_F = (f^2 - 1/3) / sqrt(4/45): mean contribution s/3,
//    sensitivity s*sqrt(4/45), per arc class sign;
//  * chip-global CD -> a second shared variable taking `global_share`
//    of the residual sigma;
//  * the remaining residual budget -> an independent local term.
//
// Propagation: exact canonical sum over arcs, Clark moment-matched max
// at merge points (fold in fanin-pin order; the fold also yields the
// per-pin selection probabilities criticality needs).  Slew coupling is
// carried to first order: the deterministic base state (an Sta run at
// the mean factors) provides the NLDM operating points, and per-net
// slew sensitivity triples propagate through finite-difference
// derivatives of the delay/slew tables.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cell/context_library.hpp"
#include "core/budget.hpp"
#include "core/classify.hpp"
#include "netlist/netlist.hpp"
#include "ssta/canonical.hpp"
#include "ssta/sparse.hpp"
#include "sta/sta.hpp"
#include "util/cancel.hpp"

namespace sva {

/// Variation model driving the canonical decomposition.
struct SstaVariationModel {
  CdBudget budget;
  ArcLabelPolicy policy = ArcLabelPolicy::Majority;
  /// Share of the residual sigma that is chip-global (the second shared
  /// variable); the rest is independent local.  0 matches the default
  /// ContextAwareSampler exactly.
  double global_share = 0.0;
};

/// First-order sensitivities of a net's slew (all ps).  `local_ps` is
/// the norm of the net's per-residual slew coefficient vector; the full
/// vector lives in the propagation state, not in the public result.
struct SlewSensitivity {
  double a_focus_ps = 0.0;
  double a_global_ps = 0.0;
  double local_ps = 0.0;
};

/// One SSTA analysis of the whole design.
struct SstaResult {
  std::vector<CanonicalDelay> arrival;     ///< per net
  std::vector<SlewSensitivity> slew_sens;  ///< per net
  /// Per gate, per fanin pin: probability that this pin's candidate sets
  /// the gate's output max (sums to 1 per gate by construction).
  std::vector<std::vector<double>> gate_pin_tightness;
  CanonicalDelay critical;                 ///< max over primary outputs
  std::vector<std::size_t> po_nets;        ///< POs in net-index order
  std::vector<double> po_tightness;        ///< endpoint criticality, sums to 1

  double quantile_ps(double q) const { return critical.quantile_ps(q); }
  /// Gaussian parametric yield at a clock period.
  double yield_at(double clock_period_ps) const {
    const double sigma = critical.sigma_ps();
    if (sigma <= 0.0) return clock_period_ps >= critical.mean_ps ? 1.0 : 0.0;
    return normal_cdf((clock_period_ps - critical.mean_ps) / sigma);
  }
};

/// Block-based SSTA engine over the same levelized graph Sta uses.
class SstaEngine {
 public:
  /// All references must outlive the engine.
  SstaEngine(const Netlist& netlist, const CharacterizedLibrary& library,
             const ContextLibrary& context,
             const std::vector<VersionKey>& versions,
             const SstaVariationModel& model, const StaConfig& config = {});

  /// Propagation in topological order.  `cancel`, when given, is polled
  /// before every gate.
  SstaResult run(const CancelToken* cancel = nullptr) const;

  /// The deterministic mean-state run backing the NLDM operating points.
  const StaResult& base_result() const { return base_; }
  const Netlist& netlist() const { return *netlist_; }

  /// Canonical delay factor (dimensionless) of one (gate, master-arc).
  const CanonicalDelay& arc_factor(std::size_t gate,
                                   std::size_t arc_index) const;

 private:
  struct State {
    std::vector<CanonicalDelay> arrival;
    std::vector<SlewSensitivity> slew_sens;
    std::vector<std::vector<double>> gate_pin_tightness;
    /// Per net: coefficient of each independent residual in the net's
    /// arrival (resp. slew) local term.  Index space is one slot per
    /// (gate, master-arc) CD residual followed by one slot per gate for
    /// the Clark max-nonlinearity noise.  `arrival[n].local_ps` equals
    /// the norm of `arr_coef[n]` by construction, and the dot product of
    /// two nets' vectors is their exact first-order local covariance --
    /// this is what keeps reconvergent merges honest.
    ///
    /// Stored sparse (ssta/sparse.hpp): sorted (slot, value) terms with
    /// every exact zero dropped on emit.  A net's fanin cone covers about
    /// 1% of the slots (C7552 gate outputs: 122 arrival and 94 slew
    /// terms of 10,878), so state is O(nets x cone), not
    /// O(nets x residuals).  Each merge evaluates the dense loop's
    /// expression per stored slot, in slot order; the skipped dense terms
    /// are exact zeros, which leave every sum unchanged, so results are
    /// bit-identical to the dense formulation.
    std::vector<SparseVec> arr_coef;
    std::vector<SparseVec> slew_coef;
  };

  /// Per-gate temporaries, reused across gates to avoid reallocation.
  struct Scratch {
    SparseVec acc;
    SparseVec cand;
    SparseVec tmp;
    SparseVec merged;
    std::vector<SparseVec> cand_slew;  ///< per fanin pin
  };

  void evaluate_gate(std::size_t gate, State& state, Scratch& scratch) const;
  State make_state() const;
  SstaResult finalize(State state) const;

  const Netlist* netlist_;
  const CharacterizedLibrary* library_;
  StaConfig config_;
  /// Dimensionless canonical factor per (gate, master-arc), mirroring the
  /// MatrixScale layout.
  std::vector<std::vector<CanonicalDelay>> factors_;
  Sta sta_;           ///< graph/levelization + deterministic base engine
  StaResult base_;    ///< run at the mean factors (slews, operating points)
  /// Residual index space: res_offset_[g] + arc_index addresses the CD
  /// residual of one (gate, master-arc); arc_total_ + g addresses the
  /// gate's max-noise slot.
  std::vector<std::uint32_t> res_offset_;
  std::uint32_t arc_total_ = 0;
};

}  // namespace sva
