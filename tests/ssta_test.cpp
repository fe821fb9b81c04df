// Tests for the block-based SSTA engine: canonical-form algebra, the
// Clark moment-matched max against brute-force two-Gaussian Monte-Carlo,
// the sparse residual-vector primitives against their dense loops,
// full-circuit agreement with the context-aware MC oracle, bitwise
// golden digests of the engine on every Table-2 circuit, job-level
// determinism and cancellation, criticality conservation, and the
// fault / diagnostics surface of the ssta job.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "core/statistical.hpp"
#include "engine/options.hpp"
#include "engine/thread_pool.hpp"
#include "server/jobs.hpp"
#include "ssta/canonical.hpp"
#include "ssta/criticality.hpp"
#include "ssta/propagate.hpp"
#include "ssta/sparse.hpp"
#include "sta/sta.hpp"
#include "util/cancel.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/stats.hpp"

namespace sva {
namespace {

/// Flow construction runs library OPC; share one instance across tests.
const SvaFlow& flow() {
  static const SvaFlow* f = new SvaFlow(FlowConfig{});
  return *f;
}

SstaVariationModel default_model() {
  SstaVariationModel model;
  model.budget = flow().config().budget;
  model.policy = flow().config().arc_policy;
  return model;
}

// ------------------------------------------------------------- canonical

TEST(Canonical, SumIsExact) {
  const CanonicalDelay a{10.0, 2.0, 1.0, 3.0};
  const CanonicalDelay b{5.0, -1.0, 2.0, 4.0};
  const CanonicalDelay s = canonical_sum(a, b);
  EXPECT_DOUBLE_EQ(s.mean_ps, 15.0);
  EXPECT_DOUBLE_EQ(s.a_focus_ps, 1.0);
  EXPECT_DOUBLE_EQ(s.a_global_ps, 3.0);
  // Independent locals add in quadrature.
  EXPECT_DOUBLE_EQ(s.local_ps, 5.0);
}

TEST(Canonical, ScaleIsLinear) {
  const CanonicalDelay d{10.0, 2.0, 1.0, 3.0};
  const CanonicalDelay s = canonical_scale(d, 2.5);
  EXPECT_DOUBLE_EQ(s.mean_ps, 25.0);
  EXPECT_DOUBLE_EQ(s.a_focus_ps, 5.0);
  EXPECT_DOUBLE_EQ(s.a_global_ps, 2.5);
  EXPECT_DOUBLE_EQ(s.local_ps, 7.5);
  EXPECT_DOUBLE_EQ(s.variance_ps2(), 6.25 * d.variance_ps2());
}

TEST(Canonical, CovarianceUsesSharedTermsOnly) {
  const CanonicalDelay a{0.0, 2.0, 3.0, 100.0};
  const CanonicalDelay b{0.0, 4.0, -1.0, 100.0};
  EXPECT_DOUBLE_EQ(canonical_covariance_ps2(a, b), 2.0 * 4.0 - 3.0);
}

TEST(Canonical, NormalQuantileInvertsCdf) {
  for (const double p : {0.001, 0.1, 0.5, 0.9, 0.999, 0.9999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-12);
  }
  EXPECT_DOUBLE_EQ(normal_quantile(0.5), 0.0);
}

TEST(Canonical, ClarkMaxMatchesBruteForceMonteCarlo) {
  // Two correlated canonical forms; the correlation comes only from the
  // shared focus/global variables, exactly as in propagation.
  const CanonicalDelay a{100.0, 6.0, 2.0, 5.0};
  const CanonicalDelay b{102.0, -3.0, 4.0, 8.0};
  const ClarkMax m = clark_max(a, b);

  Rng rng(1234);
  const std::size_t n = 400000;
  std::vector<double> samples(n);
  std::size_t a_wins = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double xf = rng.normal();
    const double xg = rng.normal();
    const double va = a.mean_ps + a.a_focus_ps * xf + a.a_global_ps * xg +
                      a.local_ps * rng.normal();
    const double vb = b.mean_ps + b.a_focus_ps * xf + b.a_global_ps * xg +
                      b.local_ps * rng.normal();
    samples[i] = std::max(va, vb);
    if (va >= vb) ++a_wins;
  }
  const Summary s = summarize(samples);
  EXPECT_NEAR(m.value.mean_ps, s.mean, 0.05);
  EXPECT_NEAR(m.value.sigma_ps(), s.stddev, 0.05);
  EXPECT_NEAR(m.tightness_a, static_cast<double>(a_wins) / n, 0.01);
}

TEST(Canonical, ClarkMaxDegenerateTieKeepsIncumbent) {
  // Identical forms: theta ~ 0, and the strict-`>` Sta winner rule means
  // the incumbent (`a`) keeps the max.
  const CanonicalDelay a{50.0, 3.0, 1.0, 0.0};
  const ClarkMax m = clark_max(a, a);
  EXPECT_DOUBLE_EQ(m.tightness_a, 1.0);
  EXPECT_DOUBLE_EQ(m.value.mean_ps, a.mean_ps);
}

TEST(Canonical, ClarkMaxDominantInputSaturates) {
  const CanonicalDelay a{100.0, 0.0, 0.0, 1.0};
  const CanonicalDelay b{200.0, 0.0, 0.0, 1.0};
  const ClarkMax m = clark_max(a, b);
  EXPECT_DOUBLE_EQ(m.tightness_a, 0.0);
  EXPECT_DOUBLE_EQ(m.value.mean_ps, b.mean_ps);
}

TEST(Canonical, ClarkMaxExplicitLocalCovariance) {
  // Fully correlated locals (cov = la*lb) with equal variances: the max
  // degenerates to pick-by-mean, which the Clark overload must detect.
  const CanonicalDelay a{100.0, 2.0, 0.0, 6.0};
  const CanonicalDelay b{104.0, 2.0, 0.0, 6.0};
  const ClarkMax m = clark_max(a, b, a.local_ps * b.local_ps);
  EXPECT_DOUBLE_EQ(m.tightness_a, 0.0);
  EXPECT_DOUBLE_EQ(m.value.mean_ps, b.mean_ps);
  // Independent locals keep a genuine statistical max.
  const ClarkMax ind = clark_max(a, b, 0.0);
  EXPECT_GT(ind.tightness_a, 0.0);
  EXPECT_GT(ind.value.mean_ps, b.mean_ps);
}

// -------------------------------------------------------- sparse vectors

using Dense = std::vector<double>;

Dense to_dense(const SparseVec& v, std::size_t n) {
  Dense d(n, 0.0);
  for (const SparseTerm& term : v) d[term.slot] = term.value;
  return d;
}

SparseVec to_sparse(const Dense& d) {
  SparseVec v;
  for (std::size_t j = 0; j < d.size(); ++j)
    if (d[j] != 0.0) v.push_back({static_cast<std::uint32_t>(j), d[j]});
  return v;
}

/// Random dense vector, about half exact zeros.
Dense random_dense(Rng& rng, std::size_t n) {
  Dense d(n, 0.0);
  for (double& x : d)
    if (rng.bernoulli(0.5)) x = rng.normal(0.0, 3.0);
  return d;
}

/// Sorted, strictly increasing slots, no stored zeros.
void expect_canonical(const SparseVec& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NE(v[i].value, 0.0) << i;
    if (i > 0) {
      EXPECT_LT(v[i - 1].slot, v[i].slot) << i;
    }
  }
}

/// Exact equality slot by slot; `==` treats -0 and +0 as equal, so a
/// dense zero of either sign matches an absent slot.
void expect_matches_dense(const SparseVec& got, const Dense& want) {
  expect_canonical(got);
  const Dense d = to_dense(got, want.size());
  for (std::size_t j = 0; j < want.size(); ++j)
    EXPECT_EQ(d[j], want[j]) << j;
}

TEST(SparseVec, AxpyAddMatchesDenseLoop) {
  Rng rng(11);
  constexpr std::size_t n = 40;
  for (int round = 0; round < 200; ++round) {
    const Dense a = random_dense(rng, n);
    Dense b = random_dense(rng, n);
    const double k = round % 4 == 0 ? 1.0 : rng.normal(0.0, 2.0);
    // With k = 1, copy some -a entries into b so a + k*b cancels to 0.
    if (k == 1.0)
      for (std::size_t j = 0; j < n; j += 3) b[j] = -a[j];
    const auto rid = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
    // Every 5th round the added residual cancels the slot exactly.
    const double add = round % 5 == 0 ? -(a[rid] + k * b[rid])
                                      : rng.normal(0.0, 1.0);

    Dense want(n);
    for (std::size_t j = 0; j < n; ++j) {
      want[j] = a[j] + k * b[j];
      if (j == rid) want[j] += add;
    }
    SparseVec out;
    sparse::axpy_add(to_sparse(a), k, to_sparse(b), rid, add, out);
    expect_matches_dense(out, want);

    // Empty `a`: the slew-candidate form k*b + add at rid.
    Dense want_slew(n);
    for (std::size_t j = 0; j < n; ++j) {
      want_slew[j] = k * b[j];
      if (j == rid) want_slew[j] += add;
    }
    sparse::axpy_add(SparseVec{}, k, to_sparse(b), rid, add, out);
    expect_matches_dense(out, want_slew);
  }
}

TEST(SparseVec, BlendMatchesDenseLoopIncludingSaturatedTightness) {
  Rng rng(12);
  constexpr std::size_t n = 40;
  for (int round = 0; round < 200; ++round) {
    const Dense a = random_dense(rng, n);
    Dense b = random_dense(rng, n);
    const double t = round % 4 == 0   ? 0.0
                     : round % 4 == 1 ? 1.0
                     : round % 4 == 2 ? 0.5
                                      : rng.uniform();
    // At t = 0.5, b = -a cancels exactly.
    if (t == 0.5)
      for (std::size_t j = 0; j < n; j += 2) b[j] = -a[j];
    Dense want(n);
    for (std::size_t j = 0; j < n; ++j) want[j] = t * a[j] + (1.0 - t) * b[j];
    SparseVec out;
    sparse::blend(t, to_sparse(a), to_sparse(b), out);
    expect_matches_dense(out, want);
    if (t == 0.0) {
      EXPECT_EQ(out.size(), to_sparse(b).size());
    }
    if (t == 1.0) {
      EXPECT_EQ(out.size(), to_sparse(a).size());
    }
  }
}

TEST(SparseVec, AddScaledAccumulatesLikeDenseLoop) {
  Rng rng(13);
  constexpr std::size_t n = 40;
  for (int round = 0; round < 100; ++round) {
    // The pin-order merge: m += q_p * c_p for each pin, q_p in [0, 1]
    // with exact 0 and 1 among them, and one pin cancelling the sum.
    Dense want(n, 0.0);
    SparseVec m;
    SparseVec tmp;
    for (int pin = 0; pin < 4; ++pin) {
      Dense c = random_dense(rng, n);
      double q = pin == 0 ? 1.0 : pin == 1 ? 0.0 : rng.uniform();
      if (pin == 3 && round % 2 == 0) {
        q = 1.0;
        for (std::size_t j = 0; j < n; j += 2) c[j] = -want[j];
      }
      for (std::size_t j = 0; j < n; ++j) want[j] += q * c[j];
      sparse::add_scaled(m, q, to_sparse(c), tmp);
      expect_matches_dense(m, want);
    }
  }
}

TEST(SparseVec, DotAndNormMatchDenseSumsBitwise) {
  Rng rng(14);
  constexpr std::size_t n = 60;
  for (int round = 0; round < 200; ++round) {
    const Dense a = random_dense(rng, n);
    const Dense b = random_dense(rng, n);
    double dot = 0.0;
    double norm = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      dot += a[j] * b[j];
      norm += a[j] * a[j];
    }
    EXPECT_EQ(sparse::dot(to_sparse(a), to_sparse(b)), dot);
    EXPECT_EQ(sparse::sq_norm(to_sparse(a)), norm);
  }
  EXPECT_EQ(sparse::dot(SparseVec{}, to_sparse(random_dense(rng, n))), 0.0);
}

TEST(SparseVec, InsertGoesInSortedPositionAndSkipsZeros) {
  SparseVec v = {{2, 1.0}, {5, 2.0}, {9, 3.0}};
  sparse::insert(v, 0, 4.0);   // front
  sparse::insert(v, 7, 5.0);   // middle
  sparse::insert(v, 12, 6.0);  // back
  sparse::insert(v, 3, 0.0);   // an exact zero is not stored
  const Dense want = {4.0, 0, 1.0, 0, 0, 2.0, 0, 5.0, 0, 3.0, 0, 0, 6.0};
  expect_matches_dense(v, want);
  EXPECT_EQ(v.size(), 6u);
  // The slot must be absent: inserting over a stored term is a bug.
  EXPECT_THROW(sparse::insert(v, 5, 1.0), Error);
}

// --------------------------------------------------- MC-oracle agreement

/// SSTA mean/sigma must track a 10k-sample context-aware Monte-Carlo
/// within 2% / 5% -- the acceptance bar for the analytical engine.
void expect_matches_mc(const std::string& name) {
  const Netlist nl = flow().make_benchmark(name);
  const Placement placement = flow().make_placement(nl);
  const std::vector<VersionKey> versions = flow().bind_versions(placement);
  const SstaVariationModel model = default_model();
  const SstaEngine engine(nl, flow().characterized(), flow().context_library(),
                          versions, model, flow().config().sta);
  const SstaResult ssta = engine.run();

  const Sta sta(nl, flow().characterized(), flow().config().sta);
  const ContextAwareSampler sampler(nl, flow().context_library(), versions,
                                    model.budget, model.policy,
                                    model.global_share);
  MonteCarloConfig mc;
  mc.samples = 10000;
  const Summary s = run_monte_carlo(sta, sampler, mc).summary();

  EXPECT_NEAR(ssta.critical.mean_ps, s.mean, 0.02 * s.mean) << name;
  EXPECT_NEAR(ssta.critical.sigma_ps(), s.stddev, 0.05 * s.stddev) << name;
}

TEST(SstaOracle, C432MatchesMonteCarlo) { expect_matches_mc("C432"); }
TEST(SstaOracle, C880MatchesMonteCarlo) { expect_matches_mc("C880"); }
TEST(SstaOracle, C1908MatchesMonteCarlo) { expect_matches_mc("C1908"); }

// ---------------------------------------------------------------- golden

/// FNV-1a over every double of an SstaResult (-0 hashed as +0).
std::uint64_t ssta_digest(const SstaResult& r) {
  Fnv1aHasher h;
  const auto f = [&h](double v) { h.f64(v == 0.0 ? 0.0 : v); };
  const auto canonical = [&f](const CanonicalDelay& d) {
    f(d.mean_ps);
    f(d.a_focus_ps);
    f(d.a_global_ps);
    f(d.local_ps);
  };
  for (const CanonicalDelay& a : r.arrival) canonical(a);
  for (const SlewSensitivity& s : r.slew_sens) {
    f(s.a_focus_ps);
    f(s.a_global_ps);
    f(s.local_ps);
  }
  for (const std::vector<double>& q : r.gate_pin_tightness)
    for (const double v : q) f(v);
  canonical(r.critical);
  for (const double v : r.po_tightness) f(v);
  return h.digest();
}

SstaResult run_default_ssta(const std::string& name) {
  const Netlist nl = flow().make_benchmark(name);
  const Placement placement = flow().make_placement(nl);
  const std::vector<VersionKey> versions = flow().bind_versions(placement);
  const SstaEngine engine(nl, flow().characterized(), flow().context_library(),
                          versions, default_model(), flow().config().sta);
  return engine.run();
}

/// Digests of the engine's full result on every Table-2 circuit under
/// the default flow and model, recorded from the dense-vector engine the
/// sparse one replaced.  Any change to a single arrival, slew
/// sensitivity, pin tightness or endpoint weight -- even in the last
/// bit -- changes the digest.
TEST(SstaGolden, AllCircuitsMatchDenseEngineBitwise) {
  const std::vector<std::pair<std::string, std::uint64_t>> golden = {
      {"C432", 0x307b63272e13a5f0ull},  {"C499", 0x647b11a28f823a80ull},
      {"C880", 0xf22635593cfdf8b1ull},  {"C1355", 0xd1a2f08cceb728e6ull},
      {"C1908", 0x57465f0e42e37c29ull}, {"C2670", 0xec3842966dd02717ull},
      {"C3540", 0x1000bca2319f1cd8ull}, {"C5315", 0xd09ca3cd379d4e09ull},
      {"C6288", 0x77035357f7cc3614ull}, {"C7552", 0xa9fd71ab6b0867e7ull},
  };
  for (const auto& [name, digest] : golden)
    EXPECT_EQ(ssta_digest(run_default_ssta(name)), digest) << name;
}

// ------------------------------------------------------------- job level

TEST(SstaParallel, BitIdenticalAtAnyThreadCount) {
  // The job's report and criticality CSV do not depend on the pool it is
  // handed: propagation is serial, and nothing downstream reads the pool.
  SstaJobSpec spec;
  spec.circuit = "C880";
  spec.clock_period_ps = 3100.0;
  ThreadPool one(1);
  const JobResult reference = run_ssta_job(flow(), one, spec, nullptr);
  ASSERT_EQ(reference.exit_code, kExitOk);
  ASSERT_EQ(reference.artifacts.size(), 1u);
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    const JobResult r = run_ssta_job(flow(), pool, spec, nullptr);
    EXPECT_EQ(r.exit_code, kExitOk) << threads;
    EXPECT_EQ(r.output, reference.output) << threads;
    ASSERT_EQ(r.artifacts.size(), 1u) << threads;
    EXPECT_EQ(r.artifacts[0].bytes, reference.artifacts[0].bytes) << threads;
  }
}

TEST(SstaCancel, PreCancelledTokenYieldsCancelledResult) {
  CancelToken cancel;
  cancel.request_cancel();
  ThreadPool pool(1);
  SstaJobSpec spec;
  spec.circuit = "C432";
  spec.csv_path.clear();
  const JobResult result = run_ssta_job(flow(), pool, spec, &cancel);
  EXPECT_EQ(result.exit_code, kExitCancelled);
  EXPECT_TRUE(result.cancelled);
  EXPECT_TRUE(result.artifacts.empty());
  EXPECT_EQ(result.cancel_reason,
            static_cast<std::uint8_t>(CancelReason::Api));
  EXPECT_EQ(result.output, "run cancelled (api)\n");

  // The engine itself stops at its first poll.
  const Netlist nl = flow().make_benchmark("C432");
  const Placement placement = flow().make_placement(nl);
  const std::vector<VersionKey> versions = flow().bind_versions(placement);
  const SstaEngine engine(nl, flow().characterized(), flow().context_library(),
                          versions, default_model(), flow().config().sta);
  EXPECT_THROW(engine.run(&cancel), CancelledError);
}

// ------------------------------------------------------------ criticality

TEST(Criticality, ProbabilityMassIsConserved) {
  const Netlist nl = flow().make_benchmark("C880");
  const Placement placement = flow().make_placement(nl);
  const std::vector<VersionKey> versions = flow().bind_versions(placement);
  const SstaEngine engine(nl, flow().characterized(), flow().context_library(),
                          versions, default_model(), flow().config().sta);
  const SstaResult ssta = engine.run();

  // Endpoint tightness is a probability distribution over POs.
  double po_sum = 0.0;
  for (const double t : ssta.po_tightness) {
    EXPECT_GE(t, 0.0);
    po_sum += t;
  }
  EXPECT_NEAR(po_sum, 1.0, 1e-9);

  // Per-gate selection probabilities sum to 1 by construction.
  for (const std::vector<double>& q : ssta.gate_pin_tightness) {
    double sum = 0.0;
    for (const double v : q) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }

  const CriticalityResult crit = compute_criticality(nl, ssta);

  // The backward pass conserves mass: each gate splits its output-net
  // criticality across its fanin arcs.
  for (std::size_t gi = 0; gi < nl.gates().size(); ++gi) {
    double arc_sum = 0.0;
    for (const double c : crit.arc_criticality[gi]) arc_sum += c;
    EXPECT_NEAR(arc_sum, crit.net_criticality[nl.gates()[gi].output_net],
                1e-9)
        << gi;
  }

  // The primary inputs are a cutset of every path, so their
  // criticalities must also sum to 1.
  double pi_sum = 0.0;
  for (std::size_t ni = 0; ni < nl.nets().size(); ++ni)
    if (nl.nets()[ni].is_primary_input()) pi_sum += crit.net_criticality[ni];
  EXPECT_NEAR(pi_sum, 1.0, 1e-6);
}

// ------------------------------------------------------- job diagnostics

class SstaJobTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::clear_all();
    Diagnostics::global().reset();
  }
  void TearDown() override {
    FailPoints::clear_all();
    Diagnostics::global().reset();
  }
};

TEST_F(SstaJobTest, FailpointSurfacesAsDiagnosedError) {
  FailPoints::set("ssta.propagate", "throw");
  ThreadPool pool(1);
  SstaJobSpec spec;
  spec.circuit = "C432";
  spec.csv_path.clear();
  const JobResult result = run_ssta_job(flow(), pool, spec, nullptr);
  EXPECT_EQ(result.exit_code, kExitFatal);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(Diagnostics::global().count_code("ssta_job_failed"), 1u);
}

TEST_F(SstaJobTest, RejectsBadSpec) {
  // Spec faults come back as an error result with a structured
  // diagnostic, not an exception (per-job isolation).
  ThreadPool pool(1);
  SstaJobSpec spec;
  spec.circuit = "C432";
  spec.quantile = 1.5;
  const JobResult result = run_ssta_job(flow(), pool, spec, nullptr);
  EXPECT_EQ(result.exit_code, kExitFatal);
  EXPECT_NE(result.error.find("quantile"), std::string::npos);
  EXPECT_EQ(Diagnostics::global().count_code("ssta_job_failed"), 1u);
}

TEST_F(SstaJobTest, ProducesReportAndArtifact) {
  ThreadPool pool(2);
  SstaJobSpec spec;
  spec.circuit = "C432";
  spec.clock_period_ps = 2500.0;
  const JobResult result = run_ssta_job(flow(), pool, spec, nullptr);
  EXPECT_EQ(result.exit_code, kExitOk);
  EXPECT_NE(result.output.find("block-based SSTA"), std::string::npos);
  EXPECT_NE(result.output.find("yield at clock"), std::string::npos);
  ASSERT_EQ(result.artifacts.size(), 1u);
  EXPECT_EQ(result.artifacts[0].path, "ssta_criticality.csv");
  EXPECT_NE(result.artifacts[0].bytes.find("kind,gate,pin,net"),
            std::string::npos);
}

}  // namespace
}  // namespace sva
