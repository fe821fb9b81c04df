// Tests for the litho module: source sampling, mask Fourier analysis,
// aerial imaging invariants, resist calibration, CD models, pitch curves,
// Bossung/FEM behaviour.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <thread>
#include <vector>

#include "litho/aerial.hpp"
#include "litho/bossung.hpp"
#include "litho/cd_model.hpp"
#include "litho/focus_response.hpp"
#include "litho/mask1d.hpp"
#include "litho/optics.hpp"
#include "litho/pitch_curve.hpp"
#include "litho/resist.hpp"
#include "util/error.hpp"

namespace sva {
namespace {

OpticsConfig default_optics() { return OpticsConfig{}; }

// ---------------------------------------------------------------- Optics

TEST(Optics, SourceWeightsNormalized) {
  const auto pts = sample_annular_source(default_optics());
  EXPECT_FALSE(pts.empty());
  double total = 0.0;
  for (const auto& p : pts) total += p.weight;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Optics, SourcePointsInsideAnnulus) {
  const OpticsConfig o = default_optics();
  for (const auto& p : sample_annular_source(o)) {
    const double r = std::hypot(p.sx, p.sy);
    EXPECT_GE(r, o.sigma_inner - 1e-9);
    EXPECT_LE(r, o.sigma_outer + 1e-9);
    EXPECT_GT(p.weight, 0.0);
  }
}

TEST(Optics, ValidateRejectsBadConfigs) {
  OpticsConfig o = default_optics();
  o.na = 1.5;
  EXPECT_THROW(validate(o), PreconditionError);
  o = default_optics();
  o.sigma_inner = 0.9;
  o.sigma_outer = 0.5;
  EXPECT_THROW(validate(o), PreconditionError);
  o = default_optics();
  o.source_radial = 0;
  EXPECT_THROW(validate(o), PreconditionError);
  o = default_optics();
  o.wavelength = -1.0;
  EXPECT_THROW(validate(o), PreconditionError);
}

TEST(Optics, MaxFrequency) {
  OpticsConfig o = default_optics();
  EXPECT_NEAR(o.max_frequency(), (1.0 + o.sigma_outer) * o.na / o.wavelength,
              1e-15);
}

// ---------------------------------------------------------------- Mask

TEST(Mask1D, ZeroOrderEqualsMeanTransmission) {
  const auto m = MaskPattern1D::grating(90.0, 240.0);
  // Opaque 90 of 240 => c0 = 150/240.
  EXPECT_NEAR(m.fourier_coefficient(0).real(), 150.0 / 240.0, 1e-12);
  EXPECT_NEAR(m.fourier_coefficient(0).imag(), 0.0, 1e-12);
}

TEST(Mask1D, ClearFraction) {
  const auto m = MaskPattern1D::grating(90.0, 240.0);
  EXPECT_NEAR(m.clear_fraction(), 150.0 / 240.0, 1e-12);
}

TEST(Mask1D, CoefficientsConjugateSymmetric) {
  const auto m = MaskPattern1D::local_context(90.0, {{200.0, 90.0}},
                                              {{350.0, 130.0}}, 3000.0);
  for (int n = 1; n <= 12; ++n) {
    const auto cp = m.fourier_coefficient(n);
    const auto cm = m.fourier_coefficient(-n);
    // Real-valued transmission => c_{-n} = conj(c_n).
    EXPECT_NEAR(cp.real(), cm.real(), 1e-12);
    EXPECT_NEAR(cp.imag(), -cm.imag(), 1e-12);
  }
}

TEST(Mask1D, FourierSeriesReconstructsTransmission) {
  const auto m = MaskPattern1D::grating(130.0, 520.0);
  // Partial sum of the series should approach the transmission away from
  // edges.
  auto reconstruct = [&](double x) {
    std::complex<double> v = m.fourier_coefficient(0);
    for (int n = 1; n <= 200; ++n) {
      const double phase = 2.0 * M_PI * n * x / m.period();
      v += m.fourier_coefficient(n) *
               std::complex<double>(std::cos(phase), std::sin(phase)) +
           m.fourier_coefficient(-n) *
               std::complex<double>(std::cos(phase), -std::sin(phase));
    }
    return v.real();
  };
  EXPECT_NEAR(reconstruct(m.period() / 2.0), 0.0, 0.05);  // line centre
  EXPECT_NEAR(reconstruct(10.0), 1.0, 0.05);              // clear area
}

TEST(Mask1D, TransmissionAt) {
  const auto m = MaskPattern1D::grating(90.0, 240.0);
  EXPECT_EQ(m.transmission_at(120.0), std::complex<double>(0.0));
  EXPECT_EQ(m.transmission_at(10.0), std::complex<double>(1.0));
  // Periodic wrap-around.
  EXPECT_EQ(m.transmission_at(120.0 + 240.0), std::complex<double>(0.0));
  EXPECT_EQ(m.transmission_at(-120.0), std::complex<double>(0.0));
}

TEST(Mask1D, LocalContextGeometry) {
  const auto m = MaskPattern1D::local_context(
      90.0, {{150.0, 90.0}, {200.0, 130.0}}, {{300.0, 90.0}}, 3000.0);
  EXPECT_EQ(m.segments().size(), 4u);
  const std::size_t c = m.center_segment_index();
  EXPECT_NEAR(m.segments()[c].x_lo, 1500.0 - 45.0, 1e-9);
  EXPECT_NEAR(m.segments()[c].x_hi, 1500.0 + 45.0, 1e-9);
}

TEST(Mask1D, RejectsOverlapsAndBadPeriods) {
  EXPECT_THROW(MaskPattern1D(100.0, {{10.0, 50.0, 0.0}, {40.0, 80.0, 0.0}}),
               PreconditionError);
  EXPECT_THROW(MaskPattern1D(-1.0, {}), PreconditionError);
  EXPECT_THROW(MaskPattern1D::grating(100.0, 90.0), PreconditionError);
}

TEST(Mask1D, AttenuatedPsmTransmission) {
  // Segments may carry complex transmission (attenuated PSM support).
  const std::complex<double> att = std::polar(std::sqrt(0.06), M_PI);
  MaskPattern1D m(240.0, {{75.0, 165.0, att}});
  EXPECT_EQ(m.transmission_at(120.0), att);
  // c0 = 1 + (att - 1) * duty.
  const auto c0 = m.fourier_coefficient(0);
  EXPECT_NEAR(c0.real(), 1.0 + (att.real() - 1.0) * 90.0 / 240.0, 1e-12);
}

// ---------------------------------------------------------------- Aerial

TEST(Aerial, ClearMaskImagesToUnity) {
  const AerialImageSimulator sim(default_optics());
  const MaskPattern1D clear(1000.0, {});
  const auto img = sim.image(clear, 0.0);
  for (double v : img.sample(64)) EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(Aerial, IntensityNonNegative) {
  const AerialImageSimulator sim(default_optics());
  const auto img = sim.image(MaskPattern1D::grating(90.0, 240.0), 150.0);
  for (double v : img.sample(256)) EXPECT_GE(v, 0.0);
}

TEST(Aerial, SymmetricMaskGivesSymmetricImage) {
  const AerialImageSimulator sim(default_optics());
  const auto mask = MaskPattern1D::grating(130.0, 520.0);
  const auto img = sim.image(mask, 0.0);
  const double c = mask.period() / 2.0;
  for (double dx : {10.0, 40.0, 100.0, 200.0})
    EXPECT_NEAR(img.intensity(c - dx), img.intensity(c + dx), 1e-9);
}

TEST(Aerial, DefocusReducesContrast) {
  const AerialImageSimulator sim(default_optics());
  const auto mask = MaskPattern1D::grating(90.0, 240.0);
  const auto focused = sim.image(mask, 0.0);
  const auto blurred = sim.image(mask, 250.0);
  const double c0 = focused.sampled_max() - focused.sampled_min();
  const double c1 = blurred.sampled_max() - blurred.sampled_min();
  EXPECT_LT(c1, c0);
}

TEST(Aerial, DefocusSignSymmetric) {
  // Scalar defocus is symmetric in +-dz for an aberration-free pupil.
  const AerialImageSimulator sim(default_optics());
  const auto mask = MaskPattern1D::grating(90.0, 300.0);
  const auto plus = sim.image(mask, 180.0);
  const auto minus = sim.image(mask, -180.0);
  for (std::size_t i = 0; i < 32; ++i) {
    const double x = mask.period() * static_cast<double>(i) / 32.0;
    EXPECT_NEAR(plus.intensity(x), minus.intensity(x), 1e-9);
  }
}

TEST(Aerial, TccCacheReused) {
  const AerialImageSimulator sim(default_optics());
  const auto m1 = MaskPattern1D::grating(90.0, 240.0);
  const auto m2 = MaskPattern1D::grating(110.0, 240.0);
  (void)sim.image(m1, 0.0);
  EXPECT_EQ(sim.tcc_cache_size(), 1u);
  (void)sim.image(m2, 0.0);  // same (period, defocus) => cache hit
  EXPECT_EQ(sim.tcc_cache_size(), 1u);
  (void)sim.image(m1, 100.0);
  EXPECT_EQ(sim.tcc_cache_size(), 2u);
  EXPECT_EQ(sim.images_computed(), 3u);
}

TEST(Aerial, ConcurrentImagesShareOneTccAndMatchSerial) {
  // Threads that first hit a not-yet-cached period all need its TCC at
  // once: it must be computed exactly once, and every image must be the
  // bits a serial simulator produces.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 8;
  constexpr Nm kPeriod = 3000.0;
  auto mask_of = [](std::size_t t, std::size_t k) {
    return MaskPattern1D::grating(
        80.0 + 2.0 * static_cast<double>(t * kPerThread + k), kPeriod);
  };
  std::vector<std::vector<double>> serial(kThreads * kPerThread);
  {
    const AerialImageSimulator reference(default_optics());
    for (std::size_t t = 0; t < kThreads; ++t)
      for (std::size_t k = 0; k < kPerThread; ++k)
        serial[t * kPerThread + k] =
            reference.image(mask_of(t, k), 0.0).sample(128);
  }

  const AerialImageSimulator sim(default_optics());
  std::vector<std::vector<double>> concurrent(kThreads * kPerThread);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t k = 0; k < kPerThread; ++k)
        concurrent[t * kPerThread + k] =
            sim.image(mask_of(t, k), 0.0).sample(128);
    });
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(sim.tcc_cache_size(), 1u);
  EXPECT_EQ(sim.images_computed(), kThreads * kPerThread);
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(concurrent[i], serial[i]) << "image " << i;
}

TEST(Aerial, MeanIntensityMatchesSampleAverage) {
  const AerialImageSimulator sim(default_optics());
  const auto img = sim.image(MaskPattern1D::grating(90.0, 360.0), 0.0);
  const auto s = img.sample(512);
  double avg = 0.0;
  for (double v : s) avg += v;
  avg /= static_cast<double>(s.size());
  EXPECT_NEAR(avg, img.mean_intensity(), 1e-3);
}

TEST(Aerial, ResistBlurSmoothsImage) {
  OpticsConfig sharp = default_optics();
  sharp.resist_diffusion_length = 0.0;
  OpticsConfig soft = default_optics();
  soft.resist_diffusion_length = 60.0;
  const auto mask = MaskPattern1D::grating(90.0, 240.0);
  const auto i_sharp = AerialImageSimulator(sharp).image(mask, 0.0);
  const auto i_soft = AerialImageSimulator(soft).image(mask, 0.0);
  EXPECT_LT(i_soft.sampled_max() - i_soft.sampled_min(),
            i_sharp.sampled_max() - i_sharp.sampled_min());
}

// ---------------------------------------------------------------- Resist

TEST(Resist, CalibrationPrintsAnchorAtTarget) {
  const AerialImageSimulator sim(default_optics());
  const auto anchor = MaskPattern1D::grating(90.0, 240.0);
  const auto resist = ThresholdResist::calibrate(sim, anchor, 90.0);
  const auto cd =
      resist.printed_cd(sim.image(anchor, 0.0), anchor.period() / 2.0);
  ASSERT_TRUE(cd.has_value());
  EXPECT_NEAR(*cd, 90.0, 0.5);
}

TEST(Resist, CdGrowsWithThreshold) {
  const AerialImageSimulator sim(default_optics());
  const auto mask = MaskPattern1D::grating(90.0, 300.0);
  const auto img = sim.image(mask, 0.0);
  double prev = 0.0;
  for (double th : {0.38, 0.44, 0.5}) {
    const auto cd = ThresholdResist(th).printed_cd(img, 150.0);
    ASSERT_TRUE(cd.has_value());
    EXPECT_GT(*cd, prev);
    prev = *cd;
  }
}

TEST(Resist, HigherDoseThinsLines) {
  const AerialImageSimulator sim(default_optics());
  const auto mask = MaskPattern1D::grating(90.0, 300.0);
  const auto img = sim.image(mask, 0.0);
  const ThresholdResist resist(0.4);
  const auto lo = resist.printed_cd(img, 150.0, 0.9);
  const auto hi = resist.printed_cd(img, 150.0, 1.1);
  ASSERT_TRUE(lo && hi);
  EXPECT_GT(*lo, *hi);
}

TEST(Resist, FailureWhenCenterBright) {
  const AerialImageSimulator sim(default_optics());
  const MaskPattern1D clear(1000.0, {});
  const auto img = sim.image(clear, 0.0);
  EXPECT_FALSE(ThresholdResist(0.4).printed_line(img, 500.0).has_value());
}

TEST(Resist, PrintedLineEdgesBracketCenter) {
  const AerialImageSimulator sim(default_optics());
  const auto mask = MaskPattern1D::grating(130.0, 400.0);
  const auto img = sim.image(mask, 0.0);
  const auto line = ThresholdResist(0.4).printed_line(img, 200.0);
  ASSERT_TRUE(line.has_value());
  EXPECT_LT(line->left, 200.0);
  EXPECT_GT(line->right, 200.0);
  EXPECT_GT(line->cd(), 0.0);
}

TEST(Resist, RejectsNonPositiveThreshold) {
  EXPECT_THROW(ThresholdResist(0.0), PreconditionError);
  EXPECT_THROW(ThresholdResist(-1.0), PreconditionError);
}

// --------------------------------------------------------------- CdModels

TEST(LithoProcess, IsoPrintsThinnerThanDense) {
  const LithoProcess proc(default_optics(), 90.0, 240.0);
  const auto dense = proc.printed_cd(MaskPattern1D::grating(90.0, 240.0));
  const auto iso = proc.printed_cd(MaskPattern1D::grating(90.0, 2000.0));
  ASSERT_TRUE(dense && iso);
  EXPECT_GT(*dense, *iso);
}

TEST(LithoProcess, ContextHelperMatchesExplicitPattern) {
  const LithoProcess proc(default_optics(), 90.0, 240.0);
  const auto via_helper =
      proc.printed_cd_in_context(90.0, {{150.0, 90.0}}, {{150.0, 90.0}});
  const auto explicit_mask = MaskPattern1D::local_context(
      90.0, {{150.0, 90.0}}, {{150.0, 90.0}}, LithoProcess::kSupercellPeriod);
  const auto direct = proc.printed_cd(explicit_mask);
  ASSERT_TRUE(via_helper && direct);
  EXPECT_NEAR(*via_helper, *direct, 1e-9);
}

TEST(SimulatedCdModel, ClampsBeyondRoi) {
  const LithoProcess proc(default_optics(), 90.0, 240.0);
  const SimulatedCdModel model(proc, 600.0);
  const Nm at_roi = model.printed_cd_nominal(90.0, 600.0, 600.0);
  const Nm beyond = model.printed_cd_nominal(90.0, 5000.0, 5000.0);
  EXPECT_NEAR(at_roi, beyond, 1e-9);
}

TEST(SimulatedCdModel, DenseLargerThanIso) {
  const LithoProcess proc(default_optics(), 90.0, 240.0);
  const SimulatedCdModel model(proc, 600.0);
  EXPECT_GT(model.printed_cd_nominal(90.0, 150.0, 150.0),
            model.printed_cd_nominal(90.0, 600.0, 600.0));
}

TEST(TableCdModel, SymmetricLookupMatchesTable) {
  LookupTable1D table({150.0, 300.0, 600.0}, {95.0, 90.0, 85.0});
  const TableCdModel model(90.0, table, 600.0);
  EXPECT_NEAR(model.printed_cd_nominal(90.0, 150.0, 150.0), 95.0, 1e-9);
  EXPECT_NEAR(model.printed_cd_nominal(90.0, 600.0, 600.0), 85.0, 1e-9);
}

TEST(TableCdModel, AsymmetricAveragesSides) {
  LookupTable1D table({150.0, 600.0}, {95.0, 85.0});
  const TableCdModel model(90.0, table, 600.0);
  // delta(150) = +5, delta(600) = -5 => half sum = 0.
  EXPECT_NEAR(model.printed_cd_nominal(90.0, 150.0, 600.0), 90.0, 1e-9);
}

TEST(TableCdModel, ScalesWithDrawnWidth) {
  LookupTable1D table({150.0, 600.0}, {99.0, 81.0});
  const TableCdModel model(90.0, table, 600.0);
  const Nm cd90 = model.printed_cd_nominal(90.0, 150.0, 150.0);
  const Nm cd180 = model.printed_cd_nominal(180.0, 150.0, 150.0);
  EXPECT_NEAR((cd90 - 90.0) / 90.0, (cd180 - 180.0) / 180.0, 1e-9);
}

TEST(EmpiricalCdModel, SideCharacterEndpoints) {
  const EmpiricalCdModel model(EmpiricalCdParams{});
  EXPECT_NEAR(model.side_character(100.0), 1.0, 1e-12);
  EXPECT_NEAR(model.side_character(150.0), 1.0, 1e-12);
  EXPECT_NEAR(model.side_character(600.0), -1.0, 1e-12);
  EXPECT_NEAR(model.side_character(1000.0), -1.0, 1e-12);
  EXPECT_NEAR(model.side_character(375.0), 0.0, 1e-12);
}

TEST(EmpiricalCdModel, IsoDenseBiasSign) {
  const EmpiricalCdModel model(EmpiricalCdParams{});
  EXPECT_GT(model.printed_cd_nominal(90.0, 150.0, 150.0),
            model.printed_cd_nominal(90.0, 600.0, 600.0));
}

TEST(EmpiricalCdModel, SmileFrownSigns) {
  const EmpiricalCdModel model(EmpiricalCdParams{});
  // Dense: CD grows with defocus (smile).
  EXPECT_GT(model.printed_cd(90.0, 150.0, 150.0, 300.0, 1.0),
            model.printed_cd(90.0, 150.0, 150.0, 0.0, 1.0));
  // Iso: CD shrinks (frown).
  EXPECT_LT(model.printed_cd(90.0, 600.0, 600.0, 300.0, 1.0),
            model.printed_cd(90.0, 600.0, 600.0, 0.0, 1.0));
}

TEST(EmpiricalCdModel, DoseSlopeSign) {
  const EmpiricalCdModel model(EmpiricalCdParams{});
  EXPECT_LT(model.printed_cd(90.0, 300.0, 300.0, 0.0, 1.1),
            model.printed_cd(90.0, 300.0, 300.0, 0.0, 0.9));
}

// ----------------------------------------------------------- Pitch curve

TEST(PitchCurve, Fig1ShapeDecreasesToRoi) {
  const LithoProcess proc(default_optics(), 130.0, 300.0);
  const auto curve = through_pitch_curve(
      proc, 130.0, {300.0, 400.0, 500.0, 600.0});
  for (const auto& p : curve) EXPECT_GT(p.cd, 0.0);
  // Monotone decrease from dense to the radius of influence.
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_LT(curve[i].cd, curve[i - 1].cd);
}

TEST(PitchCurve, FlatBeyondRoi) {
  const LithoProcess proc(default_optics(), 130.0, 300.0);
  const auto curve =
      through_pitch_curve(proc, 130.0, {800.0, 1000.0, 1300.0});
  // Beyond the radius of influence the CD varies by only a few nm.
  Nm lo = curve[0].cd, hi = curve[0].cd;
  for (const auto& p : curve) {
    lo = std::min(lo, p.cd);
    hi = std::max(hi, p.cd);
  }
  EXPECT_LT(hi - lo, 6.0);
}

TEST(PitchCurve, SweepAndHalfRange) {
  const auto pitches = pitch_sweep(300.0, 600.0, 4);
  ASSERT_EQ(pitches.size(), 4u);
  EXPECT_DOUBLE_EQ(pitches.front(), 300.0);
  EXPECT_DOUBLE_EQ(pitches.back(), 600.0);
  EXPECT_DOUBLE_EQ(pitches[1], 400.0);

  std::vector<PitchCdPoint> pts = {{300.0, 130.0}, {600.0, 110.0}};
  EXPECT_DOUBLE_EQ(pitch_cd_half_range(pts), 10.0);
}

TEST(PitchCurve, SpacingTableConversion) {
  std::vector<PitchCdPoint> pts = {{240.0, 95.0}, {690.0, 85.0}};
  const auto table = spacing_cd_table(pts, 90.0);
  EXPECT_DOUBLE_EQ(table.axis().front(), 150.0);
  EXPECT_DOUBLE_EQ(table.axis().back(), 600.0);
  EXPECT_DOUBLE_EQ(table.at(150.0), 95.0);
}

TEST(PitchCurve, SpacingTableRejectsFailures) {
  std::vector<PitchCdPoint> pts = {{240.0, 95.0}, {690.0, 0.0}};
  EXPECT_THROW(spacing_cd_table(pts, 90.0), PreconditionError);
}

// ------------------------------------------------------- Focus response

TEST(FocusResponse, CharacterBlendsSides) {
  const FocusResponse fr(FocusResponseParams{});
  EXPECT_NEAR(fr.line_character(150.0, 150.0), 1.0, 1e-12);
  EXPECT_NEAR(fr.line_character(600.0, 600.0), -1.0, 1e-12);
  EXPECT_NEAR(fr.line_character(150.0, 600.0), 0.0, 1e-12);
}

TEST(FocusResponse, QuadraticInDefocus) {
  const FocusResponse fr(FocusResponseParams{});
  const Nm d1 = fr.delta_cd(90.0, 150.0, 150.0, 150.0, 1.0);
  const Nm d2 = fr.delta_cd(90.0, 150.0, 150.0, 300.0, 1.0);
  EXPECT_NEAR(d2 / d1, 4.0, 1e-9);
  // Symmetric in sign of defocus.
  EXPECT_NEAR(fr.delta_cd(90.0, 150.0, 150.0, -300.0, 1.0), d2, 1e-12);
}

TEST(FocusResponse, SmileFrownAmplitudes) {
  FocusResponseParams p;
  const FocusResponse fr(p);
  const Nm smile = fr.delta_cd(90.0, 150.0, 150.0, 300.0, 1.0);
  const Nm frown = fr.delta_cd(90.0, 600.0, 600.0, 300.0, 1.0);
  EXPECT_NEAR(smile, 90.0 * p.smile_gain, 1e-9);
  EXPECT_NEAR(frown, -90.0 * p.frown_gain, 1e-9);
}

TEST(PrintModel, ComposesNominalAndFocus) {
  const LithoProcess proc(default_optics(), 90.0, 240.0);
  const PrintModel model(proc, FocusResponseParams{}, 600.0);
  const Nm nominal = model.printed_cd(90.0, 150.0, 150.0, 0.0, 1.0);
  const Nm defocused = model.printed_cd(90.0, 150.0, 150.0, 300.0, 1.0);
  EXPECT_GT(defocused, nominal);  // dense smiles
  const Nm iso0 = model.printed_cd(90.0, 600.0, 600.0, 0.0, 1.0);
  const Nm iso3 = model.printed_cd(90.0, 600.0, 600.0, 300.0, 1.0);
  EXPECT_LT(iso3, iso0);  // iso frowns
}

// ------------------------------------------------------------- Bossung

TEST(Bossung, FamilyShapesAndCurvature) {
  const LithoProcess proc(default_optics(), 90.0, 240.0);
  const PrintModel model(proc, FocusResponseParams{}, 600.0);
  // Build Bossung curves through the PrintModel-style evaluation.
  const auto axis = defocus_sweep(300.0, 7);
  BossungCurve dense;
  dense.pitch = 240.0;
  dense.defocus = axis;
  BossungCurve iso;
  iso.pitch = 2000.0;
  iso.defocus = axis;
  for (Nm dz : axis) {
    dense.cd.push_back(model.printed_cd(90.0, 150.0, 150.0, dz, 1.0));
    iso.cd.push_back(model.printed_cd(90.0, 1910.0, 1910.0, dz, 1.0));
  }
  EXPECT_GT(bossung_curvature(dense), 0.0);  // smile
  EXPECT_LT(bossung_curvature(iso), 0.0);    // frown
}

TEST(Bossung, DefocusSweepSymmetric) {
  const auto axis = defocus_sweep(300.0, 7);
  ASSERT_EQ(axis.size(), 7u);
  EXPECT_DOUBLE_EQ(axis.front(), -300.0);
  EXPECT_DOUBLE_EQ(axis.back(), 300.0);
  EXPECT_DOUBLE_EQ(axis[3], 0.0);
}

TEST(Bossung, RawSimulationFamily) {
  const LithoProcess proc(default_optics(), 90.0, 240.0);
  const auto family = bossung_family(proc, 90.0, 240.0,
                                     defocus_sweep(200.0, 5), {0.95, 1.05});
  ASSERT_EQ(family.size(), 2u);
  for (const auto& curve : family) {
    EXPECT_EQ(curve.cd.size(), 5u);
    // Lower dose prints wider lines at every defocus.
  }
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_GT(family[0].cd[i], family[1].cd[i]);
}

TEST(Bossung, FemHalfRangePositive) {
  const LithoProcess proc(default_optics(), 90.0, 240.0);
  const auto fem = build_fem(proc, 90.0, {240.0, 400.0},
                             defocus_sweep(200.0, 5), {1.0});
  ASSERT_EQ(fem.entries.size(), 2u);
  EXPECT_GT(fem.focus_half_range(), 0.0);
}

TEST(Bossung, FemEntryIndexing) {
  const LithoProcess proc(default_optics(), 90.0, 240.0);
  const auto fem =
      build_fem(proc, 90.0, {240.0}, defocus_sweep(200.0, 3), {0.9, 1.1});
  const auto& e = fem.entries[0];
  EXPECT_EQ(e.cd.size(), 6u);
  // Best focus, low dose prints wider than high dose.
  EXPECT_GT(e.cd_at(1, 0), e.cd_at(1, 1));
}

// Property sweep: through-pitch CD at nominal focus decreases
// monotonically across the paper's 300..600 nm window for several
// linewidths.
class PitchMonotone : public ::testing::TestWithParam<double> {};

TEST_P(PitchMonotone, DecreasingInWindow) {
  const double lw = GetParam();
  const LithoProcess proc(default_optics(), lw, lw + 170.0);
  const auto curve = through_pitch_curve(
      proc, lw, {lw + 170.0, lw + 270.0, lw + 370.0, lw + 470.0});
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_LT(curve[i].cd, curve[i - 1].cd + 1.0)
        << "linewidth " << lw << " index " << i;
}

INSTANTIATE_TEST_SUITE_P(Linewidths, PitchMonotone,
                         ::testing::Values(90.0, 110.0, 130.0));

}  // namespace
}  // namespace sva
