#include "litho/aerial.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace sva {

ImageProfile::ImageProfile(Nm period,
                           std::vector<std::complex<double>> coefficients)
    : period_(period), b_(std::move(coefficients)) {
  SVA_REQUIRE(period_ > 0.0);
  SVA_REQUIRE(!b_.empty());
}

double ImageProfile::intensity(Nm x) const {
  const double base = 2.0 * std::numbers::pi * x / period_;
  double v = b_[0].real();
  for (std::size_t k = 1; k < b_.size(); ++k) {
    const double phase = base * static_cast<double>(k);
    v += 2.0 * (b_[k].real() * std::cos(phase) -
                b_[k].imag() * std::sin(phase));
  }
  // Numerical round-off can produce tiny negative values in dark regions.
  return std::max(v, 0.0);
}

std::vector<double> ImageProfile::sample(std::size_t n) const {
  SVA_REQUIRE(n >= 2);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = intensity(period_ * static_cast<double>(i) /
                       static_cast<double>(n));
  return out;
}

double ImageProfile::mean_intensity() const { return b_[0].real(); }

double ImageProfile::sampled_min() const {
  const auto s = sample(512);
  return *std::min_element(s.begin(), s.end());
}

double ImageProfile::sampled_max() const {
  const auto s = sample(512);
  return *std::max_element(s.begin(), s.end());
}

AerialImageSimulator::AerialImageSimulator(const OpticsConfig& optics)
    : optics_(optics), source_(sample_annular_source(optics)) {}

AerialImageSimulator::Tcc AerialImageSimulator::compute_tcc(
    Nm period, Nm defocus) const {
  const int n_max = static_cast<int>(
      std::ceil(period * optics_.max_frequency()));
  const int n_ord = 2 * n_max + 1;
  Tcc tcc;
  tcc.n_max = n_max;
  tcc.t.assign(static_cast<std::size_t>(n_ord) * n_ord, 0.0);

  std::vector<std::complex<double>> pupil(static_cast<std::size_t>(n_ord));
  const double inv_lambda = 1.0 / optics_.wavelength;
  for (const SourcePoint& s : source_) {
    const double beta = s.sy * optics_.na;
    for (int n = -n_max; n <= n_max; ++n) {
      const double alpha =
          optics_.wavelength * static_cast<double>(n) / period +
          s.sx * optics_.na;
      const double rho2 = alpha * alpha + beta * beta;
      std::complex<double> p = 0.0;
      if (rho2 <= optics_.na * optics_.na) {
        // Exact scalar defocus phase; clamp the radicand against round-off.
        const double cos_theta = std::sqrt(std::max(0.0, 1.0 - rho2));
        const double phase =
            2.0 * std::numbers::pi * inv_lambda * defocus * (1.0 - cos_theta);
        p = std::polar(1.0, phase);
      }
      pupil[static_cast<std::size_t>(n + n_max)] = p;
    }
    for (int n = 0; n < n_ord; ++n) {
      const auto pn = pupil[static_cast<std::size_t>(n)];
      if (pn == std::complex<double>(0.0)) continue;
      for (int m = 0; m < n_ord; ++m) {
        const auto pm = pupil[static_cast<std::size_t>(m)];
        if (pm == std::complex<double>(0.0)) continue;
        tcc.t[static_cast<std::size_t>(n) * n_ord + m] +=
            s.weight * pn * std::conj(pm);
      }
    }
  }
  return tcc;
}

const AerialImageSimulator::Tcc& AerialImageSimulator::tcc_for(
    Nm period, Nm defocus) const {
  const auto key = std::make_pair(
      static_cast<long long>(std::llround(period * 1000.0)),
      static_cast<long long>(std::llround(defocus * 1000.0)));
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(key);
  if (it == cache_.end())
    it = cache_.emplace(key, compute_tcc(period, defocus)).first;
  return it->second;
}

ImageProfile AerialImageSimulator::image(const MaskPattern1D& mask,
                                         Nm defocus) const {
  images_computed_.fetch_add(1, std::memory_order_relaxed);
  const Tcc& tcc = tcc_for(mask.period(), defocus);
  const int n_max = tcc.n_max;
  const int n_ord = 2 * n_max + 1;

  std::vector<std::complex<double>> c(static_cast<std::size_t>(n_ord));
  for (int n = -n_max; n <= n_max; ++n)
    c[static_cast<std::size_t>(n + n_max)] = mask.fourier_coefficient(n);

  // b_k = sum_n TCC(n, n-k) c_n conj(c_{n-k}), k = 0 .. 2*n_max.
  std::vector<std::complex<double>> b(static_cast<std::size_t>(2 * n_max + 1),
                                      0.0);
  for (int k = 0; k <= 2 * n_max; ++k) {
    std::complex<double> acc = 0.0;
    for (int n = -n_max + k; n <= n_max; ++n) {
      const int m = n - k;
      acc += tcc.t[static_cast<std::size_t>(n + n_max) * n_ord +
                   (m + n_max)] *
             c[static_cast<std::size_t>(n + n_max)] *
             std::conj(c[static_cast<std::size_t>(m + n_max)]);
    }
    b[static_cast<std::size_t>(k)] = acc;
  }

  // Resist diffusion: Gaussian blur of the intensity, exact in Fourier
  // space.  G(f) = exp(-2 pi^2 sigma^2 f^2) with f = k / period.
  const double sigma = optics_.resist_diffusion_length;
  if (sigma > 0.0) {
    const double c = 2.0 * std::numbers::pi * std::numbers::pi * sigma *
                     sigma / (mask.period() * mask.period());
    for (std::size_t k = 1; k < b.size(); ++k)
      b[k] *= std::exp(-c * static_cast<double>(k) * static_cast<double>(k));
  }
  return ImageProfile(mask.period(), std::move(b));
}

}  // namespace sva
