#pragma once
// Partially coherent aerial-image computation for 1-D periodic masks.
//
// Hopkins formulation specialized to 1-D periodic objects: with mask
// Fourier coefficients c_n, the image is
//
//   I(x) = sum_{n,m} TCC(n, m) c_n conj(c_m) exp(i 2 pi (n - m) x / p)
//
// where the transmission cross-coefficients
//
//   TCC(n, m) = sum_s w(s) P_s(n) conj(P_s(m))
//
// integrate, over the discretized annular source, the (defocus-aberrated)
// pupil evaluated at each diffraction order shifted by the source point.
// Defocus enters as the exact scalar phase
// (2 pi / lambda) * dz * (1 - sqrt(1 - alpha^2 - beta^2)) with alpha/beta
// the direction cosines of the order as launched by the source point.
//
// The TCC depends only on (period, defocus, optics), not on the mask
// contents, so it is cached: OPC iterations that re-simulate an edited mask
// at a fixed supercell period reuse the same TCC and only recompute the
// O(N^2) coefficient contraction.  image() is safe to call concurrently:
// the cache is filled under a lock (each TCC is computed once, by the first
// caller) and its map nodes never move, so a returned TCC stays valid.
//
// The resulting image is stored as a short cosine series (class
// ImageProfile), which can be evaluated exactly at any x; CD measurement
// then uses bisection on the analytic profile instead of grid sampling.

#include <atomic>
#include <complex>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "litho/mask1d.hpp"
#include "litho/optics.hpp"
#include "util/units.hpp"

namespace sva {

/// Aerial-image intensity over one mask period, stored as Fourier series
/// I(x) = b_0 + 2 sum_{k>=1} Re(b_k exp(i 2 pi k x / p)).
class ImageProfile {
 public:
  ImageProfile(Nm period, std::vector<std::complex<double>> coefficients);

  Nm period() const { return period_; }

  /// Exact intensity at x (periodic in x).
  double intensity(Nm x) const;

  /// Sample n evenly spaced points over one period (for plotting/tests).
  std::vector<double> sample(std::size_t n) const;

  /// Mean intensity over the period (== b_0).
  double mean_intensity() const;

  /// Minimum / maximum of n-point sampling (n = 512), for contrast checks.
  double sampled_min() const;
  double sampled_max() const;

 private:
  Nm period_;
  std::vector<std::complex<double>> b_;  // b_[k], k = 0..K
};

/// Abbe/Hopkins imaging engine with TCC caching.
class AerialImageSimulator {
 public:
  explicit AerialImageSimulator(const OpticsConfig& optics);

  /// Image of `mask` at the given defocus (nm; 0 = best focus).
  /// Exposure dose is not applied here -- it scales intensity linearly and
  /// is handled by the resist model.
  ImageProfile image(const MaskPattern1D& mask, Nm defocus) const;

  const OpticsConfig& optics() const { return optics_; }

  /// Number of distinct TCCs computed so far (cache statistics; used by
  /// tests and the OPC runtime accounting).
  std::size_t tcc_cache_size() const {
    std::lock_guard<std::mutex> lock(cache_mu_);
    return cache_.size();
  }

  /// Total images computed (proxy for simulation work; the Table 1
  /// runtime comparison uses wall-clock, this is for sanity checks).
  std::size_t images_computed() const {
    return images_computed_.load(std::memory_order_relaxed);
  }

 private:
  struct Tcc {
    int n_max = 0;
    // Row-major (2*n_max+1)^2 matrix, index (n + n_max, m + n_max).
    std::vector<std::complex<double>> t;
  };

  const Tcc& tcc_for(Nm period, Nm defocus) const;
  Tcc compute_tcc(Nm period, Nm defocus) const;

  OpticsConfig optics_;
  std::vector<SourcePoint> source_;
  // Cache key: (period, defocus) quantized to 1e-3 nm.
  mutable std::mutex cache_mu_;
  mutable std::map<std::pair<long long, long long>, Tcc> cache_;
  mutable std::atomic<std::size_t> images_computed_{0};
};

}  // namespace sva
