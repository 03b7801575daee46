#include "src/mcmc/geweke.h"

#include <cmath>
#include <limits>

#include "src/util/stats.h"

namespace mto {

double GewekeZ(std::span<const double> trace, const GewekeOptions& options) {
  const size_t n = trace.size();
  const size_t len_a = static_cast<size_t>(options.first_frac * static_cast<double>(n));
  const size_t len_b = static_cast<size_t>(options.last_frac * static_cast<double>(n));
  if (len_a == 0 || len_b == 0) return std::numeric_limits<double>::infinity();
  RunningStats a, b;
  for (size_t i = 0; i < len_a; ++i) a.Add(trace[i]);
  for (size_t i = n - len_b; i < n; ++i) b.Add(trace[i]);
  double va = a.SampleVariance();
  double vb = b.SampleVariance();
  if (options.use_standard_error) {
    va /= static_cast<double>(len_a);
    vb /= static_cast<double>(len_b);
  }
  const double denom = std::sqrt(va + vb);
  const double diff = std::abs(a.Mean() - b.Mean());
  if (denom == 0.0) {
    return diff == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return diff / denom;
}

GewekeMonitor::GewekeMonitor(double threshold, size_t min_length,
                             size_t check_every, GewekeOptions options)
    : threshold_(threshold),
      min_length_(min_length < 2 ? 2 : min_length),
      check_every_(check_every == 0 ? 1 : check_every),
      options_(options),
      next_check_(min_length_),
      last_z_(std::numeric_limits<double>::infinity()) {}

void GewekeMonitor::Add(double theta) { trace_.push_back(theta); }

bool GewekeMonitor::Converged() {
  if (converged_) return true;
  if (trace_.size() < next_check_) return false;
  last_z_ = GewekeZ(trace_, options_);
  next_check_ = trace_.size() + check_every_;
  if (last_z_ <= threshold_) converged_ = true;
  return converged_;
}

bool GewekeMonitor::AddAll(std::span<const double> thetas) {
  for (double theta : thetas) {
    Add(theta);
    Converged();
  }
  return Converged();
}

void GewekeMonitor::Reset() {
  trace_.clear();
  next_check_ = min_length_;
  converged_ = false;
  last_z_ = std::numeric_limits<double>::infinity();
}

}  // namespace mto
