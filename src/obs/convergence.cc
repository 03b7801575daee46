#include "src/obs/convergence.h"

#include <cmath>

#include "src/mcmc/diagnostics.h"
#include "src/mcmc/geweke.h"

namespace mto {
namespace obs {

EstimateTelemetry ComputeEstimateTelemetry(std::span<const double> diagnostics,
                                           std::span<const double> values,
                                           std::span<const double> weights,
                                           std::optional<double> estimate) {
  EstimateTelemetry t;
  t.num_samples = values.size();

  if (!diagnostics.empty()) {
    // Default GewekeOptions — the same eq. 14 form the burn-in monitor
    // applies, so the published value tracks the stopping rule.
    const double z = GewekeZ(diagnostics);
    if (std::isfinite(z)) {
      t.geweke_z = z;
      t.has_geweke = true;
    }
  }

  if (values.empty() || values.size() != weights.size() ||
      !estimate.has_value()) {
    return t;
  }
  t.estimate = *estimate;
  t.has_estimate = true;

  const double ess = EffectiveSampleSize(values);
  if (std::isfinite(ess) && ess > 0.0) {
    t.ess = ess;
    t.has_ess = true;
    // Self-normalized weighted variance around the estimate, discounted to
    // the chain's effective (not nominal) sample count: the honest width.
    double weight_sum = 0.0;
    double weighted_var = 0.0;
    for (size_t i = 0; i < values.size(); ++i) {
      const double d = values[i] - t.estimate;
      weight_sum += weights[i];
      weighted_var += weights[i] * d * d;
    }
    weighted_var /= weight_sum;
    const double half = 1.96 * std::sqrt(weighted_var / ess);
    if (std::isfinite(half)) {
      t.ci_halfwidth = half;
      t.has_ci = true;
    }
  }
  return t;
}

void PublishEstimateTelemetry(MetricsRegistry& registry,
                              const EstimateTelemetry& telemetry) {
  if (telemetry.has_estimate) {
    registry.GetDoubleGauge("estimate.current")->Set(telemetry.estimate);
  }
  if (telemetry.has_geweke) {
    registry.GetDoubleGauge("estimate.geweke_z")->Set(telemetry.geweke_z);
  }
  if (telemetry.has_ess) {
    registry.GetDoubleGauge("estimate.ess")->Set(telemetry.ess);
  }
  if (telemetry.has_ci) {
    registry.GetDoubleGauge("estimate.ci_halfwidth")
        ->Set(telemetry.ci_halfwidth);
  }
  registry.GetGauge("estimate.samples")
      ->Set(static_cast<int64_t>(telemetry.num_samples));
}

}  // namespace obs
}  // namespace mto
