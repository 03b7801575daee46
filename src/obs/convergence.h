#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "src/obs/metrics.h"

namespace mto {
namespace obs {

/// Estimator-quality telemetry derived at a snapshot point: the bridge
/// between src/mcmc's convergence diagnostics and the metrics surface.
///
/// All fields are pure functions of the streams passed in — the same
/// checkpoint-replayable streams the crawl driver already keeps — so
/// computing them mutates nothing and draws no randomness (passivity,
/// DESIGN.md §11). Non-finite values (e.g. Geweke Z before either window
/// has data) are simply not published.
struct EstimateTelemetry {
  double estimate = 0.0;      ///< the running estimate passed in
  double geweke_z = 0.0;      ///< paper eq. 14 form over the diag trace
  double ess = 0.0;           ///< initial-positive-sequence ESS of values
  double ci_halfwidth = 0.0;  ///< 1.96 * sqrt(weighted_var / ess)
  size_t num_samples = 0;

  bool has_estimate = false;
  bool has_geweke = false;
  bool has_ess = false;
  bool has_ci = false;
};

/// Computes the telemetry from the burn-in diagnostics trace, the
/// collected (value, weight) sample streams, and the crawl's running
/// self-normalized estimate over those samples (nullopt until a positively
/// weighted sample arrived). The estimate is published as given and centres
/// the CI variance; it is not re-summed here. `values` and `weights` must be
/// the same length.
EstimateTelemetry ComputeEstimateTelemetry(std::span<const double> diagnostics,
                                           std::span<const double> values,
                                           std::span<const double> weights,
                                           std::optional<double> estimate);

/// Publishes the telemetry as double gauges: estimate.current,
/// estimate.geweke_z, estimate.ess, estimate.ci_halfwidth, plus the integer
/// gauge estimate.samples. Fields whose has_* flag is false are skipped (a
/// gauge never published simply stays absent from the snapshot).
void PublishEstimateTelemetry(MetricsRegistry& registry,
                              const EstimateTelemetry& telemetry);

}  // namespace obs
}  // namespace mto
