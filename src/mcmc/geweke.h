#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mto {

/// Geweke convergence diagnostic (paper Section V-A.3, eq. 14).
///
/// Given the trace of a scalar attribute theta along the walk (degree is the
/// paper's default), window A is the first `first_frac` of the trace and
/// window B the last `last_frac`; the walk is declared converged when
///
///   Z = |mean_A - mean_B| / sqrt(S_A + S_B)
///
/// falls below a threshold. By default S_A/S_B are the window variances —
/// the form printed in the paper (eq. 14), whose natural thresholds are the
/// paper's 0.01..1 range. Setting `use_standard_error` divides each variance
/// by its window length, giving the classical Geweke Z-score instead.
struct GewekeOptions {
  double first_frac = 0.1;
  double last_frac = 0.5;
  bool use_standard_error = false;
};

/// Computes the Geweke Z statistic for a full trace. Returns +infinity when
/// either window is empty or both windows have zero variance but different
/// means; returns 0 when both windows are empty-variance with equal means.
double GewekeZ(std::span<const double> trace, const GewekeOptions& options = {});

/// Incremental convergence monitor over a growing trace.
///
/// Usage: Add(theta) once per walk step; Converged() re-evaluates the Z
/// statistic every `check_every` additions once `min_length` observations
/// have accumulated.
class GewekeMonitor {
 public:
  /// `threshold` is the Z cutoff (paper default 0.1).
  explicit GewekeMonitor(double threshold = 0.1, size_t min_length = 200,
                         size_t check_every = 50, GewekeOptions options = {});

  /// Appends one observation of the monitored attribute.
  void Add(double theta);

  /// True once the Z statistic has dropped to or below the threshold.
  /// Sticky: once converged, stays converged.
  bool Converged();

  /// Add() then Converged() for each value in order, and returns
  /// Converged(): true when any check within the span passed. Checking
  /// after every value keeps the check schedule a function of the stream
  /// alone, however the stream is split into spans (burn-in epochs, a
  /// checkpoint replay).
  bool AddAll(std::span<const double> thetas);

  /// Most recently computed Z (infinity before the first evaluation).
  double last_z() const { return last_z_; }

  /// Number of observations so far.
  size_t length() const { return trace_.size(); }

  /// The full trace (for offline analysis).
  const std::vector<double>& trace() const { return trace_; }

  /// Drops all state (new walk).
  void Reset();

 private:
  double threshold_;
  size_t min_length_;
  size_t check_every_;
  GewekeOptions options_;
  std::vector<double> trace_;
  size_t next_check_;
  bool converged_ = false;
  double last_z_;
};

}  // namespace mto
