// Latency histogram with percentile queries.
//
// SoAR (Section 6.1 of the paper) is defined by an SLA on the 95th
// percentile of action response times, so the benchmark harness needs an
// accurate, cheap percentile estimator. We use logarithmic bucketing
// (HdrHistogram-style): ~1% relative error, O(1) record, O(buckets) query.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/clock.h"

namespace iq {

class LatencyHistogram {
 public:
  LatencyHistogram();

  /// Record one latency observation (nanoseconds, >= 0).
  void Record(Nanos value);

  /// Merge another histogram into this one (for per-thread aggregation).
  void Merge(const LatencyHistogram& other);

  std::uint64_t Count() const { return count_; }
  Nanos Min() const;
  Nanos Max() const { return max_; }
  double MeanNanos() const;

  /// Value at quantile q in [0, 1]. Returns 0 for an empty histogram.
  Nanos Percentile(double q) const;

  /// Fraction of observations <= threshold. Returns 1 for empty.
  double FractionBelow(Nanos threshold) const;

  void Reset();

  /// Human-readable one-line summary (ms units).
  std::string Summary() const;

 private:
  static constexpr int kSubBuckets = 32;  // per power of two
  static constexpr int kMaxPow = 44;      // covers ~4.8 hours in ns

  static int BucketFor(Nanos value);
  static Nanos BucketUpperBound(int bucket);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  Nanos min_ = 0;
  Nanos max_ = 0;
  double sum_ = 0;
};

/// Thread-striped latency histograms keyed by a small class index (e.g. one
/// class per server command). Record() locks only the calling thread's
/// stripe, so concurrent recorders from different threads rarely contend;
/// Merged() folds every stripe's histogram for one class into a snapshot.
/// Histograms are allocated lazily, so an idle recorder costs a few pointers.
class StripedLatencyRecorder {
 public:
  explicit StripedLatencyRecorder(std::size_t num_classes,
                                  std::size_t num_stripes = 16);

  /// Record one observation for `cls` (< num_classes).
  void Record(std::size_t cls, Nanos value);

  /// Snapshot of all observations for `cls` across stripes.
  LatencyHistogram Merged(std::size_t cls) const;

  std::size_t num_classes() const { return num_classes_; }

 private:
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    /// Lazily allocated, one slot per class.
    std::vector<std::unique_ptr<LatencyHistogram>> per_class;
  };

  Stripe& StripeForThisThread();

  std::size_t num_classes_;
  std::vector<Stripe> stripes_;
};

}  // namespace iq
