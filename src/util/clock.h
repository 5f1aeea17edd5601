// Clock abstractions.
//
// Lease lifetimes and SLA measurement both need a time source. Production
// code uses SteadyClock (monotonic); unit tests that exercise lease expiry
// use ManualClock so expiration is deterministic.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace iq {

/// Monotonic time in nanoseconds since an arbitrary epoch.
using Nanos = std::int64_t;

constexpr Nanos kNanosPerMicro = 1'000;
constexpr Nanos kNanosPerMilli = 1'000'000;
constexpr Nanos kNanosPerSec = 1'000'000'000;

/// base + n * unit, clamped to the range of Nanos instead of overflowing: a
/// duration or deadline read off the wire past that range becomes the
/// farthest one, which no clock reaches ("never expires").
constexpr Nanos SaturatingAdd(Nanos base, Nanos n, Nanos unit = 1) {
  Nanos scaled = 0, sum = 0;
  if (!__builtin_mul_overflow(n, unit, &scaled) &&
      !__builtin_add_overflow(base, scaled, &sum)) {
    return sum;
  }
  return (n < 0) != (unit < 0) ? std::numeric_limits<Nanos>::min()
                               : std::numeric_limits<Nanos>::max();
}

/// Abstract monotonic time source.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Current time in nanoseconds. Must be non-decreasing.
  virtual Nanos Now() const = 0;
};

/// Wall clock backed by std::chrono::steady_clock.
class SteadyClock final : public Clock {
 public:
  Nanos Now() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Process-wide shared instance.
  static SteadyClock& Instance();
};

/// Deterministic clock advanced explicitly by tests.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(Nanos start = 0) : now_(start) {}

  Nanos Now() const override { return now_.load(std::memory_order_acquire); }

  void Advance(Nanos delta) { now_.fetch_add(delta, std::memory_order_acq_rel); }
  void Set(Nanos t) { now_.store(t, std::memory_order_release); }

 private:
  std::atomic<Nanos> now_;
};

/// Lazily-read, cached timestamp for one logical operation: the clock is
/// consulted on the first call and the same value returned thereafter, so
/// code paths that never need the time pay nothing and paths that need it
/// several times (expiry check, lease deadline, trace record) pay for one
/// read. Can be pre-seeded with a known time for batch loops.
class LazyNow {
 public:
  explicit LazyNow(const Clock& clock) : clock_(&clock) {}
  explicit LazyNow(Nanos known) : clock_(nullptr), value_(known), set_(true) {}

  Nanos operator()() const {
    if (!set_) {
      value_ = clock_->Now();
      set_ = true;
    }
    return value_;
  }

 private:
  const Clock* clock_;
  mutable Nanos value_ = 0;
  mutable bool set_ = false;
};

/// RAII stopwatch measuring elapsed time against a Clock.
class Stopwatch {
 public:
  explicit Stopwatch(const Clock& clock) : clock_(clock), start_(clock.Now()) {}

  Nanos ElapsedNanos() const { return clock_.Now() - start_; }
  double ElapsedMillis() const {
    return static_cast<double>(ElapsedNanos()) / kNanosPerMilli;
  }
  void Restart() { start_ = clock_.Now(); }

 private:
  const Clock& clock_;
  Nanos start_;
};

}  // namespace iq
