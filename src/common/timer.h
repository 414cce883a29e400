// Wall-clock timing utilities used by the benchmark harnesses and the
// running-time experiments (Figures 3, 4, 7, 8).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace pane {

/// \brief Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// \brief Accumulates the elapsed time of a scope into a double (seconds).
///
/// Usage:
///   double affinity_seconds = 0;
///   { ScopedTimer t(&affinity_seconds); RunAffinity(); }
class ScopedTimer {
 public:
  explicit ScopedTimer(double* sink) : sink_(sink) {}
  ~ScopedTimer() { *sink_ += timer_.ElapsedSeconds(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* sink_;
  WallTimer timer_;
};

/// \brief "1.23 s" / "45.6 ms" / "789 us" style formatting for reports.
std::string FormatDuration(double seconds);

// Monotonic (steady_clock) readings since an arbitrary epoch. These are the
// serving stack's only clocks: tools/lint.sh Rule 4 bans std::chrono inside
// src/serve/, so deadline bookkeeping uses these and latency accounting
// goes through src/obs/ histograms fed from them.
int64_t MonotonicNanos();
int64_t MonotonicMicros();
int64_t MonotonicMillis();

}  // namespace pane
