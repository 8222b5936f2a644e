#pragma once

#include <functional>
#include <string>

#include "bench.h"

namespace armusbench {

/// One measured phase of a run: warm up, then measure for `seconds`.
struct PhaseSpec {
  double warmup_s = 1.0;
  double seconds = 10.0;
  /// The workload's state is built at least `setups` times, and again until
  /// the builds took `setup_budget_s` in total (at most kMaxSetups). The
  /// calm builds' time is the phase's set-up time; the last build is the
  /// one measured.
  int setups = 1;
  double setup_budget_s = 0;
  /// Traced phase: stores are wrapped in the timing decorators and the
  /// workload fills `layers` with the program's own counters.
  bool traced = false;
};

struct PhaseResult {
  explicit PhaseResult(double window_s) : meter(window_s) {}
  Meter meter;
  double setup_s = 0;
  Metrics layers;
};

using WorkloadFn = void (*)(const Options&, const PhaseSpec&, PhaseResult&);

void run_avoid_local(const Options&, const PhaseSpec&, PhaseResult&);
void run_barrier_kv(const Options&, const PhaseSpec&, PhaseResult&);
void run_sites_kv(const Options&, const PhaseSpec&, PhaseResult&);
void run_predict_trace(const Options&, const PhaseSpec&, PhaseResult&);

inline constexpr int kMaxSetups = 1000;

/// Times `build` as PhaseSpec describes, each build on the next CPU, and
/// returns the calm builds' duration in seconds: the 10th percentile, the
/// median of the fastest fifth, as Meter does with windows. `build` must
/// leave the last state in place.
template <class Build>
double timed_setups(const PhaseSpec& spec, Build&& build) {
  std::vector<double> times;
  double total = 0;
  while (static_cast<int>(times.size()) < spec.setups ||
         (total < spec.setup_budget_s &&
          static_cast<int>(times.size()) < kMaxSetups)) {
    pin_next_cpu();
    std::uint64_t start = now_ns();
    build();
    times.push_back(static_cast<double>(now_ns() - start) / 1e9);
    total += times.back();
  }
  return percentile(times, 10);
}

/// Runs `iteration` in a closed loop: first for `spec.warmup_s` with the
/// meter not recording, then for `spec.seconds` measured (and traced, in a
/// traced phase). `iteration(meter, op)` performs one op and reports it; it
/// returns the work units completed. `on_measure`, when set, runs once as
/// the measured part begins.
template <class Iteration>
void closed_loop(const PhaseSpec& spec, Meter& meter, Iteration&& iteration,
                 const std::function<void()>& on_measure = {}) {
  std::uint64_t op = 0;
  const std::uint64_t warm_end =
      now_ns() + static_cast<std::uint64_t>(spec.warmup_s * 1e9);
  meter.set_recording(false);
  while (now_ns() < warm_end) iteration(meter, op++);
  if (on_measure) on_measure();
  meter.set_recording(true);
  if (spec.traced) tracing_enable(true);
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(spec.seconds * 1e9);
  std::uint64_t last = now_ns();
  while (last < end) {
    tracing_set_op(op);
    double units = iteration(meter, op++);
    std::uint64_t now = now_ns();
    meter.work(units, static_cast<double>(now - last) / 1e9);
    last = now;
  }
  tracing_enable(false);
}

}  // namespace armusbench
