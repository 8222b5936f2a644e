#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// Shared plumbing of the armusbench binary: options, the metric sheet the
/// last output line is built from, sample summaries, the closed-loop meter
/// and the span tracer used by the traced run.
namespace armusbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double us_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1000.0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small sizes for the self-test: every code path, a fraction of the work.
  bool tiny = false;
  /// Fault injection for the self-test: every verdict gate expects one
  /// planted cycle more than was planted, so a correct run must fail.
  bool miscount = false;
  /// Directory for the workload's scratch files (trace recordings).
  std::string scratch_dir = ".bench_build/tmp";
  /// Traced run: where the span dump is written ("" = not written).
  std::string spans_out;
};

/// Ordered name -> value sheet; rendered as the "metrics" object. The
/// units, and which metrics a sheet reports, are declared once, in
/// BENCHMARK.json; run.py attaches them.
class Metrics {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  /// Copies every entry of `other` into this sheet.
  void merge(const Metrics& other);
  [[nodiscard]] std::string json() const;

 private:
  std::map<std::string, double> values_;
};

/// Nearest-rank percentile (p in (0, 100]) of `samples`; 0 when empty.
/// Sorts its argument.
double percentile(std::vector<double>& samples, double p);

/// A fixed-memory uniform sample of a stream (reservoir sampling with a
/// fixed seed). Its slots are allocated and touched up front, so the
/// benchmark's resident set does not grow with the op count: a faster
/// program must not read as a bigger one.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity) : slots_(capacity, 0.0) {}
  void add(double value);
  /// Values offered so far (kept or not).
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// The kept values.
  [[nodiscard]] std::vector<double> samples() const;

 private:
  std::vector<double> slots_;
  std::uint64_t count_ = 0;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
};

double percentile(const Reservoir& samples, double p);


/// Moves every thread of this process onto one CPU: the next one of the
/// CPUs the process started with, round robin. Threads created later
/// inherit the pin.
void pin_next_cpu();

/// Closed-loop accounting of one measured phase: per-op latencies (planted
/// cycle ops kept apart as detection samples), the work rate, and the
/// attempted/failed tally the verdict gates feed.
///
/// The measured time is cut into fixed-length windows, and the statistics
/// come from the calm windows: the fifth of the windows with the highest
/// rate. On a shared virtual machine a vCPU slows by 20-50% for seconds to
/// minutes whenever a host neighbour loads the core behind it, and each
/// window runs on the next vCPU. Interference only ever slows a window
/// down, so the calm windows carry the program's own cost, as the minimum
/// of repeated timings does; a change to the program moves every window,
/// the calm ones included.
class Meter {
 public:
  explicit Meter(double window_seconds) : window_s_(window_seconds) {}

  /// Warm-up: samples and work are dropped, attempts and failures count.
  /// Recording starts on the next CPU (see pin_next_cpu).
  void set_recording(bool on) {
    recording_ = on;
    if (on) pin_next_cpu();
  }
  void op(double us);
  void detect(double us);
  /// `units` of work completed over `seconds` of wall time; closes the
  /// current window once it spans `window_seconds`.
  void work(double units, double seconds);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why);

  /// Units per second over the calm windows.
  [[nodiscard]] double rate() const;
  /// Median of the op / detection samples of the calm windows.
  [[nodiscard]] double op_p50() const;
  [[nodiscard]] double detect_p50() const;
  /// Every measured sample, for the tails of the traced run.
  [[nodiscard]] const Reservoir& ops() const { return op_us_; }
  [[nodiscard]] const Reservoir& detects() const { return detect_us_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  /// Samples kept per window and stream: enough for a median, and a fixed
  /// amount, so a faster program does not hold more.
  static constexpr std::size_t kWindowSamples = 512;

  struct Window {
    double units = 0;
    double seconds = 0;
    Reservoir ops{kWindowSamples};
    Reservoir detects{kWindowSamples};
  };

  Window& open_window();
  /// The calm windows: the closed ones (or the open one, when none closed)
  /// with the highest rates, a fifth of them and at least one.
  [[nodiscard]] std::vector<const Window*> calm() const;
  [[nodiscard]] double calm_median(Reservoir Window::*stream) const;

  double window_s_;
  bool recording_ = true;
  /// Every window so far; the last one is open.
  std::vector<Window> windows_;
  Reservoir op_us_{std::size_t{1} << 18};
  Reservoir detect_us_{std::size_t{1} << 16};
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// When a workload plants its next cycle: at a fixed rate in wall time, so
/// the number of plants in a run, and the reports the program keeps for
/// them, do not grow with the program's speed.
class PlantClock {
 public:
  explicit PlantClock(double per_second)
      : period_ns_(static_cast<std::uint64_t>(1e9 / per_second)),
        next_ns_(now_ns() + period_ns_) {}

  /// True when a plant is due. The next one is due one period later, or one
  /// period from now when the program fell more than a period behind.
  bool due() {
    const std::uint64_t now = now_ns();
    if (now < next_ns_) return false;
    next_ns_ += period_ns_;
    if (next_ns_ <= now) next_ns_ = now + period_ns_;
    return true;
  }

 private:
  std::uint64_t period_ns_;
  std::uint64_t next_ns_;
};

// --- Tracing ---------------------------------------------------------------

/// One closed span. `parent` indexes the same thread's buffer (-1 = root);
/// `self_ns` is the duration minus what child spans covered.
struct SpanRecord {
  const char* name = nullptr;
  std::int64_t parent = -1;
  std::uint64_t op = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Per-name duration and self-time samples, in µs.
struct SpanSamples {
  std::vector<double> total_us;
  std::vector<double> self_us;
};

/// Switches span recording on for the whole process (the traced phase) or
/// off (the default: Span is then one predictable branch).
void tracing_enable(bool on);
bool tracing_enabled();

/// Tags spans opened on this thread from now on with `op`.
void tracing_set_op(std::uint64_t op);

/// Every span recorded so far, grouped by name.
std::map<std::string, SpanSamples> tracing_collect();

/// Spans dropped because a thread's buffer was full.
std::uint64_t tracing_dropped();

/// Writes every recorded span as CSV (thread,index,name,parent,op,start_ns,
/// end_ns,self_ns). Returns false when the file cannot be written.
bool tracing_write(const std::string& path);

/// RAII span at a layer boundary.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

}  // namespace armusbench
