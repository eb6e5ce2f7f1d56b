// Shared plumbing of the benchmark driver: the run configuration, the
// result it prints, wall-clock helpers, order statistics, CPU pinning and
// the machine fingerprint.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/// Everything one run reports. `end_to_end` carries the generic metrics of
/// the final JSON line (untraced runs), `named` the workload's own metric
/// names for the detail line, `layers` the per-layer ledger (traced runs).
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  MetricMap end_to_end;
  MetricMap named;
  MetricMap layers;
  /// Per-layer metrics taken from a small probe of a layer the workload
  /// does not exercise itself (see README.md).
  std::vector<std::string> probed;
  std::map<std::string, std::string> notes;

  /// Counts one checked operation; a false `ok` marks it failed.
  void Op(bool ok, const std::string& what);
  /// A whole-run check: failing it fails one operation and the run.
  void Check(bool ok, const std::string& what);
  bool correct() const { return failed == 0 && failures.empty(); }
};

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double SecondsSince(Clock::time_point a) {
  return Seconds(a, Clock::now());
}

/// Median of `v` (sorted copy); 0 for an empty vector.
double Median(std::vector<double> v);

/// Linear-interpolated quantile q in [0, 1] of an ascending vector.
double QuantileSorted(const std::vector<double>& sorted, double q);

/// The highest of p99 / p90 / p50 with at least ten samples beyond it,
/// falling back to the median for small samples (p99.9 is left out: its
/// ten samples made the figure too unsteady to gate on). Returns the
/// chosen percentile through `which` (e.g. 99.0).
double TailQuantile(std::vector<double> v, double* which);

/// Peak resident set size of this process so far, MB.
double PeakRssMb();

/// CPUs this process may run on, ascending.
std::vector<int> AllowedCpus();

/// Pins the calling thread to `cpu`; false when the kernel refuses.
bool PinThisThread(int cpu);

/// Pins the calling thread to `cpu` (none when negative) for one scope
/// and restores its previous CPU set afterwards, so later multi-threaded
/// phases of the run are not confined to one CPU.
class ScopedPin {
 public:
  explicit ScopedPin(int cpu);
  ~ScopedPin();
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool saved_ok_ = false;
};

/// Wall-clock cost of one Clock::now() pair, ns (median of many), used to
/// correct per-call timing decorators.
double TimerPairNs();

/// How slowly the host runs right now, relative to the host the
/// benchmark was tuned on: the wall time of a fixed floating-point kernel
/// of the benchmark's own (libm exp and log1p over 1024 doubles, no
/// library code) divided by kReferenceProbeSeconds. The shared host's
/// speed drifts by 20-50% over minutes, the same for the kernel and the
/// workloads; every gated time is divided by the slowness measured just
/// before it (rates multiplied), so figures taken an hour apart compare.
/// A change to the library moves the workloads and not the kernel.
double HostSlowness();

/// The kernel's wall time on the 4-CPU Intel Xeon host the benchmark was
/// tuned on.
constexpr double kReferenceProbeSeconds = 5e-3;

/// Repeated timings, each with the host's slowness read just before it.
struct Timed {
  std::vector<double> seconds;
  std::vector<double> slowness;
  /// Median of the times at reference host speed.
  double CorrectedMedian() const;
};

/// nproc, CPU model, L3 size, build type, RCBR_OBS and compiler.
std::map<std::string, std::string> Fingerprint();

/// True when compiled with AddressSanitizer or ThreadSanitizer.
bool SanitizerBuild();

/// "1.25 1.31 ..." — raw samples for the detail line.
std::string JoinSamples(const std::vector<double>& v);

/// Keeps `value` observable so replay loops are not optimized away.
void Sink(double value);

}  // namespace perfbench
