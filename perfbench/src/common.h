// Shared pieces of rush_perfbench: timing, sample distributions, the
// stream digest, and the per-run report every workload fills in.

#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/cluster/job.h"
#include "src/common/types.h"

namespace perfbench {

/// The benchmark thread's CPU time (CLOCK_THREAD_CPUTIME_ID).  Every timing
/// uses it: on a shared cloud host the hypervisor takes the vCPU away for
/// milliseconds at a time (steal), which lands on whichever event is running
/// and sets the tails of wall-clock figures; thread CPU time leaves that out.
/// The measured paths never block (no fsync, no sockets, one thread), so
/// on an idle host CPU time equals wall time.
struct Clock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<Clock>;
  static constexpr bool is_steady = true;

  static time_point now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return time_point(duration(ts.tv_sec * 1000000000LL + ts.tv_nsec));
  }
};

/// Containers of every workload's cluster, on kNodes equal nodes.
inline constexpr rush::ContainerCount kCapacity = 48;
inline constexpr int kNodes = 6;

inline double micros_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// A distribution of per-event or per-pass values.  Quantiles use the
/// nearest-rank rule, so p99 of n samples leaves n - ceil(0.99 n) beyond it.
/// Past kCapacity values it keeps a uniform reservoir (fixed-seed, so
/// repeatable), so the benchmark's own memory does not grow with run length
/// and leak into peak_rss_mb.
class Samples {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 18;

  void add(double value);
  /// Adds every value of `other`, multiplied by `factor`.
  void append(const Samples& other, double factor = 1.0);
  /// Values offered, including those the reservoir dropped.
  std::size_t size() const { return seen_; }
  /// 0 when empty (a layer the workload never enters).
  double quantile(double q) const;
  double mean() const;
  /// Samples strictly beyond the nearest-rank quantile q.
  std::size_t beyond(double q) const;

 private:
  std::vector<double> values_;
  std::size_t seen_ = 0;
  std::uint64_t rng_ = 0x2545F4914F6CDD1DULL;
};

/// Streaming 64-bit FNV-1a over the frames of one session: the digest of
/// its grant-and-prediction stream.
class Digest {
 public:
  void add(std::string_view bytes);
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// True when two job-record lists match field for field, doubles compared
/// bit for bit.
bool same_records(const std::vector<rush::JobRecord>& a,
                  const std::vector<rush::JobRecord>& b);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// Host-speed reference.  On a shared cloud host the same code runs 20-50%
/// slower for seconds to minutes at a time, which swamps run-to-run
/// comparisons.  A fixed reference kernel that shares no code with the
/// scheduler is timed at the edges of every measured span and every
/// kProbeIntervalUs inside it; a span's durations are scaled to a host on
/// which the kernel takes kReferenceKernelUs, by the mean kernel time of
/// the probes that bracket that span.  The kernel is allocation- and
/// pointer-heavy (20000 updates of a hash map over 100000 keys, 5000 inserts
/// into an ordered map, then both freed), because that is the work whose
/// speed tracks the scheduler's across host slowdowns; a cache-resident sort
/// moved half as much.  A change to the scheduler moves the scaled figures
/// exactly as it moves the raw ones; a slower host moves the kernel too and
/// cancels out.  Raw figures stay on the detail line.
class HostSpeed {
 public:
  static constexpr double kReferenceKernelUs = 4000.0;
  static constexpr double kProbeIntervalUs = 100000.0;

  /// Times the kernel when kProbeIntervalUs have passed since the last
  /// probe; returns the seconds spent probing (0 when it did not probe).
  double maybe_probe();
  /// Times the kernel now; the probe opens a span (returned as its index).
  std::size_t open_span();
  /// Times the kernel now, closing the span opened at `start`, and returns
  /// kReferenceKernelUs over the mean kernel time of the span's probes: the
  /// factor that turns a duration measured in the span into the reference
  /// host's.
  double close_span(std::size_t start);
  /// Mean kernel time of all the run's probes, in microseconds.
  double kernel_us() const;
  std::size_t probes() const { return kernel_us_.size(); }

 private:
  double probe();

  Clock::time_point last_{};
  std::vector<double> kernel_us_;
};

/// What one run reports: the contract's result line plus the detail line
/// (sample counts, digests, check outcomes).
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
    bool detail_only = false;
  };

  /// Records a correctness check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what);
  /// A metric of the result line; `detail_only` keeps it to the detail line.
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples, bool detail_only = false);
  void info(const std::string& key, const std::string& value);

  bool correct() const { return failures_.empty(); }

  long attempted = 0;
  long failed = 0;

  /// {"workload": ..., "checks": ..., "metrics": {name: {value, unit,
  /// samples}}, "info": ...} — one line, printed before the result line.
  std::string detail_json(const std::string& workload, bool trace) const;
  /// The contract's last line: correct / attempted / failed / metrics.
  std::string result_json() const;

 private:
  std::vector<std::pair<std::string, bool>> checks_;
  std::vector<std::string> failures_;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
};

}  // namespace perfbench
