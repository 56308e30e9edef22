// Measurement helpers of the qdm benchmark: percentiles, the seeded arrival
// schedule, /proc parsers and span arithmetic. Kept free of qdm types so
// perf_util_test.cc can pin each rule on hand-made inputs.

#ifndef QDM_PERFBENCH_PERF_UTIL_H_
#define QDM_PERFBENCH_PERF_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace qdm_perf {

// -- Percentiles --------------------------------------------------------------

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// the samples are <= it (rank ceil(p/100 * n), 1-based). p in (0, 100].
/// Returns 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// Samples strictly above the nearest rank of percentile p in a sample of n.
size_t SamplesBeyond(size_t n, double p);

/// The benchmark reports a timing percentile only when at least ten samples
/// lie beyond it; this is the highest of p50/p90/p99/p99.9 that has them
/// (0 when not even the median does).
double HighestSupportedPercentile(size_t n);

double Mean(const std::vector<double>& values);

// -- Open-loop arrival schedule -----------------------------------------------

/// Poisson arrivals at `rate` per second over [0, seconds), conditioned on
/// their count: exactly round(rate * seconds) arrivals whose times are the
/// sorted draws of as many uniforms (the order statistics of a Poisson
/// process with that count). Offsets in seconds, ascending, a pure function
/// of (seed, rate, seconds).
std::vector<double> PoissonArrivals(uint64_t seed, double rate, double seconds);

// -- /proc parsers ------------------------------------------------------------

/// Fields of /proc/<pid>/stat. The command name may hold spaces and
/// parentheses, so fields are counted from the LAST ')'.
struct ProcStat {
  uint64_t utime_ticks = 0;
  uint64_t stime_ticks = 0;
  int num_threads = 0;
};
bool ParseProcStat(const std::string& text, ProcStat* out);

/// VmRSS of a /proc/<pid>/status text, in kB.
bool ParseVmRssKb(const std::string& text, int64_t* kb);

/// TIME_WAIT sockets (state 06) on 127.0.0.1 in a /proc/net/tcp text.
int CountLoopbackTimeWait(const std::string& text);

/// Whole file as a string; empty when it cannot be read.
std::string ReadFile(const std::string& path);

// -- Spans --------------------------------------------------------------------

/// One timed call: `parent` is the index of the enclosing span in the same
/// vector (-1 for a root), `job` the id shared by every span of one job.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t job = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its direct children covers (children may overlap,
/// e.g. parallel fan-out, and are clipped to the parent's interval).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Spans as a JSON array, one object per line.
std::string SpansToJson(const std::vector<Span>& spans);

}  // namespace qdm_perf

#endif  // QDM_PERFBENCH_PERF_UTIL_H_
