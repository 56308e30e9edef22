// Tests of the benchmark's own helpers (perf_util.h). Plain executable:
// prints one line per failed check and exits non-zero if any failed.
//
//   cmake --build <build dir> --target perf_util_test && <build dir>/perf_util_test

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "perf_util.h"

namespace {

int failures = 0;

#define EXPECT(condition)                                              \
  do {                                                                 \
    if (!(condition)) {                                                \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #condition); \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

using qdm_perf::Span;

void TestPercentileIsNearestRank() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // Unsorted input.
  EXPECT(qdm_perf::Percentile(hundred, 50) == 50);
  EXPECT(qdm_perf::Percentile(hundred, 90) == 90);
  EXPECT(qdm_perf::Percentile(hundred, 99) == 99);
  EXPECT(qdm_perf::Percentile(hundred, 100) == 100);
  EXPECT(qdm_perf::Percentile({7, 1, 3}, 50) == 3);
  EXPECT(qdm_perf::Percentile({4, 2}, 50) == 2);  // Rank ceil(1.0) = 1.
  EXPECT(qdm_perf::Percentile({5}, 90) == 5);
  EXPECT(qdm_perf::Percentile({}, 50) == 0);
  EXPECT(qdm_perf::Median({3, 9, 1, 4, 8}) == 4);
}

void TestPercentileNeedsTenSamplesBeyond() {
  EXPECT(qdm_perf::SamplesBeyond(100, 90) == 10);
  EXPECT(qdm_perf::SamplesBeyond(99, 90) == 9);
  EXPECT(qdm_perf::HighestSupportedPercentile(0) == 0);
  EXPECT(qdm_perf::HighestSupportedPercentile(19) == 0);
  EXPECT(qdm_perf::HighestSupportedPercentile(20) == 50);
  EXPECT(qdm_perf::HighestSupportedPercentile(99) == 50);
  EXPECT(qdm_perf::HighestSupportedPercentile(100) == 90);
  EXPECT(qdm_perf::HighestSupportedPercentile(999) == 90);
  EXPECT(qdm_perf::HighestSupportedPercentile(1000) == 99);
  EXPECT(qdm_perf::HighestSupportedPercentile(9999) == 99);
  EXPECT(qdm_perf::HighestSupportedPercentile(10000) == 99.9);
}

void TestArrivalScheduleIsSeeded() {
  const auto a = qdm_perf::PoissonArrivals(42, 150.0, 10.0);
  const auto b = qdm_perf::PoissonArrivals(42, 150.0, 10.0);
  const auto c = qdm_perf::PoissonArrivals(43, 150.0, 10.0);
  EXPECT(a.size() == 1500);
  EXPECT(a == b);  // Bit-identical for one seed.
  EXPECT(a != c);
  bool sorted_in_window = true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] < 0.0 || a[i] >= 10.0 || (i > 0 && a[i] < a[i - 1])) {
      sorted_in_window = false;
    }
  }
  EXPECT(sorted_in_window);
  // Golden values: the schedule of a seed must not drift between builds,
  // or a workload's inputs would change under an unchanged seed.
  EXPECT(a.front() == 0x1.64f940f8e9p-10);
  EXPECT(a.back() == 0x1.3fd1b22856de7p+3);
  // Uniform order statistics: about half the arrivals in each half window.
  int first_half = 0;
  for (double t : a) first_half += t < 5.0;
  EXPECT(first_half > 650 && first_half < 850);
  EXPECT(qdm_perf::PoissonArrivals(1, 0.4, 10.0).size() == 4);
}

void TestProcStatParser() {
  const std::string line =
      "4242 (qd md) (x)) S 1 4242 4242 0 -1 4194560 1200 0 0 0 "
      "731 129 0 0 20 0 7 0 123456 104857600 2560 18446744073709551615";
  qdm_perf::ProcStat stat;
  EXPECT(qdm_perf::ParseProcStat(line, &stat));
  EXPECT(stat.utime_ticks == 731);
  EXPECT(stat.stime_ticks == 129);
  EXPECT(stat.num_threads == 7);
  EXPECT(!qdm_perf::ParseProcStat("4242 (truncated) S 1 2 3", &stat));
  EXPECT(!qdm_perf::ParseProcStat("no parenthesis at all", &stat));

  qdm_perf::ProcStat self;
  EXPECT(qdm_perf::ParseProcStat(qdm_perf::ReadFile("/proc/self/stat"), &self));
  EXPECT(self.num_threads >= 1);
}

void TestVmRssParser() {
  int64_t kb = 0;
  EXPECT(qdm_perf::ParseVmRssKb(
      "Name:\tqdmd\nVmPeak:\t  999 kB\nVmRSS:\t   12345 kB\nThreads:\t5\n",
      &kb));
  EXPECT(kb == 12345);
  EXPECT(!qdm_perf::ParseVmRssKb("Name:\tqdmd\nThreads:\t5\n", &kb));
  EXPECT(!qdm_perf::ParseVmRssKb("VmRSS:\t12 MB\n", &kb));
  int64_t self_kb = 0;
  EXPECT(qdm_perf::ParseVmRssKb(qdm_perf::ReadFile("/proc/self/status"),
                                &self_kb));
  EXPECT(self_kb > 0);
}

void TestTimeWaitCounter() {
  const std::string table =
      "  sl  local_address rem_address   st tx_queue rx_queue\n"
      "   0: 0100007F:1E61 00000000:0000 0A 00000000:00000000\n"
      "   1: 0100007F:D2F0 0100007F:1E61 06 00000000:00000000\n"
      "   2: 0100007F:1E61 0100007F:D2F2 06 00000000:00000000\n"
      "   3: 0F02000A:0016 0202000A:C001 06 00000000:00000000\n"
      "   4: 0100007F:D2F4 0100007F:1E61 01 00000000:00000000\n";
  EXPECT(qdm_perf::CountLoopbackTimeWait(table) == 2);
  EXPECT(qdm_perf::CountLoopbackTimeWait("") == 0);
}

Span MakeSpan(const char* name, int64_t start, int64_t end, int parent) {
  Span span;
  span.name = name;
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

void TestSpanSelfTime() {
  const std::vector<Span> spans = {
      MakeSpan("job", 0, 100, -1),
      MakeSpan("encode", 10, 30, 0),
      MakeSpan("solve_a", 20, 50, 0),    // Overlaps encode: union [10, 50).
      MakeSpan("late", 90, 120, 0),      // Clipped to the parent's end.
      MakeSpan("inner", 15, 25, 1),      // Grandchild: not the root's child.
      MakeSpan("other_root", 200, 260, -1),
  };
  const std::vector<int64_t> self = qdm_perf::SelfTimes(spans);
  EXPECT(self[0] == 100 - 40 - 10);
  EXPECT(self[1] == 20 - 10);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 10);
  EXPECT(self[5] == 60);
  // Leaf stages that tile their parent leave it no self time.
  const std::vector<Span> tiled = {MakeSpan("job", 0, 10, -1),
                                   MakeSpan("a", 0, 4, 0),
                                   MakeSpan("b", 4, 10, 0)};
  EXPECT(qdm_perf::SelfTimes(tiled)[0] == 0);
}

}  // namespace

int main() {
  TestPercentileIsNearestRank();
  TestPercentileNeedsTenSamplesBeyond();
  TestArrivalScheduleIsSeeded();
  TestProcStatParser();
  TestVmRssParser();
  TestTimeWaitCounter();
  TestSpanSelfTime();
  if (failures == 0) std::printf("perf_util_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
