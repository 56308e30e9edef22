#include "perf_util.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <random>
#include <sstream>
#include <utility>

namespace qdm_perf {

namespace {

size_t NearestRank(size_t n, double p) {
  // The epsilon keeps an exact rank exact: 99.9% of 10000 is 9990, not the
  // 9990.000000000002 that the floating-point product reads.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::min(n, std::max<size_t>(1, static_cast<size_t>(rank)));
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t rank = NearestRank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

double HighestSupportedPercentile(size_t n) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    if (SamplesBeyond(n, p) >= 10) best = p;
  }
  return best;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<double> PoissonArrivals(uint64_t seed, double rate,
                                    double seconds) {
  const auto count = static_cast<size_t>(std::llround(rate * seconds));
  // mt19937_64's output sequence is fixed by the standard; the uniform is
  // built from its top 53 bits so the schedule does not depend on the
  // library's distribution implementation.
  std::mt19937_64 engine(seed);
  std::vector<double> arrivals(count);
  for (double& t : arrivals) {
    t = static_cast<double>(engine() >> 11) * 0x1.0p-53 * seconds;
  }
  std::sort(arrivals.begin(), arrivals.end());
  return arrivals;
}

bool ParseProcStat(const std::string& text, ProcStat* out) {
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream fields(text.substr(close + 1));
  // Fields after the command name, counted from 3 ("state"): utime is
  // field 14, stime 15 and num_threads 20.
  std::vector<std::string> tokens;
  std::string token;
  while (fields >> token && tokens.size() < 18) tokens.push_back(token);
  if (tokens.size() < 18) return false;
  char* end = nullptr;
  const uint64_t utime = std::strtoull(tokens[11].c_str(), &end, 10);
  if (*end != '\0') return false;
  const uint64_t stime = std::strtoull(tokens[12].c_str(), &end, 10);
  if (*end != '\0') return false;
  const long threads = std::strtol(tokens[17].c_str(), &end, 10);
  if (*end != '\0') return false;
  out->utime_ticks = utime;
  out->stime_ticks = stime;
  out->num_threads = static_cast<int>(threads);
  return true;
}

bool ParseVmRssKb(const std::string& text, int64_t* kb) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("VmRSS:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    int64_t value = 0;
    std::string unit;
    if (!(fields >> value >> unit) || unit != "kB") return false;
    *kb = value;
    return true;
  }
  return false;
}

int CountLoopbackTimeWait(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  int count = 0;
  std::getline(lines, line);  // Column header.
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string slot, local, remote, state;
    if (!(fields >> slot >> local >> remote >> state)) continue;
    // Addresses are little-endian hex: 127.0.0.1 reads 0100007F.
    if (state == "06" && local.rfind("0100007F:", 0) == 0) ++count;
  }
  return count;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[span.parent];
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (lo < hi) children[span.parent].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return self;
}

std::string SpansToJson(const std::vector<Span>& spans) {
  std::ostringstream out;
  out << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"job\":" << s.job << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return out.str();
}

}  // namespace qdm_perf
