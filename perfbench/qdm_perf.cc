// qdm_perf: load generator, output checker and tracer of the repository
// benchmark (README.md in this directory explains the workloads and every
// metric). One process drives one workload:
//
//   qdm_perf --workload mqo_remote|txn_epochs_inproc|portfolio_open
//            --seed N --seconds S --trace 0|1 --out DIR [--commit ID]
//
// It prints its run context, a metric table, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The remote
// workloads launch the qdmd daemon built next to this binary; every process
// started here is stopped and reaped before exit.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perf_util.h"
#include "qdm/anneal/adaptive_solver.h"
#include "qdm/anneal/backend_cache.h"
#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/thread_pool.h"
#include "qdm/net/client.h"
#include "qdm/net/http.h"
#include "qdm/net/wire.h"
#include "qdm/qopt/mqo.h"
#include "qdm/qopt/txn_scheduling.h"
#include "qdm/service/solver_service.h"
#include "qdm/sim/simd.h"

namespace {

using qdm::anneal::Qubo;
using qdm::anneal::SampleSet;
using qdm::anneal::SolverOptions;
using qdm::net::QdmClient;
using qdm::qopt::MqoProblem;
using qdm::qopt::TxnScheduleProblem;
using qdm_perf::Span;

// ---------------------------------------------------------------------------
// The workloads. These constants define the benchmark: changing one changes
// every number measured with it, so a change here is a new baseline.
// ---------------------------------------------------------------------------

constexpr int kDaemonWorkers = 4;
constexpr int kSetupRepeats = 5;  // setup_s is the median of these.
constexpr int kCheckEvery = 97;   // Every 97th job is re-solved in-process...
constexpr int kMaxChecks = 32;    // ...up to this many per run.
constexpr int kMaxMismatchReports = 5;

// mqo_remote: closed loop, 4 client threads, one Trummer-Koch MQO instance
// (8 queries x 3 plans = 24 variables) per job on simulated_annealing.
constexpr int kMqoClients = 4;
constexpr int kMqoPool = 512;
constexpr int kMqoWarmupJobs = 8;

// txn_epochs_inproc: one caller, SolveTxnScheduleEpochs at 4 threads over
// calls of 16 epochs of 8 transactions, 10 reads x 600 sweeps.
constexpr int kTxnPool = 4096;
constexpr int kEpochsPerCall = 16;
constexpr int kTxnThreads = 4;
constexpr int kTxnChecks = 2;  // Calls re-solved at 1 thread.

// portfolio_open: seeded Poisson arrivals at a fixed rate, 2 submitter and
// 2 waiter threads. At 150 jobs/s the generator stays on schedule on a
// 4-core host; at 300 jobs/s it backlogs.
constexpr double kPortfolioRate = 150.0;
constexpr int kSubmitters = 2;
constexpr int kWaiters = 2;
constexpr int kPortfolioPool = 4096;
// The generator fell behind when its p99 send lateness exceeds this; the
// run is then marked invalid in its context record.
constexpr double kMaxLateP99Ms = 10.0;

// within_slo_frac limits: about twice the slowest job class's unloaded
// latency (remote), and 2.5x the unloaded call latency (in-process).
constexpr double kRemoteSloMs = 25.0;
constexpr double kTxnSloMs = 250.0;

// Traced run: jobs replayed stage by stage after the load phase.
constexpr int kTraceMqoJobs = 120;
constexpr int kTracePerClass = 10;
constexpr int kTraceTxnCalls = 8;
constexpr int kHealthzProbes = 100;
// The traced stages must account for the untraced single-client latency
// within this share; a larger gap is reported in the run context.
constexpr double kCoverageTolerance = 0.10;

struct JobClass {
  const char* solver;  // Registry name.
  int percent;         // Share of the arrivals (portfolio_open).
  int queries;         // MQO instance shape.
  int plans;
  int batch;           // > 1: one submit_batch of this many instances.
  const char* family;  // Per-layer metric suffix.
};

constexpr JobClass kMqoClass = {"simulated_annealing", 100, 8, 3, 1,
                                "simulated_annealing"};

constexpr JobClass kPortfolioMix[] = {
    {"tabu_search", 30, 6, 3, 1, "tabu_search"},
    {"race:simulated_annealing+tabu_search", 15, 6, 3, 1, "race"},
    {"adaptive:simulated_annealing+tabu_search", 15, 6, 3, 1, "adaptive"},
    {"embedded:simulated_annealing:pegasus:6", 15, 6, 3, 1, "embedded"},
    {"simulated_annealing", 10, 4, 3, 4, "simulated_annealing"},
    {"parallel_tempering", 5, 6, 3, 1, "parallel_tempering"},
    {"qaoa", 5, 2, 2, 1, "qaoa"},
    {"noisy:depol@0.01:qaoa", 5, 2, 2, 1, "noisy_qaoa"},
};

const char* const kFamilies[] = {
    "simulated_annealing", "tabu_search", "parallel_tempering", "race",
    "adaptive",            "embedded",    "qaoa",               "noisy_qaoa"};

bool IsGateFamily(const std::string& family) {
  return family == "qaoa" || family == "noisy_qaoa";
}

SolverOptions MqoOptions(uint64_t seed) {
  SolverOptions options;
  options.num_reads = 4;
  options.num_sweeps = 200;
  options.layers = 1;
  options.restarts = 1;
  options.seed = seed;
  return options;
}

SolverOptions TxnOptions(uint64_t seed) {
  SolverOptions options;
  options.num_reads = 10;
  options.num_sweeps = 600;
  options.seed = seed;
  return options;
}

// ---------------------------------------------------------------------------
// Small utilities.
// ---------------------------------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// splitmix64: independent, reproducible sub-seeds of the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Output mismatches: the first few are printed, any one fails the run.
class Mismatches {
 public:
  void Report(const std::string& what) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_++ < kMaxMismatchReports) {
      std::fprintf(stderr, "qdm_perf: OUTPUT MISMATCH: %s\n", what.c_str());
    }
  }
  bool any() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_ > 0;
  }

 private:
  mutable std::mutex mutex_;
  int count_ = 0;
};

Mismatches g_mismatches;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool SameSampleSet(const SampleSet& a, const SampleSet& b) {
  if (a.size() != b.size() || !SameBits(a.noise_fidelity(), b.noise_fidelity()) ||
      a.decision() != b.decision()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.samples()[i];
    const auto& y = b.samples()[i];
    if (x.assignment != y.assignment || !SameBits(x.energy, y.energy) ||
        !SameBits(x.chain_break_fraction, y.chain_break_fraction)) {
      return false;
    }
  }
  return true;
}

bool ReadProcStat(pid_t pid, qdm_perf::ProcStat* stat) {
  return qdm_perf::ParseProcStat(
      qdm_perf::ReadFile("/proc/" + std::to_string(pid) + "/stat"), stat);
}

int64_t ReadRssKb(pid_t pid) {
  int64_t kb = 0;
  qdm_perf::ParseVmRssKb(
      qdm_perf::ReadFile("/proc/" + std::to_string(pid) + "/status"), &kb);
  return kb;
}

// ---------------------------------------------------------------------------
// The daemon under test.
// ---------------------------------------------------------------------------

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Launches qdmd on an ephemeral loopback port and reads back the port it
  // prints. The daemon is killed if this process dies first.
  bool Start(std::string* error) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) {
      *error = "pipe2 failed";
      return false;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      *error = "fork failed";
      return false;
    }
    if (pid == 0) {
      dup2(fds[1], STDOUT_FILENO);
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const std::string workers = std::to_string(kDaemonWorkers);
      execl(QDM_PERF_QDMD, "qdmd", "--port", "0", "--workers", workers.c_str(),
            static_cast<char*>(nullptr));
      _exit(127);
    }
    close(fds[1]);
    pid_ = pid;
    out_fd_ = fds[0];
    std::string text;
    const int64_t deadline = NowNs() + 10'000'000'000;
    const std::string marker = "listening on port ";
    while (port_ == 0) {
      const int left_ms = static_cast<int>((deadline - NowNs()) / 1'000'000);
      pollfd pfd{out_fd_, POLLIN, 0};
      if (left_ms <= 0 || poll(&pfd, 1, left_ms) <= 0) {
        *error = "qdmd did not report its port within 10 s";
        return false;
      }
      char buffer[256];
      const ssize_t got = read(out_fd_, buffer, sizeof(buffer));
      if (got <= 0) {
        *error = "qdmd exited before reporting its port (" QDM_PERF_QDMD ")";
        return false;
      }
      text.append(buffer, static_cast<size_t>(got));
      const size_t at = text.find(marker);
      if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
        port_ = std::atoi(text.c_str() + at + marker.size());
      }
    }
    return true;
  }

  // Graceful SIGTERM shutdown; returns once the daemon has exited.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    char buffer[256];
    while (read(out_fd_, buffer, sizeof(buffer)) > 0) {
    }
    close(out_fd_);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    out_fd_ = -1;
    port_ = 0;
  }

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

bool WaitHealthy(int port) {
  QdmClient client(port);
  for (int attempt = 0; attempt < 10000; ++attempt) {
    if (client.Healthz().ok()) return true;
    SleepMs(1);
  }
  return false;
}

// ---------------------------------------------------------------------------
// Inputs and reference answers.
// ---------------------------------------------------------------------------

struct MqoInstance {
  MqoProblem problem;
  double optimum = 0.0;  // ExhaustiveMqo.
};

struct TxnInstance {
  TxnScheduleProblem problem;
  int greedy_makespan = 0;  // GreedyColoringSchedule.
};

std::vector<MqoInstance> MakeMqoPool(uint64_t seed, int queries, int plans,
                                     int count) {
  qdm::Rng rng(SubSeed(seed, 100 + 10 * queries + plans));
  std::vector<MqoInstance> pool(count);
  for (auto& instance : pool) {
    instance.problem = qdm::qopt::GenerateMqoProblem(queries, plans, 0.3, &rng);
  }
  for (auto& instance : pool) {
    instance.optimum = qdm::qopt::ExhaustiveMqo(instance.problem).cost;
  }
  return pool;
}

std::vector<TxnInstance> MakeTxnPool(uint64_t seed, int count) {
  qdm::Rng rng(SubSeed(seed, 200));
  std::vector<TxnInstance> pool(count);
  for (auto& instance : pool) {
    instance.problem = qdm::qopt::GenerateTxnSchedule(8, 8, 2, 0, &rng);
    instance.greedy_makespan =
        qdm::qopt::GreedyColoringSchedule(instance.problem).makespan;
  }
  return pool;
}

// Independent re-validation of one decoded MQO selection against the raw
// assignment: exactly one plan per query, and the cost recomputed here.
// Reports a mismatch and returns false when the decoder disagrees.
bool CheckMqo(const MqoInstance& instance, const qdm::anneal::Assignment& x,
              bool* feasible, double* gap_pct) {
  const MqoProblem& p = instance.problem;
  if (x.size() != static_cast<size_t>(p.num_variables())) {
    g_mismatches.Report("MQO assignment has the wrong size");
    return false;
  }
  const qdm::qopt::MqoSolution decoded = qdm::qopt::DecodeMqoSample(p, x);
  std::vector<int> choice(p.num_queries(), -1);
  bool one_each = true;
  for (int q = 0; q < p.num_queries(); ++q) {
    int selected = 0;
    for (int plan = 0; plan < p.num_plans(q); ++plan) {
      if (x[p.VarIndex(q, plan)]) {
        choice[q] = plan;
        ++selected;
      }
    }
    one_each = one_each && selected == 1;
  }
  if (decoded.feasible != one_each) {
    g_mismatches.Report("DecodeMqoSample feasibility disagrees with the "
                        "one-plan-per-query check");
    return false;
  }
  *feasible = one_each;
  if (!one_each) return true;
  double cost = 0.0;
  for (int q = 0; q < p.num_queries(); ++q) cost += p.plan_costs[q][choice[q]];
  for (const auto& s : p.savings) {
    if (choice[s.query_a] == s.plan_a && choice[s.query_b] == s.plan_b) {
      cost -= s.saving;
    }
  }
  const double tolerance = 1e-9 * std::max(1.0, std::fabs(cost));
  if (decoded.plan_choice != choice ||
      std::fabs(decoded.cost - cost) > tolerance ||
      cost < instance.optimum - tolerance) {
    g_mismatches.Report("MQO selection cost disagrees with the recomputed "
                        "cost or beats the exhaustive optimum");
    return false;
  }
  *gap_pct = 100.0 * (cost - instance.optimum) / instance.optimum;
  return true;
}

// Re-validation of one decoded schedule: slots in range, conflicts and
// makespan recounted. Conflict-free schedules are the feasible ones.
bool CheckSchedule(const TxnInstance& instance,
                   const qdm::qopt::Schedule& schedule, bool* feasible,
                   double* gap_pct) {
  const TxnScheduleProblem& p = instance.problem;
  *feasible = false;
  if (!schedule.feasible) return true;
  if (schedule.slot_of_txn.size() != static_cast<size_t>(p.num_txns())) {
    g_mismatches.Report("schedule has the wrong number of transactions");
    return false;
  }
  int makespan = 0;
  for (int slot : schedule.slot_of_txn) {
    if (slot < 0 || slot >= p.num_slots) {
      g_mismatches.Report("schedule uses a slot out of range");
      return false;
    }
    makespan = std::max(makespan, slot + 1);
  }
  int conflicts = 0;
  for (int a = 0; a < p.num_txns(); ++a) {
    for (int b = a + 1; b < p.num_txns(); ++b) {
      const bool share = !std::none_of(
          p.lock_sets[a].begin(), p.lock_sets[a].end(),
          [&](int object) { return p.lock_sets[b].count(object) > 0; });
      if (share && schedule.slot_of_txn[a] == schedule.slot_of_txn[b]) {
        ++conflicts;
      }
    }
  }
  if (conflicts != schedule.conflicting_pairs_same_slot ||
      makespan != schedule.makespan) {
    g_mismatches.Report("schedule conflict count or makespan disagrees with "
                        "the recount");
    return false;
  }
  *feasible = conflicts == 0;
  *gap_pct = 100.0 * (makespan - instance.greedy_makespan) /
             instance.greedy_makespan;
  return true;
}

// ---------------------------------------------------------------------------
// Remote MQO jobs (mqo_remote and portfolio_open).
// ---------------------------------------------------------------------------

struct RemoteJob {
  const JobClass* job_class = nullptr;
  std::vector<const MqoInstance*> instances;  // One, or `batch` of them.
  SolverOptions options;
};

struct Outcome {
  int feasible = 0;
  double gap_sum = 0.0;
};

std::vector<Qubo> EncodeJob(const RemoteJob& job) {
  std::vector<Qubo> qubos;
  for (const MqoInstance* instance : job.instances) {
    qubos.push_back(qdm::qopt::MqoToQubo(instance->problem));
  }
  return qubos;
}

qdm::Result<qdm::service::JobId> SubmitJob(QdmClient& client,
                                           const RemoteJob& job,
                                           const std::vector<Qubo>& qubos) {
  if (job.job_class->batch > 1) {
    return client.SubmitBatch(job.job_class->solver, qubos, job.options);
  }
  return client.Submit(job.job_class->solver, qubos[0], job.options);
}

// Decodes and re-validates every instance of a finished job. False on a
// checker mismatch.
bool EvaluateJob(const RemoteJob& job, const std::vector<SampleSet>& results,
                 Outcome* outcome) {
  if (results.size() != job.instances.size()) {
    g_mismatches.Report("job returned the wrong number of sample sets");
    return false;
  }
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].empty()) {
      g_mismatches.Report("job returned an empty sample set");
      return false;
    }
    bool feasible = false;
    double gap = 0.0;
    if (!CheckMqo(*job.instances[i], results[i].best().assignment, &feasible,
                  &gap)) {
      return false;
    }
    if (feasible) {
      ++outcome->feasible;
      outcome->gap_sum += gap;
    }
  }
  return true;
}

// The output check: the in-process twin of a remote job, with the same
// name and seed, must be bit-identical. Batches compare against
// SolveBatchParallel at one thread; adaptive:* jobs replay their recorded
// decision, which stays exact whatever state the daemon's backend carried.
void CheckInProcess(const RemoteJob& job, const std::vector<Qubo>& qubos,
                    const std::vector<SampleSet>& remote) {
  const std::string solver = job.job_class->solver;
  std::vector<SampleSet> local;
  if (job.job_class->batch > 1) {
    auto sets = qdm::anneal::SolveBatchParallel(solver, qubos, job.options, 1);
    if (sets.ok()) local = std::move(*sets);
  } else if (solver.rfind("adaptive:", 0) == 0) {
    auto set = qdm::anneal::ReplayAdaptiveDecision(remote[0].decision(),
                                                   qubos[0], job.options);
    if (set.ok()) local.push_back(std::move(*set));
  } else {
    auto set = qdm::anneal::SolveWith(solver, qubos[0], job.options);
    if (set.ok()) local.push_back(std::move(*set));
  }
  bool same = local.size() == remote.size();
  for (size_t i = 0; same && i < local.size(); ++i) {
    same = SameSampleSet(local[i], remote[i]);
  }
  if (!same) {
    g_mismatches.Report("remote " + solver +
                        " result is not bit-identical to the in-process "
                        "solve with the same seed");
  }
}

// ---------------------------------------------------------------------------
// Tallies of one load phase.
// ---------------------------------------------------------------------------

struct CheckItem {
  RemoteJob job;
  std::vector<SampleSet> results;
};

// One successful job: its interval (from its scheduled or actual start to
// its decoded result) and the units of jobs_per_s it completed.
struct Done {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  int units = 1;
  double latency_ms() const { return NsToMs(end_ns - begin_ns); }
};

struct Tally {
  uint64_t attempted = 0;  // Units of jobs_per_s (jobs, or epochs).
  uint64_t failed = 0;
  uint64_t completed = 0;
  uint64_t jobs = 0;       // Latency samples' denominator for the SLO.
  uint64_t within_slo = 0;
  std::vector<Done> done;
  uint64_t instances = 0;  // Decoded QUBO instances.
  uint64_t feasible = 0;
  double gap_sum = 0.0;
  uint64_t rpcs = 0;
  // Composition-layer observations, read off the wire.
  uint64_t adaptive_jobs = 0;
  uint64_t adaptive_commits = 0;
  double chain_break_sum = 0.0;
  uint64_t chain_break_n = 0;
  double fidelity_sum = 0.0;
  uint64_t fidelity_n = 0;
  std::vector<CheckItem> checks;

  void Merge(Tally&& other) {
    attempted += other.attempted;
    failed += other.failed;
    completed += other.completed;
    jobs += other.jobs;
    within_slo += other.within_slo;
    done.insert(done.end(), other.done.begin(), other.done.end());
    instances += other.instances;
    feasible += other.feasible;
    gap_sum += other.gap_sum;
    rpcs += other.rpcs;
    adaptive_jobs += other.adaptive_jobs;
    adaptive_commits += other.adaptive_commits;
    chain_break_sum += other.chain_break_sum;
    chain_break_n += other.chain_break_n;
    fidelity_sum += other.fidelity_sum;
    fidelity_n += other.fidelity_n;
    for (auto& check : other.checks) checks.push_back(std::move(check));
  }

  // Records one finished remote job (success or failure).
  void RecordRemote(const RemoteJob& job, bool ok, int64_t begin_ns,
                    int64_t end_ns, const std::vector<SampleSet>* results,
                    bool keep_for_check) {
    ++jobs;
    if (!ok) {
      ++failed;
      return;
    }
    Outcome outcome;
    if (!EvaluateJob(job, *results, &outcome)) {
      ++failed;
      return;
    }
    ++completed;
    done.push_back({begin_ns, end_ns, 1});
    if (done.back().latency_ms() <= kRemoteSloMs) ++within_slo;
    instances += job.instances.size();
    feasible += outcome.feasible;
    gap_sum += outcome.gap_sum;
    const std::string family = job.job_class->family;
    const SampleSet& first = (*results)[0];
    if (family == "adaptive") {
      ++adaptive_jobs;
      adaptive_commits += first.decision().rfind("commit", 0) == 0;
    } else if (family == "embedded") {
      chain_break_sum += first.best().chain_break_fraction;
      ++chain_break_n;
    } else if (family == "noisy_qaoa") {
      fidelity_sum += first.noise_fidelity();
      ++fidelity_n;
    }
    if (keep_for_check) checks.push_back(CheckItem{job, *results});
  }
};

// What the traced run of a remote workload samples while the load runs: the
// daemon's thread count and, via /v1/stats, its queue depth.
class LoadSampler {
 public:
  LoadSampler(pid_t pid, int port) : pid_(pid), port_(port) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~LoadSampler() { Stop(); }
  LoadSampler(const LoadSampler&) = delete;
  LoadSampler& operator=(const LoadSampler&) = delete;

  void Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

  int threads_peak() const { return threads_peak_; }
  double queue_depth_mean() const { return qdm_perf::Mean(queue_depth_); }

 private:
  void Loop() {
    QdmClient client(port_);
    while (!stop_) {
      qdm_perf::ProcStat stat;
      if (ReadProcStat(pid_, &stat)) {
        threads_peak_ = std::max(threads_peak_, stat.num_threads);
      }
      if (port_ > 0) {
        auto stats = client.Stats();
        if (stats.ok()) {
          queue_depth_.push_back(static_cast<double>(stats->stats.queued));
        }
      }
      SleepMs(20);
    }
  }

  pid_t pid_;
  int port_;
  std::atomic<bool> stop_{false};
  int threads_peak_ = 0;
  std::vector<double> queue_depth_;
  std::thread thread_;  // Last: started after the members it uses.
};

// ---------------------------------------------------------------------------
// Metrics and the result line.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;  // Run context.
  std::vector<Span> spans;
};

void AddNote(RunResult* result, const std::string& key, const std::string& json) {
  result->notes.emplace_back(key, json);
}

// Cumulative CPU time (ms) of this process plus, when `daemon` > 0, the
// daemon's.
double CpuNowMs(pid_t daemon) {
  uint64_t ticks = 0;
  for (pid_t pid : {getpid(), daemon}) {
    qdm_perf::ProcStat stat;
    if (pid > 0 && ReadProcStat(pid, &stat)) {
      ticks += stat.utime_ticks + stat.stime_ticks;
    }
  }
  return static_cast<double>(ticks) * 1000.0 /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

// The measured phase is cut into kWindows equal windows, and each timing
// metric is the median over the windows, so a host stall shorter than half
// the run does not move it. This thread reads the cumulative CPU time at
// every window boundary.
constexpr int kWindows = 10;

class WindowClock {
 public:
  WindowClock(int64_t start_ns, double seconds, pid_t daemon)
      : start_ns_(start_ns),
        window_ns_(static_cast<int64_t>(seconds * 1e9 / kWindows)),
        daemon_(daemon) {
    thread_ = std::thread([this] {
      for (int w = 0; w <= kWindows; ++w) {
        const int64_t due = start_ns_ + w * window_ns_;
        while (NowNs() < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
        }
        cpu_ms_.push_back(CpuNowMs(daemon_));
      }
    });
  }
  ~WindowClock() { Join(); }
  WindowClock(const WindowClock&) = delete;
  WindowClock& operator=(const WindowClock&) = delete;

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  int64_t start_ns() const { return start_ns_; }
  int64_t window_ns() const { return window_ns_; }
  // kWindows + 1 readings; complete after Join().
  const std::vector<double>& cpu_ms() const { return cpu_ms_; }

 private:
  int64_t start_ns_;
  int64_t window_ns_;
  pid_t daemon_;
  std::vector<double> cpu_ms_;
  std::thread thread_;  // Last: started after the members it uses.
};

// Median over windows of a percentile of the latencies of the jobs that
// finished in each window, when every window holds ten samples beyond it;
// otherwise the percentile over the whole phase.
double WindowedPercentile(const std::vector<std::vector<double>>& by_window,
                          const std::vector<double>& all, double p) {
  std::vector<double> per_window;
  for (const auto& latencies : by_window) {
    if (qdm_perf::SamplesBeyond(latencies.size(), p) < 10) {
      return qdm_perf::Percentile(all, p);
    }
    per_window.push_back(qdm_perf::Percentile(latencies, p));
  }
  return qdm_perf::Median(per_window);
}

// End-to-end metrics of a finished load phase. An open loop passes the
// seconds from its first scheduled arrival to its last result: its
// jobs_per_s is then the achieved rate of the whole schedule, which falls
// below the offered rate only under backlog and does not carry the
// schedule's per-window Poisson noise.
void AddEndToEnd(const Tally& tally, const WindowClock& clock, double setup_s,
                 double open_loop_seconds, RunResult* result) {
  // Work is credited to windows in proportion to the part of each job's
  // interval inside them, so long jobs do not quantize the rates.
  std::vector<double> work(kWindows, 0.0);
  std::vector<std::vector<double>> latency_by_window(kWindows);
  std::vector<double> all_latencies;
  const double window_ns = static_cast<double>(clock.window_ns());
  for (const Done& d : tally.done) {
    all_latencies.push_back(d.latency_ms());
    const double b = static_cast<double>(d.begin_ns - clock.start_ns());
    const double e = static_cast<double>(d.end_ns - clock.start_ns());
    const int last = static_cast<int>(std::floor(e / window_ns));
    if (last >= 0 && last < kWindows) {
      latency_by_window[last].push_back(d.latency_ms());
    }
    for (int w = std::max(0, static_cast<int>(std::floor(b / window_ns)));
         w <= std::min(kWindows - 1, last); ++w) {
      const double lo = std::max(b, w * window_ns);
      const double hi = std::min(e, (w + 1) * window_ns);
      if (hi > lo) work[w] += d.units * (hi - lo) / std::max(e - b, 1.0);
    }
  }
  std::vector<double> rate, cpu_per_job;
  for (int w = 0; w < kWindows; ++w) {
    rate.push_back(work[w] / (window_ns / 1e9));
    if (work[w] > 0) {
      cpu_per_job.push_back((clock.cpu_ms()[w + 1] - clock.cpu_ms()[w]) /
                            work[w]);
    }
  }
  auto& m = result->metrics;
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"jobs_per_s",
               open_loop_seconds > 0 ? tally.completed / open_loop_seconds
                                     : qdm_perf::Median(rate),
               "jobs/s"});
  m.push_back({"latency_p50_ms",
               WindowedPercentile(latency_by_window, all_latencies, 50), "ms"});
  m.push_back({"latency_p90_ms",
               WindowedPercentile(latency_by_window, all_latencies, 90), "ms"});
  m.push_back({"within_slo_frac",
               tally.jobs ? static_cast<double>(tally.within_slo) / tally.jobs
                          : 0.0,
               "fraction"});
  m.push_back({"feasible_frac",
               tally.instances ? static_cast<double>(tally.feasible) /
                                     tally.instances
                               : 0.0,
               "fraction"});
  m.push_back({"quality_gap_pct",
               tally.feasible ? tally.gap_sum / tally.feasible : 0.0, "%"});
  m.push_back({"cpu_ms_per_job", qdm_perf::Median(cpu_per_job), "ms"});
  AddNote(result, "latency_samples", std::to_string(all_latencies.size()));
  AddNote(result, "highest_supported_percentile",
          FormatDouble(qdm_perf::HighestSupportedPercentile(
              all_latencies.size())));
}

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  int Begin(const std::string& name, int parent, uint64_t job) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.job = job;
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) { spans_[span].end_ns = NowNs(); }

  // Runs `call` inside a span named `name`.
  template <typename F>
  auto Time(const std::string& name, int parent, uint64_t job, F&& call) {
    const int span = Begin(name, parent, job);
    auto value = call();
    End(span);
    return value;
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Self times in microseconds, grouped by span name.
std::map<std::string, std::vector<double>> SelfTimesUs(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = qdm_perf::SelfTimes(spans);
  std::map<std::string, std::vector<double>> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].push_back(NsToUs(self[i]));
  }
  return by_name;
}

// Accumulates the per-layer numbers of the replay phase.
struct ReplayTally {
  std::vector<double> untraced_ms;    // Single-client job latency, no spans.
  std::vector<double> traced_ms;      // The same jobs with spans.
  std::vector<double> stage_sum_ms;   // Sum of the traced stages.
  std::vector<double> overhead_ratio; // (remote - in-process solve) / solve.
  std::vector<double> service_overhead_us;
  std::vector<double> request_bytes;
  std::vector<double> response_bytes;
  double sa_flips = 0.0;
  double sa_seconds = 0.0;
  double parallel_efficiency = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

std::string JobTarget(qdm::service::JobId id) {
  return "/v1/jobs/" + std::to_string(id) + "/wait";
}

// One remote job replayed twice on a single client: once untraced, once
// stage by stage through the public calls QdmClient makes; then its server
// side in-process through the calls the daemon makes.
void ReplayRemoteJob(const RemoteJob& job, int port, uint64_t job_id,
                     qdm::service::SolverService* service, Tracer* tracer,
                     ReplayTally* tally) {
  const std::string solver = job.job_class->solver;
  const std::string family = job.job_class->family;
  QdmClient client(port);
  tally->attempted += 1;

  // The untraced twin runs before the traced job on even ids and after it
  // on odd ones, so warm-up order does not bias the tracing overhead.
  int64_t untraced_ns = 0;
  auto run_untraced = [&] {
    const int64_t t0 = NowNs();
    const std::vector<Qubo> plain_qubos = EncodeJob(job);
    auto plain_id = SubmitJob(client, job, plain_qubos);
    auto plain = plain_id.ok() ? client.Wait(*plain_id)
                               : qdm::Result<std::vector<SampleSet>>(
                                     plain_id.status());
    Outcome ignored;
    const bool ok = plain.ok() && EvaluateJob(job, *plain, &ignored);
    untraced_ns = NowNs() - t0;
    return ok;
  };
  const bool untraced_first = job_id % 2 == 0;
  bool plain_ok = untraced_first ? run_untraced() : true;

  const int root = tracer->Begin("client.job", -1, job_id);
  std::vector<Qubo> qubos;
  for (const MqoInstance* instance : job.instances) {
    qubos.push_back(tracer->Time("qopt.encode", root, job_id, [&] {
      return qdm::qopt::MqoToQubo(instance->problem);
    }));
  }
  qdm::net::JobRequest request;
  request.type = job.job_class->batch > 1
                     ? qdm::net::JobRequest::Type::kSubmitBatch
                     : qdm::net::JobRequest::Type::kSubmit;
  request.solver = solver;
  request.qubos = qubos;
  request.options = job.options;
  const std::string body = tracer->Time("net.wire.request_encode", root, job_id,
                                        [&] { return EncodeJobRequest(request); });
  auto submitted = tracer->Time("net.http.submit_rpc", root, job_id, [&] {
    return qdm::net::HttpRoundTrip(port, "POST", "/v1/jobs", body);
  });
  qdm::Result<qdm::service::JobId> id =
      qdm::Status::Internal("submit round trip failed");
  if (submitted.ok() && submitted->status == 200) {
    id = tracer->Time("net.wire.submit_response_decode", root, job_id, [&] {
      return qdm::net::DecodeSubmitResponse(submitted->body);
    });
  }
  qdm::Result<qdm::net::HttpResponse> waited =
      qdm::Status::Internal("no job id");
  if (id.ok()) {
    waited = tracer->Time("net.http.wait_rpc", root, job_id, [&] {
      return qdm::net::HttpRoundTrip(port, "POST", JobTarget(*id), "");
    });
  }
  qdm::Result<std::vector<SampleSet>> results =
      qdm::Status::Internal("wait round trip failed");
  if (waited.ok() && waited->status == 200) {
    results = tracer->Time("net.wire.response_decode", root, job_id, [&] {
      return qdm::net::DecodeResultsResponse(waited->body);
    });
  }
  bool traced_ok = results.ok() && results->size() == job.instances.size();
  if (traced_ok) {
    for (size_t i = 0; i < job.instances.size(); ++i) {
      tracer->Time("qopt.decode", root, job_id, [&] {
        return qdm::qopt::DecodeMqoSample(job.instances[i]->problem,
                                          (*results)[i].best().assignment);
      });
    }
    Outcome outcome;
    traced_ok = EvaluateJob(job, *results, &outcome);
  }
  tracer->End(root);
  if (!untraced_first) plain_ok = run_untraced();
  if (!plain_ok || !traced_ok) {
    tally->failed += 1;
    return;
  }
  CheckInProcess(job, qubos, *results);

  const Span& root_span = tracer->spans()[root];
  int64_t stage_ns = 0;
  for (size_t i = root + 1; i < tracer->spans().size(); ++i) {
    const Span& s = tracer->spans()[i];
    if (s.parent == root) stage_ns += s.end_ns - s.start_ns;
  }
  tally->untraced_ms.push_back(NsToMs(untraced_ns));
  tally->traced_ms.push_back(NsToMs(root_span.end_ns - root_span.start_ns));
  tally->stage_sum_ms.push_back(NsToMs(stage_ns));
  tally->request_bytes.push_back(static_cast<double>(body.size()));
  tally->response_bytes.push_back(static_cast<double>(waited->body.size()));

  // Server side, in-process: the calls the daemon makes for this body.
  const int server = tracer->Begin("server.job", -1, job_id);
  auto decoded = tracer->Time("net.wire.request_decode", server, job_id,
                              [&] { return qdm::net::DecodeJobRequest(body); });
  auto backend = tracer->Time("anneal.registry.create." + family, server,
                              job_id, [&] {
                                return qdm::anneal::SolverRegistry::Global()
                                    .Create(solver);
                              });
  const std::string solve_span =
      (IsGateFamily(family) ? "algo.solve." : "anneal.solve.") + family;
  int64_t solve_ns = 0;
  if (decoded.ok() && backend.ok()) {
    for (size_t i = 0; i < qubos.size(); ++i) {
      const SolverOptions options =
          qubos.size() > 1 ? qdm::anneal::DeriveBatchOptions(job.options, i)
                           : job.options;
      const int span = tracer->Begin(solve_span, server, job_id);
      auto set = (*backend)->Solve(qubos[i], options);
      tracer->End(span);
      const Span& s = tracer->spans()[span];
      solve_ns += s.end_ns - s.start_ns;
      if (family == "simulated_annealing") {
        tally->sa_flips += static_cast<double>(qubos[i].num_variables()) *
                           options.num_sweeps * options.num_reads;
        tally->sa_seconds += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
      }
    }
  }
  const int64_t service_start = NowNs();
  qdm::Result<qdm::service::JobId> service_id =
      qdm::Status::Internal("not submitted");
  {
    const int span = tracer->Begin("service.submit", server, job_id);
    if (job.job_class->batch > 1) {
      auto accepted = service->SubmitBatch(solver, qubos, job.options);
      if (accepted.ok()) service_id = accepted->id;
    } else {
      auto accepted = service->Submit(solver, qubos[0], job.options);
      if (accepted.ok()) service_id = accepted->id;
    }
    tracer->End(span);
  }
  if (service_id.ok()) {
    auto served = tracer->Time("service.wait", server, job_id,
                               [&] { return service->Wait(*service_id); });
    const int64_t service_ns = NowNs() - service_start;
    service->Release(*service_id);
    tally->service_overhead_us.push_back(NsToUs(service_ns - solve_ns));
    if (served.ok()) {
      tracer->Time("net.wire.response_encode", server, job_id,
                   [&] { return qdm::net::EncodeResultsResponse(*served); });
    }
  }
  tracer->End(server);
  if (solve_ns > 0) {
    tally->overhead_ratio.push_back(
        (static_cast<double>(untraced_ns) - solve_ns) / solve_ns);
  }
}

// Per-layer metrics common to every traced run, from the replay spans.
void AddReplayMetrics(const std::vector<Span>& spans, const ReplayTally& r,
                      RunResult* result) {
  const auto self_us = SelfTimesUs(spans);
  auto median_of = [&](const std::string& name) {
    auto it = self_us.find(name);
    return it == self_us.end() ? 0.0 : qdm_perf::Median(it->second);
  };
  auto& m = result->metrics;
  m.push_back({"qopt.encode_us", median_of("qopt.encode"), "us"});
  m.push_back({"qopt.decode_us", median_of("qopt.decode"), "us"});
  m.push_back({"net.wire.request_encode_us",
               median_of("net.wire.request_encode"), "us"});
  m.push_back({"net.wire.request_decode_us",
               median_of("net.wire.request_decode"), "us"});
  m.push_back({"net.wire.response_encode_us",
               median_of("net.wire.response_encode"), "us"});
  m.push_back({"net.wire.response_decode_us",
               median_of("net.wire.response_decode"), "us"});
  m.push_back({"net.wire.request_bytes", qdm_perf::Median(r.request_bytes),
               "bytes"});
  m.push_back({"net.wire.response_bytes", qdm_perf::Median(r.response_bytes),
               "bytes"});
  m.push_back({"net.http.healthz_rtt_us", median_of("net.http.healthz_rtt"),
               "us"});
  m.push_back({"net.http.submit_rpc_us", median_of("net.http.submit_rpc"),
               "us"});
  m.push_back({"net.http.wait_rpc_us", median_of("net.http.wait_rpc"), "us"});
  m.push_back({"net.remote_overhead_ratio", qdm_perf::Median(r.overhead_ratio),
               "ratio"});
  m.push_back({"service.submit_us", median_of("service.submit"), "us"});
  m.push_back({"service.overhead_us", qdm_perf::Median(r.service_overhead_us),
               "us"});
  for (const char* family : kFamilies) {
    m.push_back({std::string("anneal.registry.create_us.") + family,
                 median_of(std::string("anneal.registry.create.") + family),
                 "us"});
  }
  for (const char* family : kFamilies) {
    if (IsGateFamily(family)) continue;
    m.push_back({std::string("anneal.solve_us.") + family,
                 median_of(std::string("anneal.solve.") + family), "us"});
  }
  m.push_back({"algo.solve_us.qaoa", median_of("algo.solve.qaoa"), "us"});
  m.push_back({"algo.solve_us.noisy_qaoa", median_of("algo.solve.noisy_qaoa"),
               "us"});
  m.push_back({"anneal.sa.flips_per_s",
               r.sa_seconds > 0 ? r.sa_flips / r.sa_seconds : 0.0, "1/s"});
  m.push_back({"anneal.batch.parallel_efficiency", r.parallel_efficiency,
               "ratio"});
  const double untraced = qdm_perf::Median(r.untraced_ms);
  const double coverage =
      untraced > 0 ? qdm_perf::Median(r.stage_sum_ms) / untraced : 0.0;
  const double overhead =
      untraced > 0 ? qdm_perf::Median(r.traced_ms) / untraced - 1.0 : 0.0;
  m.push_back({"trace.stage_coverage", coverage, "ratio"});
  m.push_back({"trace.overhead_frac", overhead, "fraction"});
  AddNote(result, "trace_untraced_latency_ms", FormatDouble(untraced));
  AddNote(result, "trace_stage_sum_ms",
          FormatDouble(qdm_perf::Median(r.stage_sum_ms)));
  AddNote(result, "trace_within_tolerance",
          std::fabs(coverage - 1.0) <= kCoverageTolerance ? "true" : "false");
}

void AddCacheMetrics(const qdm::anneal::BackendCacheStats& before,
                     const qdm::anneal::BackendCacheStats& after,
                     RunResult* result) {
  auto& m = result->metrics;
  m.push_back({"anneal.backend_cache.topology_hits",
               static_cast<double>(after.topology_hits - before.topology_hits),
               "count"});
  m.push_back({"anneal.backend_cache.topology_constructions",
               static_cast<double>(after.topology_constructions -
                                   before.topology_constructions),
               "count"});
  m.push_back({"anneal.backend_cache.embedding_hits",
               static_cast<double>(after.embedding_hits - before.embedding_hits),
               "count"});
  m.push_back({"anneal.backend_cache.embedding_constructions",
               static_cast<double>(after.embedding_constructions -
                                   before.embedding_constructions),
               "count"});
}

// Per-layer metrics observed during the load phase of a traced run.
struct LoadObservations {
  int threads_peak = 0;
  int64_t rss_kb_start = 0;
  int64_t rss_kb_end = 0;
  double queue_depth_mean = 0.0;
  qdm::service::ServiceStats stats_before;
  qdm::service::ServiceStats stats_after;
  double late_p99_ms = 0.0;
  double offered_per_s = 0.0;
};

void AddLoadMetrics(const Tally& tally, const LoadObservations& o,
                    double seconds, bool remote, RunResult* result) {
  auto& m = result->metrics;
  const double completed = static_cast<double>(tally.completed);
  const double throughput = completed / seconds;
  m.push_back({"net.http.rpcs_per_job",
               tally.jobs ? static_cast<double>(tally.rpcs) / tally.jobs : 0.0,
               "count"});
  m.push_back({"net.server.threads_peak",
               remote ? static_cast<double>(o.threads_peak) : 0.0, "count"});
  m.push_back({"net.server.rss_kb_end",
               remote ? static_cast<double>(o.rss_kb_end) : 0.0, "KB"});
  m.push_back({"rss_kb_per_job",
               completed > 0 ? (o.rss_kb_end - o.rss_kb_start) / completed
                             : 0.0,
               "KB"});
  m.push_back({"service.queue_depth_mean", o.queue_depth_mean, "count"});
  m.push_back({"service.queue_wait_ms",
               throughput > 0 ? 1000.0 * o.queue_depth_mean / throughput : 0.0,
               "ms"});
  m.push_back({"service.rejected",
               static_cast<double>(o.stats_after.rejected -
                                   o.stats_before.rejected),
               "count"});
  m.push_back({"service.cancelled",
               static_cast<double>(o.stats_after.cancelled -
                                   o.stats_before.cancelled),
               "count"});
  m.push_back({"service.deadline_exceeded",
               static_cast<double>(o.stats_after.deadline_exceeded -
                                   o.stats_before.deadline_exceeded),
               "count"});
  m.push_back({"anneal.adaptive.commit_frac",
               tally.adaptive_jobs ? static_cast<double>(tally.adaptive_commits) /
                                         tally.adaptive_jobs
                                   : 0.0,
               "fraction"});
  m.push_back({"anneal.embedded.chain_break_frac",
               tally.chain_break_n ? tally.chain_break_sum / tally.chain_break_n
                                   : 0.0,
               "fraction"});
  m.push_back({"algo.noise_fidelity_mean",
               tally.fidelity_n ? tally.fidelity_sum / tally.fidelity_n : 0.0,
               "fraction"});
  m.push_back({"generator.late_p99_ms", o.late_p99_ms, "ms"});
  m.push_back({"generator.offered_per_s", o.offered_per_s, "jobs/s"});
  m.push_back({"generator.achieved_per_s", throughput, "jobs/s"});
}

// ---------------------------------------------------------------------------
// Setup.
// ---------------------------------------------------------------------------

// Launches the daemon and runs `warmup` against it, kSetupRepeats times;
// returns the median launch-to-warm time and leaves the last daemon up.
double SetupDaemon(Daemon* daemon, const std::function<bool(int)>& warmup) {
  std::vector<double> samples;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (r > 0) daemon->Stop();
    const int64_t t0 = NowNs();
    std::string error;
    if (!daemon->Start(&error) || !WaitHealthy(daemon->port())) {
      std::fprintf(stderr, "qdm_perf: %s\n",
                   error.empty() ? "qdmd never answered /healthz"
                                 : error.c_str());
      return -1.0;
    }
    if (!warmup(daemon->port())) {
      std::fprintf(stderr, "qdm_perf: warm-up jobs failed\n");
      return -1.0;
    }
    samples.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return qdm_perf::Median(samples);
}

bool RunRemoteJobsSequentially(int port, const std::vector<RemoteJob>& jobs) {
  QdmClient client(port);
  for (const RemoteJob& job : jobs) {
    const std::vector<Qubo> qubos = EncodeJob(job);
    auto id = SubmitJob(client, job, qubos);
    if (!id.ok() || !client.Wait(*id).ok()) return false;
  }
  return true;
}

// In-process set-up: first registry and pool touch plus one warm-up call.
std::vector<TxnScheduleProblem> WarmupEpochs() {
  qdm::Rng rng(5);
  std::vector<TxnScheduleProblem> epochs;
  for (int e = 0; e < kEpochsPerCall; ++e) {
    epochs.push_back(qdm::qopt::GenerateTxnSchedule(8, 8, 2, 0, &rng));
  }
  return epochs;
}

bool WarmupInProcess() {
  return qdm::qopt::SolveTxnScheduleEpochs(WarmupEpochs(),
                                           "simulated_annealing",
                                           TxnOptions(5), 0.0, 1.0,
                                           kTxnThreads)
      .ok();
}

// The in-process set-up measured from launch, as for the daemon: this binary
// re-executed with --setup-probe, timed until it reports ready.
double SetupInProcess() {
  std::vector<double> samples;
  for (int r = 0; r < kSetupRepeats; ++r) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) return -1.0;
    const int64_t t0 = NowNs();
    const pid_t pid = fork();
    if (pid < 0) return -1.0;
    if (pid == 0) {
      dup2(fds[1], STDOUT_FILENO);
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      execl("/proc/self/exe", "qdm_perf", "--setup-probe",
            static_cast<char*>(nullptr));
      _exit(127);
    }
    close(fds[1]);
    char buffer[16] = {};
    const ssize_t got = read(fds[0], buffer, sizeof(buffer) - 1);
    const int64_t t1 = NowNs();
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (got <= 0 || std::strncmp(buffer, "ready", 5) != 0) return -1.0;
    samples.push_back(static_cast<double>(t1 - t0) / 1e9);
  }
  return qdm_perf::Median(samples);
}

int RunSetupProbe() {
  if (!WarmupInProcess()) return 1;
  std::printf("ready\n");
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

using MqoPools = std::map<std::pair<int, int>, std::vector<MqoInstance>>;

const std::vector<MqoInstance>& PoolFor(const MqoPools& pools,
                                        const JobClass& job_class) {
  return pools.at({job_class.queries, job_class.plans});
}

// The j-th job of a class: consecutive pool instances, seed-derived options.
RemoteJob MakeRemoteJob(const JobClass& job_class, const MqoPools& pools,
                        uint64_t seed, uint64_t j) {
  const auto& pool = PoolFor(pools, job_class);
  RemoteJob job;
  job.job_class = &job_class;
  for (int b = 0; b < job_class.batch; ++b) {
    job.instances.push_back(
        &pool[(j * job_class.batch + b) % pool.size()]);
  }
  job.options = MqoOptions(SubSeed(seed, 300) + j);
  return job;
}

// The traced tail of a remote workload: the load phase's per-layer
// metrics, then `replay_jobs` replayed stage by stage against the daemon.
void TraceRemote(const Tally& tally, LoadObservations obs,
                 LoadSampler* sampler, int port, double seconds,
                 const std::vector<RemoteJob>& replay_jobs,
                 RunResult* result) {
  sampler->Stop();
  obs.threads_peak = sampler->threads_peak();
  obs.queue_depth_mean = sampler->queue_depth_mean();
  auto stats = QdmClient(port).Stats();
  if (stats.ok()) obs.stats_after = stats->stats;
  AddLoadMetrics(tally, obs, seconds, /*remote=*/true, result);

  const qdm::anneal::BackendCacheStats cache_before =
      qdm::anneal::GetBackendCacheStats();
  Tracer tracer;
  ReplayTally replay;
  qdm::service::SolverService service(
      {kDaemonWorkers, /*max_queue_depth=*/0, 0});
  for (int i = 0; i < kHealthzProbes; ++i) {
    tracer.Time("net.http.healthz_rtt", -1, 0, [&] {
      return qdm::net::HttpRoundTrip(port, "GET", "/healthz", "");
    });
  }
  for (size_t i = 0; i < replay_jobs.size(); ++i) {
    ReplayRemoteJob(replay_jobs[i], port, i + 1, &service, &tracer, &replay);
  }
  AddReplayMetrics(tracer.spans(), replay, result);
  AddCacheMetrics(cache_before, qdm::anneal::GetBackendCacheStats(), result);
  result->attempted += replay.attempted;
  result->failed += replay.failed;
  result->spans = std::move(tracer.spans());
}

void CheckRemoteSamples(const Tally& tally) {
  for (const CheckItem& item : tally.checks) {
    CheckInProcess(item.job, EncodeJob(item.job), item.results);
  }
}

RunResult RunMqoRemote(const Args& args) {
  RunResult result;
  MqoPools pools;
  pools[{kMqoClass.queries, kMqoClass.plans}] =
      MakeMqoPool(args.seed, kMqoClass.queries, kMqoClass.plans, kMqoPool);

  Daemon daemon;
  const double setup_s = SetupDaemon(&daemon, [&](int port) {
    std::vector<RemoteJob> jobs;
    for (int j = 0; j < kMqoWarmupJobs; ++j) {
      jobs.push_back(MakeRemoteJob(kMqoClass, pools, args.seed ^ 0xABCD, j));
    }
    return RunRemoteJobsSequentially(port, jobs);
  });
  if (setup_s < 0) {
    daemon.Stop();
    std::exit(1);
  }
  const int port = daemon.port();

  LoadObservations obs;
  std::unique_ptr<LoadSampler> sampler;
  if (args.trace) {
    sampler = std::make_unique<LoadSampler>(daemon.pid(), port);
    auto stats = QdmClient(port).Stats();
    if (stats.ok()) obs.stats_before = stats->stats;
  }
  obs.rss_kb_start = ReadRssKb(daemon.pid());

  std::atomic<uint64_t> next_job{0};
  std::vector<Tally> tallies(kMqoClients);
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(args.seconds * 1e9);
  WindowClock clock(start, args.seconds, daemon.pid());
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kMqoClients; ++c) {
      clients.emplace_back([&, c] {
        QdmClient client(port);
        Tally& tally = tallies[c];
        while (NowNs() < stop) {
          const uint64_t j = next_job.fetch_add(1);
          const RemoteJob job = MakeRemoteJob(kMqoClass, pools, args.seed, j);
          ++tally.attempted;
          const int64_t t0 = NowNs();
          const std::vector<Qubo> qubos = EncodeJob(job);
          auto id = SubmitJob(client, job, qubos);
          ++tally.rpcs;
          qdm::Result<std::vector<SampleSet>> results =
              id.ok() ? client.Wait(*id)
                      : qdm::Result<std::vector<SampleSet>>(id.status());
          tally.rpcs += id.ok();
          tally.RecordRemote(job, results.ok(), t0, NowNs(),
                             results.ok() ? &*results : nullptr,
                             j % kCheckEvery == 0 &&
                                 j / kCheckEvery < kMaxChecks);
        }
      });
    }
    for (auto& thread : clients) thread.join();
  }
  const int64_t end = NowNs();
  clock.Join();
  obs.rss_kb_end = ReadRssKb(daemon.pid());

  Tally tally;
  for (auto& t : tallies) tally.Merge(std::move(t));
  const double seconds = static_cast<double>(end - start) / 1e9;
  CheckRemoteSamples(tally);
  result.attempted = tally.attempted;
  result.failed = tally.failed;
  AddNote(&result, "checked_jobs", std::to_string(tally.checks.size()));

  if (!args.trace) {
    AddEndToEnd(tally, clock, setup_s, 0.0, &result);
    return result;
  }
  std::vector<RemoteJob> replay_jobs;
  for (int i = 0; i < kTraceMqoJobs; ++i) {
    replay_jobs.push_back(
        MakeRemoteJob(kMqoClass, pools, args.seed ^ 0x7777, i));
  }
  TraceRemote(tally, obs, sampler.get(), port, seconds, replay_jobs, &result);
  return result;
}

RunResult RunPortfolioOpen(const Args& args) {
  RunResult result;
  MqoPools pools;
  for (const JobClass& c : kPortfolioMix) {
    if (!pools.count({c.queries, c.plans})) {
      pools[{c.queries, c.plans}] =
          MakeMqoPool(args.seed, c.queries, c.plans, kPortfolioPool);
    }
  }
  const std::vector<double> arrivals =
      qdm_perf::PoissonArrivals(SubSeed(args.seed, 400), kPortfolioRate,
                                args.seconds);
  const size_t n = arrivals.size();
  // The mix holds by count: class shares are exact, their order seeded.
  std::vector<int> classes;
  for (size_t c = 0; c < std::size(kPortfolioMix); ++c) {
    const auto count = static_cast<size_t>(
        std::llround(n * kPortfolioMix[c].percent / 100.0));
    for (size_t i = 0; i < count && classes.size() < n; ++i) {
      classes.push_back(static_cast<int>(c));
    }
  }
  while (classes.size() < n) classes.push_back(0);
  qdm::Rng shuffle_rng(SubSeed(args.seed, 500));
  shuffle_rng.Shuffle(&classes);
  std::vector<RemoteJob> jobs(n);
  for (size_t k = 0; k < n; ++k) {
    jobs[k] = MakeRemoteJob(kPortfolioMix[classes[k]], pools, args.seed, k);
  }

  Daemon daemon;
  const double setup_s = SetupDaemon(&daemon, [&](int port) {
    std::vector<RemoteJob> warmup;
    for (const JobClass& c : kPortfolioMix) {
      warmup.push_back(MakeRemoteJob(c, pools, args.seed ^ 0xABCD, 0));
    }
    return RunRemoteJobsSequentially(port, warmup);
  });
  if (setup_s < 0) {
    daemon.Stop();
    std::exit(1);
  }
  const int port = daemon.port();

  LoadObservations obs;
  std::unique_ptr<LoadSampler> sampler;
  if (args.trace) {
    sampler = std::make_unique<LoadSampler>(daemon.pid(), port);
    auto stats = QdmClient(port).Stats();
    if (stats.ok()) obs.stats_before = stats->stats;
  }
  obs.rss_kb_start = ReadRssKb(daemon.pid());

  struct Pending {
    size_t k;
    qdm::service::JobId id;
    int64_t due_ns;
  };
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<Pending> pending;
  int submitters_left = kSubmitters;
  std::atomic<size_t> next_arrival{0};
  std::vector<double> late_ms(n, 0.0);
  std::vector<Tally> tallies(kSubmitters + kWaiters);
  std::atomic<int64_t> last_done{0};
  std::vector<std::atomic<int>> check_slots(std::size(kPortfolioMix));
  for (auto& slot : check_slots) slot = 0;
  auto keep_for_check = [&](size_t k) {
    return k % 7 == 0 &&
           check_slots[classes[k]].fetch_add(1) < kMaxChecks / 8;
  };

  const int64_t start = NowNs();
  WindowClock clock(start, args.seconds, daemon.pid());
  {
    std::vector<std::thread> threads;
    for (int s = 0; s < kSubmitters; ++s) {
      threads.emplace_back([&, s] {
        QdmClient client(port);
        Tally& tally = tallies[s];
        size_t k;
        while ((k = next_arrival.fetch_add(1)) < n) {
          const int64_t due =
              start + static_cast<int64_t>(arrivals[k] * 1e9);
          while (NowNs() < due) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
          }
          late_ms[k] = NsToMs(NowNs() - due);
          ++tally.attempted;
          const std::vector<Qubo> qubos = EncodeJob(jobs[k]);
          auto id = SubmitJob(client, jobs[k], qubos);
          ++tally.rpcs;
          if (!id.ok()) {
            tally.RecordRemote(jobs[k], false, due, NowNs(), nullptr, false);
            continue;
          }
          std::lock_guard<std::mutex> lock(mutex);
          pending.push_back({k, *id, due});
          ready.notify_one();
        }
        std::lock_guard<std::mutex> lock(mutex);
        --submitters_left;
        ready.notify_all();
      });
    }
    for (int w = 0; w < kWaiters; ++w) {
      threads.emplace_back([&, w] {
        QdmClient client(port);
        Tally& tally = tallies[kSubmitters + w];
        while (true) {
          Pending item;
          {
            std::unique_lock<std::mutex> lock(mutex);
            ready.wait(lock, [&] {
              return !pending.empty() || submitters_left == 0;
            });
            if (pending.empty()) return;
            item = pending.front();
            pending.pop_front();
          }
          auto results = client.Wait(item.id);
          ++tally.rpcs;
          const int64_t done = NowNs();
          int64_t seen = last_done.load();
          while (done > seen && !last_done.compare_exchange_weak(seen, done)) {
          }
          tally.RecordRemote(jobs[item.k], results.ok(), item.due_ns, done,
                             results.ok() ? &*results : nullptr,
                             results.ok() && keep_for_check(item.k));
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  clock.Join();
  obs.rss_kb_end = ReadRssKb(daemon.pid());

  Tally tally;
  for (auto& t : tallies) tally.Merge(std::move(t));
  const double seconds =
      static_cast<double>(std::max(last_done.load(), start + 1) - start) / 1e9;
  CheckRemoteSamples(tally);
  result.attempted = tally.attempted;
  result.failed = tally.failed;
  obs.late_p99_ms = qdm_perf::Percentile(late_ms, 99);
  obs.offered_per_s = static_cast<double>(n) / args.seconds;
  AddNote(&result, "checked_jobs", std::to_string(tally.checks.size()));
  AddNote(&result, "generator_late_p99_ms", FormatDouble(obs.late_p99_ms));
  AddNote(&result, "generator_offered_per_s", FormatDouble(obs.offered_per_s));
  AddNote(&result, "generator_achieved_per_s",
          FormatDouble(tally.completed / seconds));
  const bool valid = obs.late_p99_ms <= kMaxLateP99Ms;
  AddNote(&result, "generator_valid", valid ? "true" : "false");
  if (!valid) {
    std::fprintf(stderr,
                 "qdm_perf: generator fell behind (p99 send lateness %.2f ms "
                 "> %.1f ms): this run is invalid\n",
                 obs.late_p99_ms, kMaxLateP99Ms);
  }

  if (!args.trace) {
    AddEndToEnd(tally, clock, setup_s, seconds, &result);
    return result;
  }
  std::vector<RemoteJob> replay_jobs;
  for (int i = 0; i < kTracePerClass; ++i) {
    for (const JobClass& c : kPortfolioMix) {
      replay_jobs.push_back(MakeRemoteJob(c, pools, args.seed ^ 0x7777, i));
    }
  }
  TraceRemote(tally, obs, sampler.get(), port, seconds, replay_jobs, &result);
  return result;
}

// The k-th call's epochs: consecutive pool entries, seed-derived options.
struct TxnCall {
  std::vector<const TxnInstance*> instances;
  std::vector<TxnScheduleProblem> epochs;
  SolverOptions options;
};

TxnCall MakeTxnCall(const std::vector<TxnInstance>& pool, uint64_t seed,
                    uint64_t k) {
  TxnCall call;
  for (int e = 0; e < kEpochsPerCall; ++e) {
    const TxnInstance& instance = pool[(k * kEpochsPerCall + e) % pool.size()];
    call.instances.push_back(&instance);
    call.epochs.push_back(instance.problem);
  }
  call.options = TxnOptions(SubSeed(seed, 600) + k * kEpochsPerCall);
  return call;
}

// Re-solves a call's epochs through SolveBatchParallel at one thread and
// compares the decoded schedules.
void CheckTxnCall(const TxnCall& call,
                  const std::vector<qdm::qopt::Schedule>& schedules) {
  std::vector<Qubo> qubos;
  for (const auto& epoch : call.epochs) {
    qubos.push_back(qdm::qopt::TxnScheduleToQubo(epoch));
  }
  auto sets = qdm::anneal::SolveBatchParallel("simulated_annealing", qubos,
                                              call.options, 1);
  bool same = sets.ok() && sets->size() == schedules.size();
  for (size_t i = 0; same && i < schedules.size(); ++i) {
    const auto local = qdm::qopt::DecodeSchedule(call.epochs[i],
                                                 (*sets)[i].best().assignment);
    same = local.slot_of_txn == schedules[i].slot_of_txn &&
           local.feasible == schedules[i].feasible;
  }
  if (!same) {
    g_mismatches.Report("SolveTxnScheduleEpochs at 4 threads differs from "
                        "SolveBatchParallel at 1 thread");
  }
}

RunResult RunTxnInProcess(const Args& args) {
  RunResult result;
  const std::vector<TxnInstance> pool = MakeTxnPool(args.seed, kTxnPool);
  const double setup_s = SetupInProcess();
  if (setup_s < 0 || !WarmupInProcess()) {
    std::fprintf(stderr, "qdm_perf: in-process set-up failed\n");
    std::exit(1);
  }
  LoadObservations obs;
  obs.rss_kb_start = ReadRssKb(getpid());

  Tally tally;
  std::vector<std::pair<TxnCall, std::vector<qdm::qopt::Schedule>>> checks;
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(args.seconds * 1e9);
  WindowClock clock(start, args.seconds, 0);
  for (uint64_t k = 0; NowNs() < stop; ++k) {
    TxnCall call = MakeTxnCall(pool, args.seed, k);
    tally.attempted += kEpochsPerCall;
    ++tally.jobs;
    const int64_t t0 = NowNs();
    auto schedules = qdm::qopt::SolveTxnScheduleEpochs(
        call.epochs, "simulated_annealing", call.options, 0.0, 1.0,
        kTxnThreads);
    const int64_t t1 = NowNs();
    if (!schedules.ok() || schedules->size() != call.epochs.size()) {
      tally.failed += kEpochsPerCall;
      continue;
    }
    bool valid = true;
    for (size_t i = 0; i < schedules->size(); ++i) {
      bool feasible = false;
      double gap = 0.0;
      valid = CheckSchedule(*call.instances[i], (*schedules)[i], &feasible,
                            &gap) && valid;
      ++tally.instances;
      if (feasible) {
        ++tally.feasible;
        tally.gap_sum += gap;
      }
    }
    if (!valid) {
      tally.failed += kEpochsPerCall;
      continue;
    }
    tally.completed += kEpochsPerCall;
    tally.done.push_back({t0, t1, kEpochsPerCall});
    if (tally.done.back().latency_ms() <= kTxnSloMs) ++tally.within_slo;
    if (checks.size() < kTxnChecks && k % 5 == 0) {
      checks.emplace_back(std::move(call), std::move(*schedules));
    }
  }
  const int64_t end = NowNs();
  clock.Join();
  obs.rss_kb_end = ReadRssKb(getpid());
  for (const auto& [call, schedules] : checks) CheckTxnCall(call, schedules);
  const double seconds = static_cast<double>(end - start) / 1e9;
  result.attempted = tally.attempted;
  result.failed = tally.failed;
  AddNote(&result, "checked_calls", std::to_string(checks.size()));

  if (!args.trace) {
    AddEndToEnd(tally, clock, setup_s, 0.0, &result);
    return result;
  }
  AddLoadMetrics(tally, obs, seconds, /*remote=*/false, &result);

  // Replay: calls untraced and stage by stage through the public pieces
  // SolveTxnScheduleEpochs is made of, then the batch at one thread.
  const qdm::anneal::BackendCacheStats cache_before =
      qdm::anneal::GetBackendCacheStats();
  Tracer tracer;
  ReplayTally replay;
  std::vector<double> t1_ms, t4_ms;
  for (int k = 0; k < kTraceTxnCalls; ++k) {
    const TxnCall call = MakeTxnCall(pool, args.seed ^ 0x7777, k);
    replay.attempted += 1;
    // The untraced twin alternates with the traced call, as remotely.
    qdm::Result<std::vector<qdm::qopt::Schedule>> plain =
        qdm::Status::Internal("not run");
    auto run_untraced = [&] {
      const int64_t t0 = NowNs();
      plain = qdm::qopt::SolveTxnScheduleEpochs(
          call.epochs, "simulated_annealing", call.options, 0.0, 1.0,
          kTxnThreads);
      replay.untraced_ms.push_back(NsToMs(NowNs() - t0));
    };
    if (k % 2 == 0) run_untraced();

    const uint64_t job = k + 1;
    const int root = tracer.Begin("inproc.call", -1, job);
    std::vector<Qubo> qubos;
    for (const auto& epoch : call.epochs) {
      qubos.push_back(tracer.Time("qopt.encode", root, job, [&] {
        return qdm::qopt::TxnScheduleToQubo(epoch);
      }));
    }
    const int batch = tracer.Begin("anneal.batch", root, job);
    auto sets = qdm::anneal::SolveBatchParallel("simulated_annealing", qubos,
                                                call.options, kTxnThreads);
    tracer.End(batch);
    std::vector<qdm::qopt::Schedule> schedules;
    if (sets.ok()) {
      auto best = tracer.Time("anneal.best_of_each", root, job, [&] {
        return qdm::anneal::BestOfEach(*sets, "simulated_annealing");
      });
      for (size_t i = 0; best.ok() && i < call.epochs.size(); ++i) {
        schedules.push_back(tracer.Time("qopt.decode", root, job, [&] {
          return qdm::qopt::DecodeSchedule(call.epochs[i],
                                           (*best)[i].assignment);
        }));
      }
    }
    tracer.End(root);
    if (k % 2 == 1) run_untraced();
    bool same = plain.ok() && schedules.size() == plain->size();
    for (size_t i = 0; same && i < schedules.size(); ++i) {
      same = schedules[i].slot_of_txn == (*plain)[i].slot_of_txn;
    }
    if (!same) {
      ++replay.failed;
      g_mismatches.Report("traced txn replay differs from the untraced call");
      continue;
    }
    const Span& r = tracer.spans()[root];
    const Span& b = tracer.spans()[batch];
    int64_t stage_ns = 0;
    for (size_t i = root + 1; i < tracer.spans().size(); ++i) {
      const Span& s = tracer.spans()[i];
      if (s.parent == root) stage_ns += s.end_ns - s.start_ns;
    }
    replay.traced_ms.push_back(NsToMs(r.end_ns - r.start_ns));
    replay.stage_sum_ms.push_back(NsToMs(stage_ns));
    t4_ms.push_back(NsToMs(b.end_ns - b.start_ns));

    // The same instances one by one on one backend: what SolveBatchParallel
    // does at one thread, timed per solve and checked bit-identical to the
    // 4-thread batch.
    auto backend =
        qdm::anneal::SolverRegistry::Global().Create("simulated_annealing");
    int64_t serial_ns = 0;
    for (size_t i = 0; backend.ok() && i < qubos.size(); ++i) {
      const SolverOptions options =
          qdm::anneal::DeriveBatchOptions(call.options, i);
      const int span =
          tracer.Begin("anneal.solve.simulated_annealing", -1, job);
      auto set = (*backend)->Solve(qubos[i], options);
      tracer.End(span);
      serial_ns += tracer.spans()[span].end_ns - tracer.spans()[span].start_ns;
      replay.sa_flips += static_cast<double>(qubos[i].num_variables()) *
                         options.num_sweeps * options.num_reads;
      if (!set.ok() || !SameSampleSet(*set, (*sets)[i])) {
        g_mismatches.Report("SolveBatchParallel at 4 threads differs from "
                            "solving its instances one by one");
      }
    }
    replay.sa_seconds += static_cast<double>(serial_ns) / 1e9;
    t1_ms.push_back(NsToMs(serial_ns));
  }
  const double t4 = qdm_perf::Median(t4_ms);
  replay.parallel_efficiency =
      t4 > 0 ? qdm_perf::Median(t1_ms) / (kTxnThreads * t4) : 0.0;
  AddReplayMetrics(tracer.spans(), replay, &result);
  AddCacheMetrics(cache_before, qdm::anneal::GetBackendCacheStats(), &result);
  result.attempted += replay.attempted;
  result.failed += replay.failed;
  result.spans = std::move(tracer.spans());
  return result;
}

// ---------------------------------------------------------------------------
// Run context and output.
// ---------------------------------------------------------------------------

void AddContext(const Args& args, RunResult* result) {
  std::vector<std::pair<std::string, std::string>> context = {
      {"workload", JsonString(args.workload)},
      {"seed", std::to_string(args.seed)},
      {"seconds", FormatDouble(args.seconds)},
      {"trace", args.trace ? "1" : "0"},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"simd_tier", JsonString(qdm::sim::simd::TierName(
                        qdm::sim::simd::DetectedTier()))},
      {"compiler", JsonString(QDM_PERF_COMPILER)},
      {"build_type", JsonString(QDM_PERF_BUILD_TYPE)},
      {"commit", JsonString(args.commit)},
  };
  const std::string loadavg = qdm_perf::ReadFile("/proc/loadavg");
  context.emplace_back("loadavg_1m",
                       FormatDouble(std::strtod(loadavg.c_str(), nullptr)));
  context.emplace_back(
      "loopback_time_wait",
      std::to_string(qdm_perf::CountLoopbackTimeWait(
          qdm_perf::ReadFile("/proc/net/tcp"))));
  result->notes.insert(result->notes.begin(), context.begin(), context.end());
}

std::string ContextJson(const RunResult& result) {
  std::string out = "{";
  for (size_t i = 0; i < result.notes.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(result.notes[i].first) + ": " + result.notes[i].second;
  }
  return out + "}";
}

std::string ResultJson(const RunResult& result, bool correct) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + FormatDouble(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}}";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->seconds > 0 &&
         (args->workload == "mqo_remote" ||
          args->workload == "txn_epochs_inproc" ||
          args->workload == "portfolio_open");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--setup-probe") == 0) {
    return RunSetupProbe();
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: qdm_perf --workload mqo_remote|txn_epochs_inproc|"
                 "portfolio_open --seed N --seconds S --trace 0|1 --out DIR "
                 "[--commit ID]\n");
    return 2;
  }
  // A peer closing a socket must surface as an error Status, not a signal.
  signal(SIGPIPE, SIG_IGN);

  RunResult result;
  if (args.workload == "mqo_remote") {
    result = RunMqoRemote(args);
  } else if (args.workload == "txn_epochs_inproc") {
    result = RunTxnInProcess(args);
  } else {
    result = RunPortfolioOpen(args);
  }
  AddContext(args, &result);
  const bool correct = !g_mismatches.any() && result.attempted > 0;

  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  const std::string context = ContextJson(result);
  const std::string line = ResultJson(result, correct);
  std::ofstream(stem + ".json") << "{\"context\": " << context
                                << ",\n \"result\": " << line << "}\n";
  if (!result.spans.empty()) {
    std::ofstream(stem + "-spans.json") << qdm_perf::SpansToJson(result.spans);
  }

  std::printf("context %s\n", context.c_str());
  for (const Metric& m : result.metrics) {
    std::printf("  %-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
