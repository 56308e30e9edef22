// End-to-end battery for the qdmd network stack: an ephemeral-port
// QdmServer driven through QdmClient. Proves the two halves of the
// tentpole contract: (1) determinism ACROSS the wire — a remote solve at
// seed s is bit-identical to the in-process synchronous path at seed s,
// for races, batches and concurrent clients (backend_conformance_test.cc
// crosses every registered backend with the remote path); (2) the
// HTTP/Status taxonomy — NotFound->404, InvalidArgument->400,
// ResourceExhausted->429, DeadlineExceeded->504, Cancelled->409, with every
// error body carrying the exact sync-path Status message.

#include <dirent.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/status.h"
#include "qdm/common/strings.h"
#include "qdm/net/client.h"
#include "qdm/net/http.h"
#include "qdm/net/server.h"
#include "qdm/net/wire.h"
#include "qdm/service/solver_service.h"

namespace qdm {
namespace net {
namespace {

using anneal::BitIdentical;
using anneal::Qubo;
using anneal::SampleSet;
using anneal::SolverOptions;
using service::JobState;
using std::chrono::milliseconds;

Qubo MakeQubo(int num_variables, uint64_t seed) {
  Rng rng(seed);
  Qubo qubo(num_variables);
  for (int i = 0; i < num_variables; ++i) {
    qubo.AddLinear(i, rng.Uniform(-1, 1));
    for (int j = i + 1; j < num_variables; ++j) {
      qubo.AddQuadratic(i, j, rng.Uniform(-1, 1));
    }
  }
  return qubo;
}

SolverOptions FastOptions(uint64_t seed) {
  SolverOptions options;
  options.num_reads = 4;
  options.num_sweeps = 60;
  options.max_iterations = 60;
  options.layers = 1;
  options.restarts = 1;
  options.seed = seed;
  return options;
}

/// Gate the blocking test backend parks on (same pattern as
/// service_test.cc): lets taxonomy tests hold a job mid-run or in the
/// queue deterministically.
class Gate {
 public:
  static Gate& Get() {
    static Gate* gate = new Gate();
    return *gate;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = false;
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

  void BlockUntilOpen() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++started_;
    }
    started_cv_.notify_all();
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

  void WaitForStarted(int at_least) {
    std::unique_lock<std::mutex> lock(mutex_);
    started_cv_.wait(lock, [&] { return started_ >= at_least; });
  }

  void ResetStarted() {
    std::lock_guard<std::mutex> lock(mutex_);
    started_ = 0;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable started_cv_;
  bool open_ = true;
  int started_ = 0;
};

class BlockingSolver : public anneal::QuboSolver {
 public:
  Result<SampleSet> Solve(const Qubo& qubo,
                          const SolverOptions& options) override {
    Gate::Get().BlockUntilOpen();
    return anneal::SolveWith("simulated_annealing", qubo, options);
  }
  std::string name() const override { return "test_net_blocking"; }
};

bool RegisterTestSolvers() {
  anneal::SolverRegistry::Global()
      .Register("test_net_blocking",
                [] { return std::make_unique<BlockingSolver>(); })
      .ok();
  return true;
}

const bool kTestSolversRegistered = RegisterTestSolvers();

std::unique_ptr<QdmServer> StartServer(int num_workers,
                                       int max_queue_depth = 0) {
  ServerConfig config;
  config.port = 0;  // Ephemeral.
  config.service.num_workers = num_workers;
  config.service.max_queue_depth = max_queue_depth;
  auto server = QdmServer::Start(config);
  QDM_CHECK(server.ok()) << server.status();
  return std::move(*server);
}

// ---------------------------------------------------------------------------
// Determinism across the wire.
// ---------------------------------------------------------------------------

TEST(NetParityTest, RemoteBatchBitIdenticalToSolveBatchParallel) {
  std::vector<Qubo> qubos;
  for (uint64_t i = 0; i < 5; ++i) qubos.push_back(MakeQubo(4, 100 + i));
  const SolverOptions options = FastOptions(7);

  auto sync = anneal::SolveBatchParallel("simulated_annealing", qubos, options,
                                         /*num_threads=*/1);
  ASSERT_TRUE(sync.ok()) << sync.status();

  std::unique_ptr<QdmServer> server = StartServer(2);
  QdmClient client(server->port());
  auto remote = client.SolveBatch("simulated_annealing", qubos, options);
  ASSERT_TRUE(remote.ok()) << remote.status();
  ASSERT_EQ(remote->size(), sync->size());
  for (size_t i = 0; i < sync->size(); ++i) {
    EXPECT_TRUE(BitIdentical((*remote)[i], (*sync)[i])) << "instance " << i;
  }
}

TEST(NetParityTest, RemoteRaceBitIdenticalToSyncRace) {
  const Qubo qubo = MakeQubo(5, 33);
  const SolverOptions options = FastOptions(55);
  auto sync =
      anneal::SolveWith("race:simulated_annealing+tabu_search", qubo, options);
  ASSERT_TRUE(sync.ok()) << sync.status();

  std::unique_ptr<QdmServer> server = StartServer(2);
  QdmClient client(server->port());
  auto id =
      client.Submit("race:simulated_annealing+tabu_search", qubo, options);
  ASSERT_TRUE(id.ok()) << id.status();
  auto remote = client.Wait(*id);
  ASSERT_TRUE(remote.ok()) << remote.status();
  ASSERT_EQ(remote->size(), 1u);
  EXPECT_TRUE(BitIdentical((*remote)[0], *sync));

  // The terminal snapshot is visible remotely with the sync-path Status.
  auto snapshot = client.Poll(*id);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(snapshot->state, JobState::kSucceeded);
  EXPECT_TRUE(snapshot->status.ok());
}

TEST(NetParityTest, LegacySubmitRaceBodyWaitsToTheRaceNameResult) {
  // A raw "submit_race" body, byte for byte what older clients send, is the
  // submit of its "race:" name: the /wait response bytes match that
  // submit's exactly.
  const Qubo qubo = MakeQubo(5, 34);
  const SolverOptions options = FastOptions(56);
  const std::string name = "race:simulated_annealing+tabu_search";
  JobRequest request;
  request.solver = name;
  request.qubos.push_back(qubo);
  request.options = options;
  const std::string submit_body = EncodeJobRequest(request);
  std::string race_body = submit_body;
  const std::string submit_head =
      "\"type\":\"submit\",\"solver\":\"" + name + "\"";
  const size_t at = race_body.find(submit_head);
  ASSERT_NE(at, std::string::npos) << race_body;
  race_body.replace(at, submit_head.size(),
                    "\"type\":\"submit_race\",\"members\":"
                    "[\"simulated_annealing\",\"tabu_search\"]");

  std::unique_ptr<QdmServer> server = StartServer(2);
  std::vector<std::string> waited;
  for (const std::string& body : {submit_body, race_body}) {
    auto submitted = HttpRoundTrip(server->port(), "POST", "/v1/jobs", body);
    ASSERT_TRUE(submitted.ok()) << submitted.status();
    ASSERT_EQ(submitted->status, 200) << submitted->body;
    auto id = DecodeSubmitResponse(submitted->body);
    ASSERT_TRUE(id.ok()) << id.status();
    auto wait = HttpRoundTrip(server->port(), "POST",
                              "/v1/jobs/" + std::to_string(*id) + "/wait", "");
    ASSERT_TRUE(wait.ok()) << wait.status();
    ASSERT_EQ(wait->status, 200) << wait->body;
    waited.push_back(wait->body);
  }
  EXPECT_EQ(waited[1], waited[0]);
}

TEST(NetParityTest, ConcurrentClientsEachGetTheirOwnDeterministicResult) {
  // Eight client threads, distinct seeds, one 4-worker server: results
  // must match each seed's sync path — no cross-talk between jobs.
  const Qubo qubo = MakeQubo(4, 9);
  std::unique_ptr<QdmServer> server = StartServer(4);
  const int kClients = 8;
  std::vector<std::thread> threads;
  std::vector<Status> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      QdmClient client(server->port());
      const SolverOptions options = FastOptions(1000 + c);
      auto sync = anneal::SolveWith("simulated_annealing", qubo, options);
      auto remote = client.Solve("simulated_annealing", qubo, options);
      if (!remote.ok()) {
        failures[c] = remote.status();
      } else if (!sync.ok() || !BitIdentical(*remote, *sync)) {
        failures[c] = Status::Internal("remote result != sync result");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].ok()) << "client " << c << ": " << failures[c];
  }
}

// ---------------------------------------------------------------------------
// Introspection endpoints.
// ---------------------------------------------------------------------------

TEST(NetIntrospectionTest, SolversStatsHealthz) {
  std::unique_ptr<QdmServer> server = StartServer(3);
  QdmClient client(server->port());

  EXPECT_TRUE(client.Healthz().ok());

  auto solvers = client.ListSolvers();
  ASSERT_TRUE(solvers.ok()) << solvers.status();
  EXPECT_EQ(*solvers, anneal::SolverRegistry::Global().RegisteredNames());

  auto id =
      client.Submit("simulated_annealing", MakeQubo(3, 1), FastOptions(2));
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_TRUE(client.Wait(*id).ok());

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->stats.submitted, 1u);
  EXPECT_EQ(stats->stats.completed, 1u);
  EXPECT_TRUE(stats->accepting);
  EXPECT_EQ(stats->num_workers, server->service().num_workers());
}

// ---------------------------------------------------------------------------
// HTTP <-> Status taxonomy: every error crosses the wire with the exact
// sync-path message, and the HTTP code follows StatusCodeToHttpStatus.
// ---------------------------------------------------------------------------

/// Raw exchange asserting the HTTP status and returning the decoded body
/// Status (the remote error).
Status RawExpectHttp(int port, const std::string& method,
                     const std::string& target, const std::string& body,
                     int expected_http) {
  auto response = HttpRoundTrip(port, method, target, body);
  QDM_CHECK(response.ok()) << response.status();
  EXPECT_EQ(response->status, expected_http) << response->body;
  Status remote;
  const Status decode = DecodeErrorBody(response->body, &remote);
  QDM_CHECK(decode.ok()) << decode << " body: " << response->body;
  return remote;
}

TEST(NetTaxonomyTest, UnknownSolverIs404WithTheExactRegistryMessage) {
  std::unique_ptr<QdmServer> server = StartServer(1);
  QdmClient client(server->port());
  const Qubo qubo = MakeQubo(3, 1);

  // The sync-path Status for the same mistake.
  auto sync = anneal::SolveWith("no_such_solver", qubo, FastOptions(1));
  ASSERT_FALSE(sync.ok());
  ASSERT_EQ(sync.status().code(), StatusCode::kNotFound);

  auto remote = client.Submit("no_such_solver", qubo, FastOptions(1));
  ASSERT_FALSE(remote.ok());
  EXPECT_EQ(remote.status(), sync.status()) << remote.status();

  // And the raw HTTP view: 404 per StatusCodeToHttpStatus.
  JobRequest request;
  request.solver = "no_such_solver";
  request.qubos.push_back(qubo);
  request.options = FastOptions(1);
  const Status raw = RawExpectHttp(server->port(), "POST", "/v1/jobs",
                                   EncodeJobRequest(request), 404);
  EXPECT_EQ(raw, sync.status());
}

TEST(NetTaxonomyTest, UnknownJobIdIs404WithTheServiceMessage) {
  std::unique_ptr<QdmServer> server = StartServer(1);
  QdmClient client(server->port());

  // The exact message SolverService::Poll produces in-process.
  service::SolverService local;
  const Status expected = local.Poll(99).status();
  ASSERT_EQ(expected.code(), StatusCode::kNotFound);

  auto remote = client.Poll(99);
  ASSERT_FALSE(remote.ok());
  EXPECT_EQ(remote.status(), expected);

  EXPECT_EQ(RawExpectHttp(server->port(), "GET", "/v1/jobs/99", "", 404),
            expected);
}

TEST(NetTaxonomyTest, MalformedBodyIs400NamingTheProblem) {
  std::unique_ptr<QdmServer> server = StartServer(1);
  const Status truncated = RawExpectHttp(server->port(), "POST", "/v1/jobs",
                                         "{\"version\":1,\"ty", 400);
  EXPECT_EQ(truncated.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(truncated.message().find("JSON parse error"), std::string::npos);

  const Status unknown_version = RawExpectHttp(
      server->port(), "POST", "/v1/jobs", "{\"version\":99}", 400);
  EXPECT_NE(unknown_version.message().find("version"), std::string::npos);

  const Status bad_id =
      RawExpectHttp(server->port(), "GET", "/v1/jobs/banana", "", 400);
  EXPECT_NE(bad_id.message().find("banana"), std::string::npos);

  const Status no_route =
      RawExpectHttp(server->port(), "GET", "/v2/jobs", "", 404);
  EXPECT_EQ(no_route.code(), StatusCode::kNotFound);
  EXPECT_NE(no_route.message().find("/v2/jobs"), std::string::npos);
}

TEST(NetTaxonomyTest, SingleReplicaTemperingIs400AndTheDaemonKeepsServing) {
  // "num_replicas":1 is the backend's to reject, so the job is accepted,
  // its wait answers 400 with the sync-path message, and the daemon keeps
  // serving.
  std::unique_ptr<QdmServer> server = StartServer(1);
  QdmClient client(server->port());
  const Qubo qubo = MakeQubo(3, 1);
  SolverOptions options = FastOptions(1);
  options.num_replicas = 1;
  for (const std::string name :
       {"parallel_tempering", "embedded:parallel_tempering:chimera:2x2x4"}) {
    SCOPED_TRACE(name);
    const auto sync = anneal::SolveWith(name, qubo, options);
    ASSERT_EQ(sync.status().code(), StatusCode::kInvalidArgument);

    auto id = client.Submit(name, qubo, options);
    ASSERT_TRUE(id.ok()) << id.status();
    EXPECT_EQ(
        RawExpectHttp(server->port(), "POST",
                      "/v1/jobs/" + std::to_string(*id) + "/wait", "", 400),
        sync.status());
    EXPECT_TRUE(client.Healthz().ok());
  }
}

TEST(NetTaxonomyTest, QueueFullIs429AndCancelledIs409) {
  // 1 worker, queue depth 1: first job runs (parked on the gate), second
  // queues, third bounces with ResourceExhausted.
  Gate::Get().ResetStarted();
  Gate::Get().Close();
  std::unique_ptr<QdmServer> server =
      StartServer(/*num_workers=*/1, /*max_queue_depth=*/1);
  QdmClient client(server->port());
  const Qubo qubo = MakeQubo(3, 5);

  auto running = client.Submit("test_net_blocking", qubo, FastOptions(1));
  ASSERT_TRUE(running.ok()) << running.status();
  Gate::Get().WaitForStarted(1);  // Provably mid-run.

  auto queued = client.Submit("test_net_blocking", qubo, FastOptions(2));
  ASSERT_TRUE(queued.ok()) << queued.status();

  auto rejected = client.Submit("test_net_blocking", qubo, FastOptions(3));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // Raw view: 429, and the body round-trips the same Status.
  JobRequest request;
  request.solver = "test_net_blocking";
  request.qubos.push_back(qubo);
  request.options = FastOptions(4);
  const Status raw = RawExpectHttp(server->port(), "POST", "/v1/jobs",
                                   EncodeJobRequest(request), 429);
  EXPECT_EQ(raw, rejected.status());

  // Cancel the queued job; its Wait resolves Cancelled -> 409, and the
  // remote snapshot carries the same terminal Status the wait reported.
  ASSERT_TRUE(client.Cancel(*queued).ok());
  auto waited = client.Wait(*queued);
  ASSERT_FALSE(waited.ok());
  EXPECT_EQ(waited.status().code(), StatusCode::kCancelled);
  auto snapshot = client.Poll(*queued);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(snapshot->state, JobState::kCancelled);
  EXPECT_EQ(snapshot->status, waited.status());
  EXPECT_EQ(RawExpectHttp(server->port(), "POST",
                          StrFormat("/v1/jobs/%llu/wait",
                                    static_cast<unsigned long long>(*queued)),
                          "", 409),
            waited.status());

  // Cancelling a terminal job is FailedPrecondition -> 409 as well.
  const Status again = client.Cancel(*queued);
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);

  Gate::Get().Open();
  auto first = client.Wait(*running);
  EXPECT_TRUE(first.ok()) << first.status();
  server->Stop();
}

TEST(NetTaxonomyTest, ExpiredDeadlineIs504WithTheServiceMessage) {
  Gate::Get().ResetStarted();
  Gate::Get().Close();
  std::unique_ptr<QdmServer> server = StartServer(/*num_workers=*/1);
  QdmClient client(server->port());
  const Qubo qubo = MakeQubo(3, 6);

  // Park the worker, submit with a deadline that expires in the queue,
  // then release the worker: the drainer finds the corpse (queued-expiry
  // is detected at dequeue, same as the in-process battery).
  auto blocker = client.Submit("test_net_blocking", qubo, FastOptions(1));
  ASSERT_TRUE(blocker.ok()) << blocker.status();
  Gate::Get().WaitForStarted(1);

  auto doomed = client.Submit("simulated_annealing", qubo, FastOptions(2),
                              milliseconds(1));
  ASSERT_TRUE(doomed.ok()) << doomed.status();
  std::this_thread::sleep_for(milliseconds(10));
  Gate::Get().Open();

  auto waited = client.Wait(*doomed);
  ASSERT_FALSE(waited.ok());
  EXPECT_EQ(waited.status().code(), StatusCode::kDeadlineExceeded);

  // The snapshot's Status (authoritative, server-side) crossed the wire
  // verbatim, and the raw HTTP view maps it to 504.
  auto snapshot = client.Poll(*doomed);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(snapshot->state, JobState::kDeadlineExceeded);
  EXPECT_EQ(snapshot->status, waited.status());
  EXPECT_EQ(RawExpectHttp(server->port(), "POST",
                          StrFormat("/v1/jobs/%llu/wait",
                                    static_cast<unsigned long long>(*doomed)),
                          "", 504),
            waited.status());

  ASSERT_TRUE(client.Wait(*blocker).ok());
  server->Stop();
}

TEST(NetTaxonomyTest, DeadlineAtInt64MaxSucceeds) {
  std::unique_ptr<QdmServer> server = StartServer(/*num_workers=*/1);
  QdmClient client(server->port());
  auto id = client.Submit("simulated_annealing", MakeQubo(3, 7), FastOptions(4),
                          std::chrono::nanoseconds::max());
  ASSERT_TRUE(id.ok()) << id.status();
  auto waited = client.Wait(*id);
  EXPECT_TRUE(waited.ok()) << waited.status();
  auto snapshot = client.Poll(*id);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(snapshot->state, JobState::kSucceeded);
  server->Stop();
}

// ---------------------------------------------------------------------------
// Server lifecycle.
// ---------------------------------------------------------------------------

TEST(NetLifecycleTest, StopDrainsAndStopsAccepting) {
  std::unique_ptr<QdmServer> server = StartServer(2);
  const int port = server->port();
  QdmClient client(port);
  auto id =
      client.Submit("simulated_annealing", MakeQubo(3, 2), FastOptions(3));
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_TRUE(client.Wait(*id).ok());

  server->Stop();
  server->Stop();  // Idempotent.

  // The port no longer answers.
  auto after = HttpRoundTrip(port, "GET", "/healthz", "");
  EXPECT_FALSE(after.ok());
}

TEST(NetLifecycleTest, KeepAliveConnectionServesManyRequests) {
  // QdmClient keeps its connection open between calls, so this burst of
  // back-to-back Healthz probes drives the server's keep-alive loop on one
  // socket: every probe must be answered.
  std::unique_ptr<QdmServer> server = StartServer(2);
  QdmClient client(server->port());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.Healthz().ok()) << "probe " << i;
  }
  server->Stop();
}

// Threads of this process (entries of /proc/self/task).
size_t CountThreads() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/task");
  QDM_CHECK(dir != nullptr);
  while (const struct dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

// Memory mappings of this process (lines of /proc/self/maps).
size_t CountMappings() {
  std::ifstream maps("/proc/self/maps");
  size_t count = 0;
  for (std::string line; std::getline(maps, line);) ++count;
  return count;
}

TEST(NetLifecycleTest, FinishedConnectionThreadsAreReaped) {
  // Every HttpRoundTrip is one connection, served by one thread. A
  // finished thread leaves /proc/self/task at once, but keeps its stack
  // mapped until it is joined: a daemon that joined only in Stop() grew
  // by two mappings per connection and could not start a thread past the
  // kernel's vm.max_map_count (about 32k connections). 2,000 sequential
  // connections must leave both counts near where they started.
  std::unique_ptr<QdmServer> server = StartServer(1);
  const auto probe = [&] {
    auto response = HttpRoundTrip(server->port(), "GET", "/healthz", "");
    return response.ok() && response->status == 200;
  };
  ASSERT_TRUE(probe());  // First connection thread.
  const size_t threads_before = CountThreads();
  const size_t mappings_before = CountMappings();
  size_t threads_peak = threads_before;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(probe()) << "probe " << i;
    threads_peak = std::max(threads_peak, CountThreads());
  }
  EXPECT_LE(threads_peak, threads_before + 8);
  EXPECT_LE(CountMappings(), mappings_before + 64);
  server->Stop();
}

TEST(NetLifecycleTest, StopRightAfterAnExchangeReturnsAtOnce) {
  // The client's keep-alive connection sits idle in the server's read
  // loop, and the acceptor is back in poll: Stop() wakes both through its
  // wake fd instead of waiting out a poll timeout.
  std::unique_ptr<QdmServer> server = StartServer(2);
  QdmClient client(server->port());
  ASSERT_TRUE(client.Healthz().ok());
  const auto start = std::chrono::steady_clock::now();
  server->Stop();
  const auto elapsed = std::chrono::duration_cast<milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 50);
}

// ---------------------------------------------------------------------------
// Request heads outside the HTTP subset: each is a 400 naming why.
// ---------------------------------------------------------------------------

/// Sends `bytes` on one end of a socketpair and closes it, then reads the
/// other end with HttpConnection::ReadRequest: the error of a rejected
/// request, or "accepted".
std::string ReadRequestOutcome(const std::string& bytes) {
  int fds[2];
  QDM_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
  QDM_CHECK(::write(fds[1], bytes.data(), bytes.size()) ==
            static_cast<ssize_t>(bytes.size()));
  ::close(fds[1]);
  HttpConnection connection(fds[0]);
  HttpRequest request;
  std::string error;
  const HttpConnection::ReadOutcome outcome =
      connection.ReadRequest(&request, /*wake_fd=*/-1, &error);
  if (outcome == HttpConnection::ReadOutcome::kRequest) return "accepted";
  EXPECT_EQ(outcome, HttpConnection::ReadOutcome::kBad);
  return error;
}

TEST(NetHttpHeadTest, BodyFramingOutsideTheSubsetIsRejected) {
  const std::string head = "GET /healthz HTTP/1.1\r\nHost: qdmd\r\n";
  EXPECT_EQ(ReadRequestOutcome(head + "Content-Length: 2\r\n\r\n{}"),
            "accepted");
  EXPECT_EQ(ReadRequestOutcome(head + "Content-Length: +2\r\n\r\n{}"),
            "malformed Content-Length '+2'");
  EXPECT_EQ(
      ReadRequestOutcome(head + "Content-Length: 2\r\nContent-Length: 2\r\n"
                                "\r\n{}"),
      "duplicate Content-Length header");
  EXPECT_EQ(ReadRequestOutcome(head + "Transfer-Encoding: chunked\r\n\r\n"),
            "Transfer-Encoding is not supported (use Content-Length)");
  EXPECT_EQ(ReadRequestOutcome(head + "Content-Length: 8388609\r\n\r\n"),
            "payload: Content-Length 8388609 exceeds the 8388608-byte wire "
            "limit");
}

// ---------------------------------------------------------------------------
// QdmClient connections: reuse, the one retry, and sharing across threads.
// ---------------------------------------------------------------------------

/// A loopback listen socket the test owns, so a test can play the server:
/// accept, answer, or close exactly when it chooses.
class TestListener {
 public:
  TestListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    QDM_CHECK(fd_ >= 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    QDM_CHECK(::bind(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr)) == 0);
    QDM_CHECK(::listen(fd_, 16) == 0);
    socklen_t len = sizeof(addr);
    QDM_CHECK(::getsockname(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                            &len) == 0);
    port_ = ntohs(addr.sin_port);
  }
  ~TestListener() { Close(); }

  TestListener(const TestListener&) = delete;
  TestListener& operator=(const TestListener&) = delete;

  int port() const { return port_; }

  /// The next connection, or nullptr when none arrives within
  /// `timeout_ms`: a client that never connects fails the test instead of
  /// hanging it.
  std::unique_ptr<HttpConnection> Accept(int timeout_ms = 5000) {
    struct pollfd pfd = {fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) != 1) return nullptr;
    const int fd = ::accept(fd_, nullptr, nullptr);
    QDM_CHECK(fd >= 0);
    return std::make_unique<HttpConnection>(fd);
  }

  /// Stops listening: from now on a connect is refused, and connections
  /// not yet accepted are reset.
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  int port_ = 0;
};

/// Reads one request on `connection` and answers it with a keep-alive 200
/// health body. False when there is no connection or the peer closed it.
bool AnswerOne(HttpConnection* connection) {
  HttpRequest request;
  std::string error;
  if (connection == nullptr ||
      connection->ReadRequest(&request, /*wake_fd=*/-1, &error) !=
          HttpConnection::ReadOutcome::kRequest) {
    return false;
  }
  HttpResponse response;
  response.status = 200;
  response.body = EncodeHealthResponse(true);
  return connection->WriteResponse(response, /*keep_alive=*/true);
}

TEST(NetClientConnectionTest, TwentyCallsShareOneConnection) {
  // The listener accepts once and stops listening, so a call that opened
  // a second connection would be refused.
  TestListener listener;
  int requests = 0;
  std::thread peer([&] {
    std::unique_ptr<HttpConnection> connection = listener.Accept();
    listener.Close();
    while (AnswerOne(connection.get())) ++requests;
  });
  int answered = 0;
  {
    QdmClient client(listener.port());
    for (int i = 0; i < 20; ++i) answered += client.Healthz().ok();
  }  // Closing the idle socket ends the peer's loop.
  peer.join();
  EXPECT_EQ(answered, 20);
  EXPECT_EQ(requests, 20);
}

TEST(NetClientConnectionTest, IdleSocketClosedByThePeerIsRetriedOnce) {
  // The peer answers one request, then closes that connection while the
  // client holds it idle. The next call fails on it before any response
  // byte, so it is sent once more, on a second connection.
  TestListener listener;
  int accepts = 0;
  int requests = 0;
  std::promise<void> first_closed;
  std::thread peer([&] {
    if (std::unique_ptr<HttpConnection> first = listener.Accept()) {
      ++accepts;
      requests += AnswerOne(first.get());
    }  // Closed here, while the client holds it idle.
    first_closed.set_value();
    if (std::unique_ptr<HttpConnection> second = listener.Accept()) {
      ++accepts;
      while (AnswerOne(second.get())) ++requests;
    }
  });
  Status first_call;
  Status second_call;
  {
    QdmClient client(listener.port());
    first_call = client.Healthz();
    first_closed.get_future().wait();
    second_call = client.Healthz();
  }
  peer.join();
  EXPECT_TRUE(first_call.ok()) << first_call;
  EXPECT_TRUE(second_call.ok()) << second_call;
  EXPECT_EQ(accepts, 2);
  EXPECT_EQ(requests, 2);
}

TEST(NetClientConnectionTest, FreshConnectionClosedWithoutAResponseFails) {
  // A new connection that the peer closes after reading the request may
  // have run it: the call fails and the POST is not sent again. A retry
  // would connect within microseconds, so the peer watches for one for
  // 200 ms before it stops listening.
  TestListener listener;
  int requests = 0;
  bool second_connection = false;
  std::thread peer([&] {
    if (std::unique_ptr<HttpConnection> connection = listener.Accept()) {
      HttpRequest request;
      std::string error;
      requests += connection->ReadRequest(&request, /*wake_fd=*/-1, &error) ==
                  HttpConnection::ReadOutcome::kRequest;
    }  // Closed without a response.
    second_connection = listener.Accept(/*timeout_ms=*/200) != nullptr;
    listener.Close();
  });
  QdmClient client(listener.port());
  auto submitted =
      client.Submit("simulated_annealing", MakeQubo(3, 1), FastOptions(1));
  peer.join();
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kInternal);
  EXPECT_EQ(requests, 1);
  EXPECT_FALSE(second_connection);
}

TEST(NetClientConnectionTest, OneClientSharedByEightThreads) {
  // The idle list is shared: concurrent calls each take their own socket,
  // and every thread still gets its own seed's exact result.
  const Qubo qubo = MakeQubo(4, 10);
  std::unique_ptr<QdmServer> server = StartServer(4);
  QdmClient client(server->port());
  const int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<Status> failures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        const SolverOptions options = FastOptions(2000 + 10 * t + round);
        auto sync = anneal::SolveWith("simulated_annealing", qubo, options);
        auto remote = client.Solve("simulated_annealing", qubo, options);
        if (!remote.ok()) {
          failures[t] = remote.status();
        } else if (!sync.ok() || !BitIdentical(*remote, *sync)) {
          failures[t] = Status::Internal("remote result != sync result");
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].ok()) << "thread " << t << ": " << failures[t];
  }
  server->Stop();
}

}  // namespace
}  // namespace net
}  // namespace qdm
