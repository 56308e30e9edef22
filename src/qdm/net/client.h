#ifndef QDM_NET_CLIENT_H_
#define QDM_NET_CLIENT_H_

#include <chrono>
#include <mutex>
#include <string>
#include <vector>

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/status.h"
#include "qdm/net/http.h"
#include "qdm/net/wire.h"
#include "qdm/service/job.h"

namespace qdm {
namespace net {

/// C++ client for a qdmd daemon on 127.0.0.1:`port` — the remote face of
/// SolverService, method for method.
///
/// Status transparency: a failed call returns the server's EXACT Status —
/// the (code, message) pair is decoded from the error body, so remote
/// error handling is byte-identical to in-process error handling (an
/// unknown solver is the same NotFound with the same registry listing).
/// Transport-level failures (connection refused, mid-message EOF) are the
/// only Internal statuses a healthy deployment never sees.
///
/// Determinism: Solve(solver, qubo, options) with options.seed == s
/// returns the bit-identical SampleSet of the in-process synchronous
/// Solve at seed s — the wire codec round-trips doubles and seeds
/// exactly (see wire.h).
///
/// Connections: calls send Connection: keep-alive, and a connection whose
/// response also said keep-alive, with no bytes after its body, goes back
/// on a list of idle sockets for the next call. A call takes an idle
/// socket or connects a new one, so the list grows to the number of
/// concurrent callers. If a reused socket fails before any response byte
/// arrives, the server closed it while it was idle without reading the
/// request (qdmd answers every request it starts reading), and the call
/// is sent once more on a fresh connection. Every other failure is
/// returned as is, so no request is sent twice after the server has read
/// it. The client is safe to share across threads; the destructor closes
/// the idle sockets.
class QdmClient {
 public:
  explicit QdmClient(int port) : port_(port) {}
  ~QdmClient();

  QdmClient(const QdmClient&) = delete;
  QdmClient& operator=(const QdmClient&) = delete;

  int port() const { return port_; }

  // -- Job lifecycle (mirrors SolverService) ----------------------------------

  Result<service::JobId> Submit(
      const std::string& solver, const anneal::Qubo& qubo,
      const anneal::SolverOptions& options = {},
      std::chrono::nanoseconds deadline = std::chrono::nanoseconds(0));

  Result<service::JobId> SubmitBatch(
      const std::string& solver, const std::vector<anneal::Qubo>& qubos,
      const anneal::SolverOptions& options = {},
      std::chrono::nanoseconds deadline = std::chrono::nanoseconds(0));

  Result<service::JobSnapshot> Poll(service::JobId id);

  /// Blocks server-side until the job is terminal.
  Result<std::vector<anneal::SampleSet>> Wait(service::JobId id);

  Status Cancel(service::JobId id);

  // -- One-shot conveniences --------------------------------------------------

  /// Submit + Wait, unwrapping the single SampleSet.
  Result<anneal::SampleSet> Solve(const std::string& solver,
                                  const anneal::Qubo& qubo,
                                  const anneal::SolverOptions& options = {});

  /// SubmitBatch + Wait.
  Result<std::vector<anneal::SampleSet>> SolveBatch(
      const std::string& solver, const std::vector<anneal::Qubo>& qubos,
      const anneal::SolverOptions& options = {});

  // -- Introspection ----------------------------------------------------------

  Result<std::vector<std::string>> ListSolvers();
  Result<StatsResponse> Stats();

  /// Ok when the daemon answers /healthz with 200.
  Status Healthz();

 private:
  /// One HTTP exchange; non-2xx responses are decoded into the server's
  /// Status and returned as the error.
  Result<std::string> RoundTrip(const std::string& method,
                                const std::string& target,
                                const std::string& body);

  /// The exchange on an idle or new keep-alive connection, with the one
  /// retry the class comment describes.
  Result<HttpResponse> PooledExchange(const std::string& method,
                                      const std::string& target,
                                      const std::string& body);

  Result<service::JobId> SubmitRequest(const JobRequest& request);

  const int port_;
  std::mutex mutex_;
  std::vector<int> idle_;  // Guarded by mutex_: connected, unused sockets.
};

}  // namespace net
}  // namespace qdm

#endif  // QDM_NET_CLIENT_H_
