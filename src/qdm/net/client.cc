#include "qdm/net/client.h"

#include <utility>

#include "qdm/common/strings.h"

namespace qdm {
namespace net {

namespace {

std::string JobTarget(service::JobId id, const char* suffix) {
  return StrFormat("/v1/jobs/%llu%s", static_cast<unsigned long long>(id),
                   suffix);
}

}  // namespace

Result<std::string> QdmClient::RoundTrip(const std::string& method,
                                         const std::string& target,
                                         const std::string& body) {
  QDM_ASSIGN_OR_RETURN(const HttpResponse response,
                       HttpRoundTrip(port_, method, target, body));
  if (response.status >= 200 && response.status < 300) {
    return response.body;
  }
  Status remote;
  const Status decode = DecodeErrorBody(response.body, &remote);
  if (!decode.ok()) {
    return Status::Internal(StrFormat(
        "HTTP %d with undecodable error body (%s)", response.status,
        decode.message().c_str()));
  }
  return remote;
}

Result<service::JobId> QdmClient::SubmitRequest(const JobRequest& request) {
  QDM_ASSIGN_OR_RETURN(
      const std::string body,
      RoundTrip("POST", "/v1/jobs", EncodeJobRequest(request)));
  return DecodeSubmitResponse(body);
}

Result<service::JobId> QdmClient::Submit(const std::string& solver,
                                         const anneal::Qubo& qubo,
                                         const anneal::SolverOptions& options,
                                         std::chrono::nanoseconds deadline) {
  JobRequest request;
  request.type = JobRequest::Type::kSubmit;
  request.solver = solver;
  request.qubos.push_back(qubo);
  request.options = options;
  request.deadline = deadline;
  return SubmitRequest(request);
}

Result<service::JobId> QdmClient::SubmitBatch(
    const std::string& solver, const std::vector<anneal::Qubo>& qubos,
    const anneal::SolverOptions& options, std::chrono::nanoseconds deadline) {
  JobRequest request;
  request.type = JobRequest::Type::kSubmitBatch;
  request.solver = solver;
  request.qubos = qubos;
  request.options = options;
  request.deadline = deadline;
  return SubmitRequest(request);
}

Result<service::JobSnapshot> QdmClient::Poll(service::JobId id) {
  QDM_ASSIGN_OR_RETURN(const std::string body,
                       RoundTrip("GET", JobTarget(id, ""), ""));
  return DecodeSnapshotResponse(body);
}

Result<std::vector<anneal::SampleSet>> QdmClient::Wait(service::JobId id) {
  QDM_ASSIGN_OR_RETURN(const std::string body,
                       RoundTrip("POST", JobTarget(id, "/wait"), ""));
  return DecodeResultsResponse(body);
}

Status QdmClient::Cancel(service::JobId id) {
  return RoundTrip("DELETE", JobTarget(id, ""), "").status();
}

Result<anneal::SampleSet> QdmClient::Solve(
    const std::string& solver, const anneal::Qubo& qubo,
    const anneal::SolverOptions& options) {
  QDM_ASSIGN_OR_RETURN(const service::JobId id,
                       Submit(solver, qubo, options));
  QDM_ASSIGN_OR_RETURN(std::vector<anneal::SampleSet> results, Wait(id));
  if (results.size() != 1) {
    return Status::Internal(StrFormat(
        "submit job resolved with %zu sample sets (expected 1)",
        results.size()));
  }
  return std::move(results[0]);
}

Result<std::vector<anneal::SampleSet>> QdmClient::SolveBatch(
    const std::string& solver, const std::vector<anneal::Qubo>& qubos,
    const anneal::SolverOptions& options) {
  QDM_ASSIGN_OR_RETURN(const service::JobId id,
                       SubmitBatch(solver, qubos, options));
  return Wait(id);
}

Result<std::vector<std::string>> QdmClient::ListSolvers() {
  QDM_ASSIGN_OR_RETURN(const std::string body,
                       RoundTrip("GET", "/v1/solvers", ""));
  return DecodeSolversResponse(body);
}

Result<StatsResponse> QdmClient::Stats() {
  QDM_ASSIGN_OR_RETURN(const std::string body,
                       RoundTrip("GET", "/v1/stats", ""));
  return DecodeStatsResponse(body);
}

Status QdmClient::Healthz() {
  return RoundTrip("GET", "/healthz", "").status();
}

}  // namespace net
}  // namespace qdm
