#include "qdm/net/server.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <system_error>
#include <utility>

#include "qdm/anneal/solver.h"
#include "qdm/common/strings.h"
#include "qdm/net/wire.h"

namespace qdm {
namespace net {

namespace {

HttpResponse ErrorResponse(const Status& status) {
  HttpResponse response;
  response.status = StatusCodeToHttpStatus(status.code());
  response.body = EncodeErrorBody(status);
  return response;
}

HttpResponse OkResponse(std::string body) {
  HttpResponse response;
  response.status = 200;
  response.body = std::move(body);
  return response;
}

/// Strict decimal job-id parse for path segments.
bool ParseJobId(const std::string& token, service::JobId* id) {
  if (token.empty() || token.size() > 20) return false;
  uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *id = value;
  return true;
}

}  // namespace

Result<std::unique_ptr<QdmServer>> QdmServer::Start(
    const ServerConfig& config) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config.port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string message = StrFormat("bind to 127.0.0.1:%d failed: %s",
                                          config.port, std::strerror(errno));
    ::close(fd);
    return Status::Internal(message);
  }
  if (::listen(fd, 128) != 0) {
    ::close(fd);
    return Status::Internal("listen() failed");
  }

  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &addr_len) !=
      0) {
    ::close(fd);
    return Status::Internal("getsockname() failed");
  }
  const int bound_port = ntohs(addr.sin_port);

  const int wake_fd = ::eventfd(0, EFD_CLOEXEC);
  if (wake_fd < 0) {
    ::close(fd);
    return Status::Internal("eventfd() failed");
  }

  std::unique_ptr<QdmServer> server(
      new QdmServer(fd, wake_fd, bound_port, config.service));
  return server;
}

QdmServer::QdmServer(int listen_fd, int wake_fd, int port,
                     const service::ServiceConfig& config)
    : listen_fd_(listen_fd),
      wake_fd_(wake_fd),
      port_(port),
      service_(new service::SolverService(config)) {
  acceptor_ = std::thread([this] { AcceptLoop(); });
}

QdmServer::~QdmServer() {
  Stop();
  ::close(wake_fd_);
}

void QdmServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  stop_.store(true, std::memory_order_release);
  // Never read, so the eventfd stays readable: every later poll on it,
  // the acceptor's and each idle connection's, returns at once.
  ::eventfd_write(wake_fd_, 1);
  acceptor_.join();
  ::close(listen_fd_);

  // Drain the service FIRST: queued jobs resolve Cancelled and running
  // jobs finish, so any connection blocked in Wait() gets its response
  // and reaches the next request boundary, where it observes stop_.
  service_->Shutdown();

  std::list<Connection> connections;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    connections.swap(connections_);
  }
  for (Connection& connection : connections) connection.thread.join();
}

void QdmServer::ReapFinishedLocked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void QdmServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    struct pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_fd_, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) continue;  // EINTR: re-check stop_.
    if (fds[1].revents != 0) return;       // Stop() wrote the wake fd.
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    ReapFinishedLocked();
    Connection& connection = connections_.emplace_back();
    try {
      connection.thread = std::thread([this, fd, &connection] {
        ServeConnection(fd);
        connection.done.store(true, std::memory_order_release);
      });
    } catch (const std::system_error&) {
      // Out of threads: drop this connection, keep the daemon.
      connections_.pop_back();
      ::close(fd);
    }
  }
}

void QdmServer::ServeConnection(int fd) {
  HttpConnection connection(fd);
  while (true) {
    HttpRequest request;
    std::string error;
    const HttpConnection::ReadOutcome outcome =
        connection.ReadRequest(&request, wake_fd_, &error);
    switch (outcome) {
      case HttpConnection::ReadOutcome::kClosed:
      case HttpConnection::ReadOutcome::kStopped:
        return;
      case HttpConnection::ReadOutcome::kBad: {
        HttpResponse response = ErrorResponse(Status::InvalidArgument(error));
        connection.WriteResponse(response, /*keep_alive=*/false);
        return;
      }
      case HttpConnection::ReadOutcome::kRequest:
        break;
    }
    const bool keep_alive =
        request.keep_alive && !stop_.load(std::memory_order_acquire);
    if (!connection.WriteResponse(Handle(request), keep_alive)) return;
    if (!keep_alive) return;
  }
}

HttpResponse QdmServer::Handle(const HttpRequest& request) {
  if (request.target == "/healthz" && request.method == "GET") {
    return OkResponse(EncodeHealthResponse(service_->accepting()));
  }
  if (request.target == "/v1/solvers" && request.method == "GET") {
    return OkResponse(EncodeSolversResponse(
        anneal::SolverRegistry::Global().RegisteredNames()));
  }
  if (request.target == "/v1/stats" && request.method == "GET") {
    StatsResponse stats;
    stats.stats = service_->stats();
    stats.accepting = service_->accepting();
    stats.num_workers = service_->num_workers();
    return OkResponse(EncodeStatsResponse(stats));
  }
  if (request.target == "/v1/jobs" && request.method == "POST") {
    return HandleSubmit(request.body);
  }
  if (request.target.rfind("/v1/jobs/", 0) == 0) {
    return HandleJobRoute(request.method, request.target);
  }
  return ErrorResponse(Status::NotFound(StrFormat(
      "no route %s %s", request.method.c_str(), request.target.c_str())));
}

HttpResponse QdmServer::HandleSubmit(const std::string& body) {
  Result<JobRequest> decoded = DecodeJobRequest(body);
  if (!decoded.ok()) return ErrorResponse(decoded.status());
  JobRequest& request = *decoded;

  service::SubmitOptions submit;
  submit.deadline = request.deadline;

  service::JobId id = 0;
  switch (request.type) {
    case JobRequest::Type::kSubmit: {
      Result<service::SubmittedJob> job = service_->Submit(
          request.solver, std::move(request.qubos[0]), request.options, submit);
      if (!job.ok()) return ErrorResponse(job.status());
      id = job->id;
      break;
    }
    case JobRequest::Type::kSubmitBatch: {
      Result<service::SubmittedBatch> job = service_->SubmitBatch(
          request.solver, std::move(request.qubos), request.options, submit);
      if (!job.ok()) return ErrorResponse(job.status());
      id = job->id;
      break;
    }
  }
  return OkResponse(EncodeSubmitResponse(id));
}

HttpResponse QdmServer::HandleJobRoute(const std::string& method,
                                       const std::string& target) {
  // target = /v1/jobs/<id>[/wait]
  std::string rest = target.substr(std::strlen("/v1/jobs/"));
  bool wait = false;
  const size_t slash = rest.find('/');
  if (slash != std::string::npos) {
    const std::string suffix = rest.substr(slash);
    if (suffix != "/wait") {
      return ErrorResponse(Status::NotFound(
          StrFormat("no route %s %s", method.c_str(), target.c_str())));
    }
    wait = true;
    rest = rest.substr(0, slash);
  }
  service::JobId id = 0;
  if (!ParseJobId(rest, &id)) {
    return ErrorResponse(Status::InvalidArgument(
        StrFormat("job id: '%s' is not a decimal job id", rest.c_str())));
  }

  if (wait) {
    if (method != "POST") {
      return ErrorResponse(Status::NotFound(
          StrFormat("no route %s %s", method.c_str(), target.c_str())));
    }
    Result<std::vector<anneal::SampleSet>> results = service_->Wait(id);
    if (!results.ok()) return ErrorResponse(results.status());
    return OkResponse(EncodeResultsResponse(*results));
  }
  if (method == "GET") {
    Result<service::JobSnapshot> snapshot = service_->Poll(id);
    if (!snapshot.ok()) return ErrorResponse(snapshot.status());
    return OkResponse(EncodeSnapshotResponse(*snapshot));
  }
  if (method == "DELETE") {
    const Status status = service_->Cancel(id);
    if (!status.ok()) return ErrorResponse(status);
    return OkResponse(EncodeCancelResponse(id));
  }
  return ErrorResponse(Status::NotFound(
      StrFormat("no route %s %s", method.c_str(), target.c_str())));
}

}  // namespace net
}  // namespace qdm
