#ifndef QDM_NET_HTTP_H_
#define QDM_NET_HTTP_H_

#include <string>

#include "qdm/common/status.h"

namespace qdm {
namespace net {

/// Minimal blocking HTTP/1.1 message layer over POSIX sockets — just enough
/// protocol for the qdmd daemon and its loopback clients, with no external
/// dependencies. Supported subset: request/response with Content-Length
/// bodies (no chunked transfer encoding), keep-alive and close connection
/// semantics, loopback TCP only. Anything outside the subset is rejected
/// with a 400, never silently misread.

/// One parsed request. `target` is the raw request-target ("/v1/jobs/7");
/// query strings are not interpreted by this server.
struct HttpRequest {
  std::string method;
  std::string target;
  std::string body;
  bool keep_alive = true;
};

/// One parsed response (client side) or one to be written (server side).
struct HttpResponse {
  int status = 0;
  std::string body;
};

/// Canonical reason phrase for the status codes this server emits.
const char* HttpReasonPhrase(int status);

/// Server side of one accepted connection. Owns the fd (closed by the
/// destructor) and an input buffer carrying pipelined bytes between
/// requests.
class HttpConnection {
 public:
  explicit HttpConnection(int fd) : fd_(fd) {}
  ~HttpConnection();

  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  enum class ReadOutcome {
    kRequest,  ///< `*request` holds one complete request.
    kClosed,   ///< Peer closed cleanly at a request boundary.
    kStopped,  ///< `wake_fd` became readable while idle at a request
               ///< boundary.
    kBad,      ///< Malformed or oversized request; `*error` names why. The
               ///< caller should answer 400 and close.
  };

  /// Blocks until one full request arrives. While the connection is idle
  /// at a request boundary it also polls `wake_fd` (-1: none), so shutdown
  /// wakes it at once; the server's wake fd stays readable once written.
  /// A started request (some bytes buffered) is always read to completion
  /// so graceful shutdown finishes at a message boundary.
  ReadOutcome ReadRequest(HttpRequest* request, int wake_fd,
                          std::string* error);

  /// Writes a complete response (status line, Content-Length, body).
  /// Returns false when the peer is gone (any write error).
  bool WriteResponse(const HttpResponse& response, bool keep_alive);

 private:
  int fd_;
  std::string buffer_;
};

/// Client side: a connected TCP socket to 127.0.0.1:`port`, with
/// TCP_NODELAY and close-on-exec. A failed connect is Internal and names
/// the port and the reason. The caller owns the returned fd.
Result<int> HttpConnect(int port);

/// What one client exchange left behind besides its result.
struct HttpExchangeInfo {
  /// Some response bytes arrived. When false on a failed exchange, the
  /// peer closed or reset the connection before answering.
  bool response_started = false;
  /// The exchange succeeded, the response said keep-alive, and no bytes
  /// followed its body: the socket can carry another request.
  bool reusable = false;
};

/// Client side: sends `method target` with `body` on the connected socket
/// `fd` (Connection: keep-alive or close, per `keep_alive`) and reads the
/// one response. The caller keeps ownership of `fd`. Transport-level
/// failures (mid-message EOF, malformed response) are Internal; HTTP-level
/// errors come back as a normal HttpResponse with a non-2xx status. Every
/// client call, pooled (QdmClient) or one-shot (HttpRoundTrip), reads its
/// response here.
Result<HttpResponse> HttpExchange(int fd, const std::string& method,
                                  const std::string& target,
                                  const std::string& body, bool keep_alive,
                                  HttpExchangeInfo* info);

/// Client side, one shot: HttpConnect, one HttpExchange with Connection:
/// close, then close. A refused connection is Internal like the other
/// transport failures.
Result<HttpResponse> HttpRoundTrip(int port, const std::string& method,
                                   const std::string& target,
                                   const std::string& body);

}  // namespace net
}  // namespace qdm

#endif  // QDM_NET_HTTP_H_
