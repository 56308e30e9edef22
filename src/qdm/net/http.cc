#include "qdm/net/http.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <cstring>

#include "qdm/common/strings.h"
#include "qdm/net/wire.h"

namespace qdm {
namespace net {

namespace {

/// Headers are small; a header block larger than this is hostile.
constexpr size_t kMaxHeaderBytes = 64 * 1024;

bool AsciiEqualsIgnoreCase(const std::string& a, const char* b) {
  size_t i = 0;
  for (; i < a.size() && b[i] != '\0'; ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return i == a.size() && b[i] == '\0';
}

std::string TrimSpace(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && (text[begin] == ' ' || text[begin] == '\t')) ++begin;
  while (end > begin && (text[end - 1] == ' ' || text[end - 1] == '\t')) {
    --end;
  }
  return text.substr(begin, end - begin);
}

/// Writes all of `data`, riding out EINTR and partial writes.
bool WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Blocking read of at least one more byte into `*buffer`. Returns 1 on
/// data, 0 on clean EOF, -1 on error.
int ReadSome(int fd, std::string* buffer) {
  char chunk[16 * 1024];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer->append(chunk, static_cast<size_t>(n));
      return 1;
    }
    if (n == 0) return 0;
    if (errno == EINTR) continue;
    return -1;
  }
}

/// Parses the header block in buffer[0, header_end) into method/target/
/// content-length/keep-alive. Returns an error message on malformed input.
struct ParsedHead {
  std::string method;
  std::string target;
  size_t content_length = 0;
  bool keep_alive = true;
  bool is_request = true;
  int status = 0;  // Response side.
};

bool ParseHead(const std::string& head, bool expect_request, ParsedHead* out,
               std::string* error) {
  size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos) {
    *error = "missing request line terminator";
    return false;
  }
  const std::string start_line = head.substr(0, line_end);

  if (expect_request) {
    const size_t sp1 = start_line.find(' ');
    const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                : start_line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      *error = "malformed request line '" + start_line + "'";
      return false;
    }
    out->method = start_line.substr(0, sp1);
    out->target = start_line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string version = start_line.substr(sp2 + 1);
    if (version != "HTTP/1.1" && version != "HTTP/1.0") {
      *error = "unsupported protocol version '" + version + "'";
      return false;
    }
    out->keep_alive = version == "HTTP/1.1";
  } else {
    // Status line: HTTP/1.1 <code> <reason>.
    if (start_line.rfind("HTTP/1.", 0) != 0 || start_line.size() < 12) {
      *error = "malformed status line '" + start_line + "'";
      return false;
    }
    out->keep_alive = start_line.rfind("HTTP/1.1", 0) == 0;
    out->status = std::atoi(start_line.substr(9, 3).c_str());
    if (out->status < 100 || out->status > 599) {
      *error = "malformed status code in '" + start_line + "'";
      return false;
    }
  }

  bool saw_content_length = false;
  size_t pos = line_end + 2;
  while (pos < head.size()) {
    const size_t next = head.find("\r\n", pos);
    const std::string line = head.substr(
        pos, next == std::string::npos ? std::string::npos : next - pos);
    pos = next == std::string::npos ? head.size() : next + 2;
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      *error = "malformed header line '" + line + "'";
      return false;
    }
    const std::string name = line.substr(0, colon);
    const std::string value = TrimSpace(line.substr(colon + 1));
    if (AsciiEqualsIgnoreCase(name, "content-length")) {
      if (saw_content_length) {
        *error = "duplicate Content-Length header";
        return false;
      }
      saw_content_length = true;
      // Digits only: strtoull alone would also take a sign.
      errno = 0;
      const unsigned long long parsed =
          std::strtoull(value.c_str(), nullptr, 10);
      if (value.empty() ||
          value.find_first_not_of("0123456789") != std::string::npos ||
          errno != 0) {
        *error = "malformed Content-Length '" + value + "'";
        return false;
      }
      if (parsed > kMaxPayloadBytes) {
        *error = StrFormat(
            "payload: Content-Length %llu exceeds the %zu-byte wire limit",
            parsed, kMaxPayloadBytes);
        return false;
      }
      out->content_length = static_cast<size_t>(parsed);
    } else if (AsciiEqualsIgnoreCase(name, "connection")) {
      if (AsciiEqualsIgnoreCase(value, "close")) out->keep_alive = false;
      if (AsciiEqualsIgnoreCase(value, "keep-alive")) out->keep_alive = true;
    } else if (AsciiEqualsIgnoreCase(name, "transfer-encoding")) {
      *error = "Transfer-Encoding is not supported (use Content-Length)";
      return false;
    }
  }
  return true;
}

}  // namespace

const char* HttpReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 409:
      return "Conflict";
    case 429:
      return "Too Many Requests";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 504:
      return "Gateway Timeout";
    default:
      return "Unknown";
  }
}

HttpConnection::~HttpConnection() {
  if (fd_ >= 0) ::close(fd_);
}

HttpConnection::ReadOutcome HttpConnection::ReadRequest(HttpRequest* request,
                                                        int wake_fd,
                                                        std::string* error) {
  while (true) {
    const size_t header_end = buffer_.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      ParsedHead head;
      if (!ParseHead(buffer_.substr(0, header_end + 2), /*expect_request=*/
                     true, &head, error)) {
        return ReadOutcome::kBad;
      }
      const size_t body_begin = header_end + 4;
      while (buffer_.size() - body_begin < head.content_length) {
        const int got = ReadSome(fd_, &buffer_);
        if (got <= 0) {
          *error = "connection dropped mid-body";
          return ReadOutcome::kBad;
        }
      }
      request->method = std::move(head.method);
      request->target = std::move(head.target);
      request->keep_alive = head.keep_alive;
      request->body = buffer_.substr(body_begin, head.content_length);
      buffer_.erase(0, body_begin + head.content_length);
      return ReadOutcome::kRequest;
    }
    if (buffer_.size() > kMaxHeaderBytes) {
      *error = StrFormat("header block exceeds %zu bytes", kMaxHeaderBytes);
      return ReadOutcome::kBad;
    }

    // Wait for bytes. At a request boundary the wake fd is watched too, so
    // shutdown ends an idle wait at once; a started request is read to its
    // end, and bytes that are already waiting are read before a stop.
    struct pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_fd, POLLIN, 0}};
    const nfds_t count = buffer_.empty() && wake_fd >= 0 ? 2 : 1;
    if (::poll(fds, count, -1) < 0) {
      if (errno == EINTR) continue;
      *error = "poll failed";
      return ReadOutcome::kBad;
    }
    if (fds[0].revents == 0) return ReadOutcome::kStopped;
    const int got = ReadSome(fd_, &buffer_);
    if (got == 0) {
      if (buffer_.empty()) return ReadOutcome::kClosed;
      *error = "connection closed mid-request";
      return ReadOutcome::kBad;
    }
    if (got < 0) {
      *error = "read failed";
      return ReadOutcome::kBad;
    }
  }
}

bool HttpConnection::WriteResponse(const HttpResponse& response,
                                   bool keep_alive) {
  std::string head = StrFormat(
      "HTTP/1.1 %d %s\r\nContent-Type: application/json\r\n"
      "Content-Length: %zu\r\nConnection: %s\r\n\r\n",
      response.status, HttpReasonPhrase(response.status), response.body.size(),
      keep_alive ? "keep-alive" : "close");
  head += response.body;
  return WriteAll(fd_, head);
}

Result<int> HttpConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal("socket() failed");
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = Status::Internal(StrFormat(
        "connect to 127.0.0.1:%d failed: %s", port, std::strerror(errno)));
    ::close(fd);
    return status;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Result<HttpResponse> HttpExchange(int fd, const std::string& method,
                                  const std::string& target,
                                  const std::string& body, bool keep_alive,
                                  HttpExchangeInfo* info) {
  *info = HttpExchangeInfo();
  std::string request = StrFormat(
      "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Type: application/json\r\nContent-Length: %zu\r\n"
      "Connection: %s\r\n\r\n",
      method.c_str(), target.c_str(), body.size(),
      keep_alive ? "keep-alive" : "close");
  request += body;
  if (!WriteAll(fd, request)) {
    return Status::Internal("request write failed (peer closed?)");
  }

  std::string buffer;
  size_t header_end;
  while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    if (buffer.size() > kMaxHeaderBytes) {
      return Status::Internal("response header block too large");
    }
    const int got = ReadSome(fd, &buffer);
    info->response_started = !buffer.empty();
    if (got <= 0) {
      return Status::Internal("connection closed before response headers");
    }
  }
  ParsedHead head;
  std::string error;
  if (!ParseHead(buffer.substr(0, header_end + 2), /*expect_request=*/false,
                 &head, &error)) {
    return Status::Internal("malformed response: " + error);
  }
  const size_t body_begin = header_end + 4;
  while (buffer.size() - body_begin < head.content_length) {
    const int got = ReadSome(fd, &buffer);
    if (got <= 0) {
      return Status::Internal("connection closed mid-response");
    }
  }
  info->reusable =
      head.keep_alive && buffer.size() == body_begin + head.content_length;
  HttpResponse response;
  response.status = head.status;
  response.body = buffer.substr(body_begin, head.content_length);
  return response;
}

Result<HttpResponse> HttpRoundTrip(int port, const std::string& method,
                                   const std::string& target,
                                   const std::string& body) {
  QDM_ASSIGN_OR_RETURN(const int fd, HttpConnect(port));
  HttpExchangeInfo info;
  Result<HttpResponse> response =
      HttpExchange(fd, method, target, body, /*keep_alive=*/false, &info);
  ::close(fd);
  return response;
}

}  // namespace net
}  // namespace qdm
