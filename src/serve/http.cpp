#include "serve/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/log.hpp"

namespace swt {

const char* http_status_reason(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

bool parse_http_request(const std::string& head, HttpRequest* out) {
  *out = HttpRequest{};
  const std::size_t line_end = head.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);

  // "METHOD SP target SP HTTP/1.x" — exactly three space-separated tokens.
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos || sp1 == 0) return false;
  out->method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = request_line.substr(sp2 + 1);
  if (version.rfind("HTTP/1.", 0) != 0) return false;
  if (target.empty() || target[0] != '/') return false;
  for (const char c : out->method)
    if (c < 'A' || c > 'Z') return false;

  const std::size_t qmark = target.find('?');
  out->path = target.substr(0, qmark);
  if (qmark != std::string::npos) {
    std::string qs = target.substr(qmark + 1);
    std::size_t start = 0;
    while (start <= qs.size()) {
      std::size_t amp = qs.find('&', start);
      if (amp == std::string::npos) amp = qs.size();
      const std::string pair = qs.substr(start, amp - start);
      if (!pair.empty()) {
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos)
          out->query[pair] = "";
        else
          out->query[pair.substr(0, eq)] = pair.substr(eq + 1);
      }
      start = amp + 1;
    }
  }

  // Header lines: "Name: value", names lower-cased; a malformed line
  // (no colon) fails the whole request.
  std::size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string line = head.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) break;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) return false;
    std::string name = line.substr(0, colon);
    for (char& c : name)
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    std::size_t vstart = colon + 1;
    while (vstart < line.size() && (line[vstart] == ' ' || line[vstart] == '\t'))
      ++vstart;
    out->headers[name] = line.substr(vstart);
  }
  return true;
}

namespace {

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a client that dropped the connection mid-response must
    // surface as EPIPE here, not as a process-killing SIGPIPE.
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;  // peer gone; nothing sensible left to do
    sent += static_cast<std::size_t>(n);
  }
}

void send_response(int fd, const HttpResponse& resp, bool include_body) {
  std::string head = "HTTP/1.1 " + std::to_string(resp.status) + ' ' +
                     http_status_reason(resp.status) +
                     "\r\nContent-Type: " + resp.content_type +
                     "\r\nContent-Length: " + std::to_string(resp.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (include_body) head += resp.body;
  send_all(fd, head);
}

}  // namespace

HttpServer::HttpServer(Config cfg, Handler handler)
    : cfg_(std::move(cfg)), handler_(std::move(handler)) {
  if (cfg_.num_threads < 1)
    throw std::invalid_argument("HttpServer: need >= 1 worker thread");
  if (!handler_) throw std::invalid_argument("HttpServer: handler required");
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  if (running_.load()) return;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error("HttpServer: socket() failed: " +
                             std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
  if (::inet_pton(AF_INET, cfg_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpServer: bad bind address " + cfg_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, cfg_.backlog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpServer: cannot listen on " + cfg_.bind_address + ':' +
                             std::to_string(cfg_.port) + ": " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_.store(ntohs(bound.sin_port), std::memory_order_relaxed);

  {
    std::scoped_lock lock(queue_mutex_);
    stopping_ = false;
  }
  running_.store(true, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { accept_loop(); });
  workers_.reserve(static_cast<std::size_t>(cfg_.num_threads));
  for (int i = 0; i < cfg_.num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  log_info("telemetry server listening on ", cfg_.bind_address, ":", port());
}

void HttpServer::stop() {
  if (!running_.exchange(false)) return;
  // Unblock accept(): shutdown() makes the blocked call return on Linux.
  // The fd is closed and reset only after the accept thread has joined,
  // since accept_loop() reads listen_fd_ until it exits.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::scoped_lock lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();
  // Connections accepted but never picked up get closed, not served.
  std::scoped_lock lock(queue_mutex_);
  for (const int fd : pending_) ::close(fd);
  pending_.clear();
}

void HttpServer::accept_loop() {
  while (running_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load(std::memory_order_relaxed)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener is gone; stop() will join us
    }
    timeval tv{};
    tv.tv_sec = static_cast<long>(cfg_.read_timeout_s);
    tv.tv_usec = static_cast<long>((cfg_.read_timeout_s - double(tv.tv_sec)) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    {
      std::scoped_lock lock(queue_mutex_);
      pending_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

void HttpServer::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stopping and drained
      fd = pending_.front();
      pending_.pop_front();
    }
    handle_connection(fd);
    ::close(fd);
  }
}

void HttpServer::handle_connection(int fd) {
  // Read until the head terminator or one of the rejection conditions.
  std::string head;
  char buf[2048];
  bool oversized = false;
  while (head.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {  // peer closed early or read timeout
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    head.append(buf, static_cast<std::size_t>(n));
    if (head.size() > cfg_.max_request_bytes) {
      oversized = true;
      break;
    }
  }
  if (oversized) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    send_response(fd, HttpResponse{431, "text/plain; charset=utf-8",
                                   "request head too large\n"},
                  /*include_body=*/true);
    return;
  }
  HttpRequest req;
  if (!parse_http_request(head.substr(0, head.find("\r\n\r\n") + 4), &req)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    send_response(fd, HttpResponse{400, "text/plain; charset=utf-8",
                                   "malformed request\n"},
                  /*include_body=*/true);
    return;
  }
  if (req.method != "GET" && req.method != "HEAD") {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    send_response(fd, HttpResponse{405, "text/plain; charset=utf-8",
                                   "only GET is supported\n"},
                  /*include_body=*/true);
    return;
  }
  HttpResponse resp;
  try {
    resp = handler_(req);
  } catch (const std::exception& e) {
    resp = HttpResponse{500, "text/plain; charset=utf-8",
                        std::string("handler error: ") + e.what() + "\n"};
  }
  served_.fetch_add(1, std::memory_order_relaxed);
  send_response(fd, resp, /*include_body=*/req.method != "HEAD");
}

}  // namespace swt
