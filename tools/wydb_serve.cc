// wydb_serve: long-running analysis server (docs/SERVE.md). Speaks the
// line protocol on stdin/stdout by default, or accepts concurrent TCP
// connections with --port. Run `wydb_serve --help` for the flags; the
// README serving section is kept in sync by the docs CI job
// (tools/check_docs.py).
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <set>
#include <sstream>
#include <streambuf>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/thread_pool.h"
#include "serve/server.h"

using namespace wydb;

namespace {

constexpr char kHelp[] =
    R"(wydb_serve: analysis-as-a-service for locked distributed transaction
systems (Wolfson-Yannakakis, PODS '85). Serves `certify`, `simulate`,
`stats`, and `quit` requests over a line protocol (docs/SERVE.md), with
a canonical-form verdict cache, single-transaction incremental
recertification, and an optional crash-safe verdict journal.

Usage:
  wydb_serve [options]             serve stdin/stdout until EOF or quit
  wydb_serve --port <p> [options]  accept TCP connections concurrently
  wydb_serve --help

Options:
  --port <p>         listen on TCP port <p> instead of stdin/stdout;
                     each connection gets its own session thread and the
                     verdict cache is shared across all of them
  --sessions <n>     concurrent TCP session cap (default 4); up to <n>
                     more connections wait in an accept queue, and
                     connections beyond that are shed immediately with
                     an `error: server at capacity` line
  --max-states <n>   default per-request state budget for certifications
                     (default 5000000, 0 = unbounded; a request may
                     override with max_states=N)
  --timeout-ms <t>   default per-request wall-clock budget in ms
                     (default 0 = none; a request may override with
                     timeout_ms=N); overruns answer ResourceExhausted
                     without killing the stream. A request whose
                     effective budget is timeout_ms=0 with an unbounded
                     or above-server max_states is rejected as a runaway
  --cache-entries <n>  verdict-cache capacity, in systems (default 128,
                     LRU eviction)
  --journal <file>   append every verdict to a crash-safe journal and
                     replay it into the cache at startup; a torn or
                     corrupt tail is truncated to the last valid record,
                     never a startup failure (docs/SERVE.md)
  --journal-fsync <n>  fsync the journal every <n> appends (default 8;
                     0 = only on compaction and shutdown; 1 = every
                     verdict). kill -9 loses at most the unsynced tail
  --journal-compact <n>  rewrite the journal from the live cache once it
                     holds <n> more records than the cache has entries
                     (default 256; 0 = compact eagerly)
  --engine <e>       search engine: incremental (default; one thread),
                     parallel, or reduced; the delta-gated incremental
                     recertification needs full expansion, so a reduced
                     server runs it on the incremental engine
  --search-threads <k>  worker threads for the parallel and reduced
                     engines (0 = hardware concurrency)
  --preload <file>   certify <file> at startup and seed the cache with
                     the result (repeatable)

SIGTERM/SIGINT drain gracefully: the listener stops, in-flight sessions
are unblocked, and the journal is flushed before exit. SIGPIPE is
ignored; a disconnected client only ends its own session.
)";

void PrintUsage(std::FILE* out) {
  std::fputs(
      "usage:\n"
      "  wydb_serve [options]\n"
      "  wydb_serve --port <p> [options]\n"
      "  wydb_serve --help\n",
      out);
}

int Fail(const char* msg) {
  std::fprintf(stderr, "wydb_serve: %s\n", msg);
  PrintUsage(stderr);
  return 2;
}

[[noreturn]] void FailMissingValue(const char* opt) {
  std::fprintf(stderr, "wydb_serve: %s needs a value\n", opt);
  PrintUsage(stderr);
  std::exit(2);
}

/// Strict non-negative integer flag value; exits 2 on garbage.
int ParseCountFlag(const char* opt, const char* value) {
  int parsed = 0;
  bool digits = false;
  for (const char* p = value; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9' || parsed > 100'000'000) {
      digits = false;
      break;
    }
    parsed = parsed * 10 + (*p - '0');
    digits = true;
  }
  if (!digits) {
    std::fprintf(stderr,
                 "wydb_serve: %s wants a non-negative integer, got '%s'\n",
                 opt, value);
    PrintUsage(stderr);
    std::exit(2);
  }
  return parsed;
}

/// Set by the SIGTERM/SIGINT handler (installed without SA_RESTART so
/// the accept/read the main thread is blocked in returns EINTR).
volatile std::sig_atomic_t g_stop = 0;

void StopHandler(int) { g_stop = 1; }

/// Connections currently owned by a session thread. The drain path
/// shuts them down to unblock reads; entries are removed (under the
/// mutex) before close so a recycled fd can never be shut down stale.
std::mutex g_conns_mu;
std::set<int> g_conns;

void RegisterConn(int fd) {
  std::lock_guard<std::mutex> lock(g_conns_mu);
  g_conns.insert(fd);
}

void UnregisterAndClose(int fd) {
  {
    std::lock_guard<std::mutex> lock(g_conns_mu);
    g_conns.erase(fd);
  }
  ::close(fd);
}

/// Wakes every in-flight session's blocked read with EOF. Signals are
/// delivered to one thread only, so worker reads never see EINTR; this
/// is how the drain reaches them.
void ShutdownActiveConns() {
  std::lock_guard<std::mutex> lock(g_conns_mu);
  for (int fd : g_conns) ::shutdown(fd, SHUT_RDWR);
}

/// Unbuffered-write std::streambuf over a POSIX fd, enough to hand a
/// socket to Server::ServeStream as iostreams. It needs no write buffer:
/// ServeStream hands it each reply whole, terminator included, in one
/// write, so every reply leaves in one write(2). Retries EINTR (signal
/// delivery must not drop request bytes); EPIPE/ECONNRESET surface as
/// eof, which ends this session's ServeStream loop and nothing else.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) { setg(buf_, buf_, buf_); }

 protected:
  int underflow() override {
    ssize_t n;
    do {
      n = ::read(fd_, buf_, sizeof(buf_));
    } while (n < 0 && errno == EINTR && !g_stop);
    if (n <= 0) return traits_type::eof();
    setg(buf_, buf_, buf_ + n);
    return traits_type::to_int_type(buf_[0]);
  }
  int overflow(int c) override {
    if (c == traits_type::eof()) return traits_type::eof();
    char ch = static_cast<char>(c);
    return WriteAll(&ch, 1) ? c : traits_type::eof();
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    return WriteAll(s, static_cast<size_t>(n))
               ? n
               : 0;  // Short write = dead peer; eof the stream.
  }

 private:
  bool WriteAll(const char* s, size_t n) {
    size_t done = 0;
    while (done < n) {
      ssize_t w = ::write(fd_, s + done, n - done);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      done += static_cast<size_t>(w);
    }
    return true;
  }

  int fd_;
  char buf_[4096];
};

int ServeSocket(Server& server, int port, int sessions) {
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("wydb_serve: socket");
    return 1;
  }
  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd, sessions + 4) < 0) {
    std::perror("wydb_serve: bind/listen");
    ::close(listen_fd);
    return 1;
  }
  std::fprintf(stderr,
               "wydb_serve: listening on 127.0.0.1:%d (%d sessions)\n", port,
               sessions);
  // One session per connection; up to `sessions` more wait in the pool
  // queue, and TrySubmit failing past that is the shed signal. Threads
  // inherit the creating thread's signal mask, so blocking SIGTERM/SIGINT
  // while the pool spawns its workers keeps them (and the search pools
  // they start) from taking a drain signal: it must reach this thread,
  // blocked in accept, or the drain never starts.
  sigset_t stop_signals;
  sigset_t previous;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop_signals, &previous);
  TaskPool pool(sessions, static_cast<size_t>(sessions));
  pthread_sigmask(SIG_SETMASK, &previous, nullptr);
  for (;;) {
    int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) {
        if (g_stop) break;
        continue;
      }
      std::perror("wydb_serve: accept");
      break;
    }
    if (g_stop) {
      ::close(conn);
      break;
    }
    // A reply is one write and the client's next request waits for it,
    // so there is nothing for Nagle's algorithm to coalesce: sending at
    // once keeps a reply from waiting out the client's delayed ACK.
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    bool queued = pool.TrySubmit([&server, conn] {
      RegisterConn(conn);
      FdStreamBuf buf(conn);
      std::istream in(&buf);
      std::ostream out(&buf);
      server.ServeStream(in, out);
      UnregisterAndClose(conn);
    });
    if (!queued) {
      // At capacity: shed this connection instead of stalling the ones
      // already being served. Best-effort write; the peer may be gone.
      const char kShed[] = "error: server at capacity, try again later\n";
      ssize_t ignored = ::write(conn, kShed, sizeof(kShed) - 1);
      (void)ignored;
      ::close(conn);
    }
  }
  ::close(listen_fd);
  // Graceful drain: unblock in-flight reads, wait the sessions out,
  // then make the journal durable before exiting.
  ShutdownActiveConns();
  pool.Drain();
  Status flushed = server.FlushJournal();
  if (!flushed.ok()) {
    std::fprintf(stderr, "wydb_serve: journal flush failed: %s\n",
                 flushed.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 &&
      (!std::strcmp(argv[1], "--help") || !std::strcmp(argv[1], "help"))) {
    std::fputs(kHelp, stdout);
    return 0;
  }
  int port = 0;
  int sessions = 4;
  ServerOptions options;
  std::vector<const char*> preloads;
  for (int a = 1; a < argc; ++a) {
    auto next = [&](const char* opt) -> const char* {
      if (a + 1 >= argc) FailMissingValue(opt);
      return argv[++a];
    };
    if (!std::strcmp(argv[a], "--port")) {
      port = ParseCountFlag("--port", next("--port"));
      if (port < 1 || port > 65535) return Fail("--port wants 1-65535");
    } else if (!std::strcmp(argv[a], "--sessions")) {
      sessions = ParseCountFlag("--sessions", next("--sessions"));
      if (sessions < 1) return Fail("--sessions must be at least 1");
    } else if (!std::strcmp(argv[a], "--max-states")) {
      options.max_states = static_cast<uint64_t>(
          ParseCountFlag("--max-states", next("--max-states")));
    } else if (!std::strcmp(argv[a], "--timeout-ms")) {
      options.timeout_ms = ParseCountFlag("--timeout-ms", next("--timeout-ms"));
    } else if (!std::strcmp(argv[a], "--cache-entries")) {
      options.cache_entries =
          ParseCountFlag("--cache-entries", next("--cache-entries"));
      if (options.cache_entries < 1) {
        return Fail("--cache-entries must be at least 1");
      }
    } else if (!std::strcmp(argv[a], "--journal")) {
      options.journal_path = next("--journal");
    } else if (!std::strcmp(argv[a], "--journal-fsync")) {
      options.journal_fsync_every =
          ParseCountFlag("--journal-fsync", next("--journal-fsync"));
    } else if (!std::strcmp(argv[a], "--journal-compact")) {
      options.journal_compact_slack =
          ParseCountFlag("--journal-compact", next("--journal-compact"));
    } else if (!std::strcmp(argv[a], "--engine")) {
      const char* name = next("--engine");
      if (!std::strcmp(name, "incremental")) {
        options.engine = SearchEngine::kIncremental;
      } else if (!std::strcmp(name, "parallel")) {
        options.engine = SearchEngine::kParallelSharded;
      } else if (!std::strcmp(name, "reduced")) {
        options.engine = SearchEngine::kReduced;
      } else {
        return Fail("--engine wants incremental, parallel, or reduced");
      }
    } else if (!std::strcmp(argv[a], "--search-threads")) {
      options.search_threads =
          ParseCountFlag("--search-threads", next("--search-threads"));
    } else if (!std::strcmp(argv[a], "--preload")) {
      preloads.push_back(next("--preload"));
    } else {
      return Fail("unknown option");
    }
  }
  if (options.journal_path.empty() &&
      (options.journal_fsync_every != 8 ||
       options.journal_compact_slack != 256)) {
    return Fail("--journal-fsync/--journal-compact need --journal");
  }

  // A dead client must only end its own session, not the process: EPIPE
  // from write() is handled per-stream, so the signal is unwanted.
  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction sa{};
  sa.sa_handler = StopHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // No SA_RESTART: accept/read must return EINTR.
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  auto server = Server::Create(options);
  if (!server.ok()) {
    std::fprintf(stderr, "wydb_serve: %s\n",
                 server.status().ToString().c_str());
    PrintUsage(stderr);
    return 2;
  }

  for (const char* path : preloads) {
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "wydb_serve: cannot open --preload file '%s'\n",
                   path);
      return 2;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    Status st = server->Preload(buffer.str());
    if (!st.ok()) {
      std::fprintf(stderr, "wydb_serve: --preload '%s' failed: %s\n", path,
                   st.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "wydb_serve: preloaded %s\n", path);
  }

  if (port > 0) return ServeSocket(*server, port, sessions);
  server->ServeStream(std::cin, std::cout);
  Status flushed = server->FlushJournal();
  if (!flushed.ok()) {
    std::fprintf(stderr, "wydb_serve: journal flush failed: %s\n",
                 flushed.ToString().c_str());
    return 1;
  }
  return 0;
}
