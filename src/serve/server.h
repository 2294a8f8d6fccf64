// Long-running analysis server (docs/SERVE.md): certify / simulate /
// stats / quit over a line protocol, with a canonical-key verdict cache,
// single-transaction incremental recertification, per-request resource
// budgets, and malformed-request isolation (one bad request never kills
// the stream).
//
// One Server is shared by every concurrent session: ServeStream may be
// called from many threads at once, each with its own stream pair. The
// verdict cache carries its own shared-mutex, counters are atomics, and
// the journal and latency ring sit behind mutexes, so sessions never
// observe each other beyond the (intended) shared cache and stats.
#ifndef WYDB_SERVE_SERVER_H_
#define WYDB_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/safety_checker.h"
#include "common/status.h"
#include "serve/journal.h"
#include "serve/verdict_cache.h"

namespace wydb {

struct ServerOptions {
  /// Per-request state budget for certifications (0 = unbounded).
  uint64_t max_states = 5'000'000;
  /// Default per-request wall-clock timeout in ms (0 = none). A request
  /// may lower or raise its own with `timeout_ms=N` — but a request
  /// whose effective timeout is 0 may not also disable or exceed the
  /// state budget (see HandleCertify's runaway rejection).
  int timeout_ms = 0;
  /// Verdict-cache capacity, in systems.
  int cache_entries = 128;
  /// Engine for certifications. The delta-gated recertification needs
  /// full expansion, so under kReduced it runs kIncremental instead.
  SearchEngine engine = SearchEngine::kIncremental;
  int search_threads = 0;
  /// Verdict-journal path ("" = no persistence). Freshly computed
  /// verdicts are appended; at startup the journal's salvageable prefix
  /// reseeds the cache (DESIGN.md §13).
  std::string journal_path;
  /// Group-fsync policy: fsync the journal after every N appends
  /// (1 = every append, 0 = leave durability to the OS).
  int journal_fsync_every = 8;
  /// Compact the journal into a snapshot of the live cache once it
  /// holds this many records more than the cache does (0 = compact as
  /// soon as the journal carries any dead record).
  int journal_compact_slack = 256;
};

/// Counters are atomics so concurrent sessions may bump them; read them
/// whole only when no session is active (tests join first).
struct ServerStats {
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> certify_requests{0};
  std::atomic<uint64_t> simulate_requests{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  /// Certifications answered without a full search: monotone shortcuts,
  /// witness reuses, and delta-gated searches.
  std::atomic<uint64_t> incremental_certifications{0};
  std::atomic<uint64_t> full_certifications{0};
  std::atomic<uint64_t> monotone_shortcuts{0};
  std::atomic<uint64_t> witness_reuses{0};
  std::atomic<uint64_t> delta_searches{0};
  /// Cycle tests elided by the delta gate, summed over delta searches.
  std::atomic<uint64_t> delta_skipped_tests{0};
  /// Deadline checks performed by the search engines, summed over every
  /// certification this server ran (proves budgets are being enforced).
  std::atomic<uint64_t> deadline_polls{0};
  /// Certify requests rejected for disabling every bound (timeout_ms=0
  /// with an unbounded or over-budget max_states).
  std::atomic<uint64_t> runaways_rejected{0};
  std::atomic<uint64_t> journal_appends{0};
  std::atomic<uint64_t> journal_recovered{0};  ///< Records replayed at startup.
  std::atomic<uint64_t> journal_salvaged_bytes{0};  ///< Torn tail dropped.
  std::atomic<uint64_t> journal_compactions{0};
  std::atomic<uint64_t> journal_errors{0};
};

class Server {
 public:
  /// Validates options (e.g. rejects kCompact) and, when a journal path
  /// is configured, recovers its valid prefix into the cache.
  static Result<Server> Create(const ServerOptions& options);

  /// Serves requests from `in` until EOF or `quit`. Every response —
  /// including errors — is terminated by a lone '.' line and reaches
  /// `out` whole, in one write and one flush; no request terminates the
  /// loop except `quit`/EOF. Safe to call concurrently from multiple
  /// session threads (one stream pair per session).
  void ServeStream(std::istream& in, std::ostream& out);

  /// Certifies `text` (a .wydb workload) and caches the result, as a
  /// `certify` request would; used by --preload and tests.
  Status Preload(const std::string& text);

  /// Fsyncs any unsynced journal suffix (graceful-drain path). OK when
  /// no journal is configured.
  Status FlushJournal();

  /// The greppable one-line stats rendering served for `stats`.
  std::string StatsLine() const;

  const ServerStats& stats() const { return shared_->stats; }

 private:
  /// Journal, latency ring, and stats live on the heap so Server stays
  /// movable (Result<Server>) while sessions share one instance.
  struct Shared {
    ServerStats stats;
    std::mutex latency_mu;
    std::vector<uint64_t> latencies;  ///< Ring of recent request latencies.
    size_t latency_next = 0;
    std::mutex journal_mu;
    std::unique_ptr<Journal> journal;
  };

  explicit Server(const ServerOptions& options);

  /// Appends the response lines for one certify request (never fails:
  /// failures become `error:` lines and count in stats.errors).
  void HandleCertify(const std::vector<std::string>& params,
                     const std::string& payload,
                     std::vector<std::string>* response);
  void HandleSimulate(const std::vector<std::string>& params,
                      const std::string& payload,
                      std::vector<std::string>* response);
  void RecordLatency(uint64_t micros);

  /// Journals a freshly computed verdict and compacts when the journal
  /// has outgrown the cache by journal_compact_slack records. Journal
  /// failures are counted, not fatal: serving continues memory-only.
  void JournalVerdict(const CertificateBundle& bundle);

  /// Replays one recovered journal payload into the cache.
  Status LoadJournalRecord(const std::string& payload);

  ServerOptions options_;
  VerdictCache cache_;
  std::unique_ptr<Shared> shared_;
};

}  // namespace wydb

#endif  // WYDB_SERVE_SERVER_H_
