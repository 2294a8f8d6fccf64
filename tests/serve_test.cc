// End-to-end tests of the analysis server (docs/SERVE.md): the line
// protocol, the canonical-key verdict cache (permuted resubmissions must
// hit), single-transaction incremental recertification with verdicts
// identical to a full exact run, malformed-request isolation, and the
// certificate round trip the cache is built on.
#include <gtest/gtest.h>

#include <chrono>
#include <regex>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "analysis/certificate.h"
#include "analysis/safety_checker.h"
#include "core/canonical.h"
#include "gen/system_gen.h"
#include "io/text_format.h"
#include "serve/server.h"
#include "serve/verdict_cache.h"

namespace wydb {
namespace {

/// Runs one stream worth of requests against `server` and returns the
/// response lines (all of them, '.' separators included).
std::vector<std::string> Drive(Server& server, const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  server.ServeStream(in, out);
  std::vector<std::string> lines;
  std::string line;
  std::istringstream split(out.str());
  while (std::getline(split, line)) lines.push_back(line);
  return lines;
}

bool AnyLineContains(const std::vector<std::string>& lines,
                     const std::string& needle) {
  for (const std::string& l : lines) {
    if (l.find(needle) != std::string::npos) return true;
  }
  return false;
}

std::string FirstLineWith(const std::vector<std::string>& lines,
                          const std::string& needle) {
  for (const std::string& l : lines) {
    if (l.find(needle) != std::string::npos) return l;
  }
  return "";
}

int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Two transactions locking {x, y} in opposite orders: deadlocks, so
/// certification refutes with a witness.
constexpr char kDeadlockPair[] =
    "site s1: x\n"
    "site s2: y\n"
    "txn T1: Lx Ly Ux Uy\n"
    "txn T2: Ly Lx Uy Ux\n";

/// kDeadlockPair with sites, entities, and transactions renamed and the
/// transactions listed in the other order — isomorphic, so it must be an
/// exact cache hit.
constexpr char kDeadlockPairPermuted[] =
    "site a2: beta\n"
    "site a1: alpha\n"
    "txn B: Lbeta Lalpha Ubeta Ualpha\n"
    "txn A: Lalpha Lbeta Ualpha Ubeta\n";

/// Uniform lock order: safe and deadlock-free.
constexpr char kCertifiedPair[] =
    "site s1: x\n"
    "site s2: y\n"
    "txn T1: Lx Ly Ux Uy\n"
    "txn T2: Lx Ly Ux Uy\n";

Server MakeServer() {
  ServerOptions opts;
  auto server = Server::Create(opts);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(*server);
}

std::string CertifyRequest(const std::string& workload,
                           const std::string& params = "") {
  return "certify" + (params.empty() ? "" : " " + params) + "\n" + workload +
         "end\n";
}

TEST(ServeTest, PermutedResubmissionIsACacheHit) {
  Server server = MakeServer();
  auto first = Drive(server, CertifyRequest(kDeadlockPair));
  EXPECT_TRUE(AnyLineContains(first, "certified=no source=full")) << first[0];
  EXPECT_TRUE(AnyLineContains(first, "witness: "));
  EXPECT_TRUE(AnyLineContains(first, "cycle: "));

  auto second = Drive(server, CertifyRequest(kDeadlockPairPermuted));
  const std::string verdict = FirstLineWith(second, "verdict: ");
  EXPECT_NE(verdict.find("certified=no source=cache"), std::string::npos)
      << verdict;
  // The cached witness is remapped onto the request's own names and
  // countersigned before being served.
  const std::string witness = FirstLineWith(second, "witness: ");
  EXPECT_NE(witness.find("A."), std::string::npos) << witness;
  EXPECT_NE(witness.find("B."), std::string::npos) << witness;
  EXPECT_FALSE(AnyLineContains(second, "T1")) << "cached names leaked";

  // The hit is observable in the stats counters, per the acceptance bar.
  EXPECT_EQ(server.stats().cache_hits, 1u);
  EXPECT_EQ(server.stats().cache_misses, 1u);
  EXPECT_EQ(server.stats().full_certifications, 1u);

  // Both verdict lines carry the same canonical key.
  const std::string k1 = FirstLineWith(first, "key=");
  const std::string k2 = FirstLineWith(second, "key=");
  EXPECT_EQ(k1.substr(k1.find("key=")), k2.substr(k2.find("key=")));
}

TEST(ServeTest, RemovingATransactionIsAMonotoneShortcut) {
  Server server = MakeServer();
  const std::string three =
      "site s1: x\nsite s2: y\n"
      "txn T1: Lx Ly Ux Uy\ntxn T2: Lx Ly Ux Uy\ntxn T3: Lx Ux\n";
  Drive(server, CertifyRequest(three));
  auto out = Drive(server, CertifyRequest(kCertifiedPair));
  const std::string verdict = FirstLineWith(out, "verdict: ");
  EXPECT_NE(verdict.find("certified=yes source=incremental states=0"),
            std::string::npos)
      << verdict;
  EXPECT_EQ(server.stats().monotone_shortcuts, 1u);
  EXPECT_EQ(server.stats().incremental_certifications, 1u);
}

TEST(ServeTest, AddingATransactionRunsTheDeltaGate) {
  Server server = MakeServer();
  Drive(server, CertifyRequest(kCertifiedPair));
  const std::string payload = std::string(kCertifiedPair) + "txn T3: Lx Ux\n";
  auto out = Drive(server, CertifyRequest(payload));
  const std::string verdict = FirstLineWith(out, "verdict: ");
  EXPECT_NE(verdict.find("certified=yes source=incremental"),
            std::string::npos)
      << verdict;
  EXPECT_EQ(server.stats().delta_searches, 1u);
  EXPECT_GT(server.stats().delta_skipped_tests, 0u);
}

TEST(ServeTest, AddedTransactionReusesARefutationWitness) {
  Server server = MakeServer();
  Drive(server, CertifyRequest(kDeadlockPair));
  const std::string grown = std::string(kDeadlockPair) + "txn T3: Lx Ux\n";
  auto out = Drive(server, CertifyRequest(grown));
  const std::string verdict = FirstLineWith(out, "verdict: ");
  EXPECT_NE(verdict.find("certified=no source=incremental states=0"),
            std::string::npos)
      << verdict;
  EXPECT_TRUE(AnyLineContains(out, "witness: "));
  EXPECT_EQ(server.stats().witness_reuses, 1u);
}

TEST(ServeTest, MalformedRequestsAreIsolated) {
  Server server = MakeServer();
  const std::string bad =
      "certify\nsite s1: x\ntxn T: Lx Ux\ntxn T: Lx Ux\nend\n";
  const std::string good = CertifyRequest(kCertifiedPair);
  const std::string unknown = "frobnicate\n";
  auto out = Drive(server, bad + unknown + good + "stats\nquit\n");

  // The duplicate-name error names both definition lines and echoes the
  // offending payload line; the stream then keeps serving.
  const std::string err = FirstLineWith(out, "error: ");
  EXPECT_NE(err.find("duplicate transaction 'T'"), std::string::npos) << err;
  EXPECT_TRUE(AnyLineContains(out, "echo: txn T: Lx Ux"));
  EXPECT_TRUE(AnyLineContains(out, "error: unknown verb 'frobnicate'"));
  EXPECT_TRUE(AnyLineContains(out, "certified=yes"));
  EXPECT_TRUE(AnyLineContains(out, "bye"));
  EXPECT_EQ(server.stats().errors, 2u);
  // Every response, including errors, is '.'-terminated: 5 requests.
  int dots = 0;
  for (const std::string& l : out) {
    if (l == ".") ++dots;
  }
  EXPECT_EQ(dots, 5);
}

TEST(ServeTest, UnterminatedPayloadEndsTheStreamWithAnError) {
  Server server = MakeServer();
  auto out = Drive(server, "certify\nsite s1: x\n");
  EXPECT_TRUE(AnyLineContains(out, "error: unexpected EOF before 'end'"));
  EXPECT_EQ(out.back(), ".");
  // The server object itself survives for the next connection.
  auto again = Drive(server, CertifyRequest(kCertifiedPair));
  EXPECT_TRUE(AnyLineContains(again, "certified=yes"));
}

/// Unbuffered streambuf that keeps each write made into it, one string
/// per xsputn call (or per overflow character), so a test sees how the
/// server cut its output into writes.
class WriteRecorder : public std::streambuf {
 public:
  const std::vector<std::string>& writes() const { return writes_; }

 protected:
  int overflow(int c) override {
    if (c == traits_type::eof()) return traits_type::not_eof(c);
    writes_.emplace_back(1, static_cast<char>(c));
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    writes_.emplace_back(s, static_cast<size_t>(n));
    return n;
  }

 private:
  std::vector<std::string> writes_;
};

/// `text` with every microsecond timing (`elapsed_us=`, and the stats
/// line's `p50_us=` and `p95_us=`) masked, so two runs compare equal.
std::string MaskTimings(const std::string& text) {
  static const std::regex kTiming("_us=[0-9]+");
  return std::regex_replace(text, kTiming, "_us=#");
}

/// Serves `script` on a fresh server and returns its writes, after
/// checking that each is one whole '.'-terminated reply and that
/// together they are the bytes a fresh server writes into an
/// ostringstream for the same script.
std::vector<std::string> OneWritePerReply(const std::string& script) {
  Server server = MakeServer();
  WriteRecorder recorder;
  std::istringstream in(script);
  std::ostream out(&recorder);
  server.ServeStream(in, out);
  std::string joined;
  for (const std::string& w : recorder.writes()) {
    EXPECT_EQ(CountOccurrences("\n" + w, "\n.\n"), 1)
        << "a write that is not one whole reply: '" << w << "'";
    EXPECT_TRUE(w.size() >= 2 && w.compare(w.size() - 2, 2, ".\n") == 0)
        << "a write that does not end its reply: '" << w << "'";
    joined += w;
  }
  Server reference = MakeServer();
  std::istringstream ref_in(script);
  std::ostringstream ref_out;
  reference.ServeStream(ref_in, ref_out);
  EXPECT_EQ(MaskTimings(joined), MaskTimings(ref_out.str()));
  return recorder.writes();
}

// A reply split over several writes waits out the client's delayed ACK
// on a socket (docs/SERVE.md), so every kind of reply must be one write.
TEST(ServeTest, EachReplyIsOneWrite) {
  const std::string malformed =
      "certify\nsite s1: x\ntxn T: Lx Ux\ntxn T: Lx Ux\nend\n";
  const std::vector<std::string> writes = OneWritePerReply(
      CertifyRequest(kDeadlockPair) + CertifyRequest(kDeadlockPairPermuted) +
      malformed + "frobnicate\nstats\nquit\n");
  ASSERT_EQ(writes.size(), 6u);
  EXPECT_NE(writes[0].find("verdict: certified=no source=full"),
            std::string::npos)
      << writes[0];
  EXPECT_NE(writes[0].find("\nwitness: "), std::string::npos) << writes[0];
  EXPECT_NE(writes[0].find("\ncycle: "), std::string::npos) << writes[0];
  EXPECT_NE(writes[1].find("verdict: certified=no source=cache"),
            std::string::npos)
      << writes[1];
  EXPECT_NE(writes[1].find("\nwitness: "), std::string::npos) << writes[1];
  EXPECT_EQ(writes[2].rfind("error: ", 0), 0u) << writes[2];
  EXPECT_NE(writes[2].find("\necho: txn T: Lx Ux\n"), std::string::npos)
      << writes[2];
  EXPECT_EQ(writes[3], "error: unknown verb 'frobnicate'\n.\n");
  EXPECT_EQ(writes[4].rfind("stats: requests=5 ", 0), 0u) << writes[4];
  EXPECT_EQ(writes[5], "bye\n.\n");

  const std::vector<std::string> cut = OneWritePerReply(
      CertifyRequest(kCertifiedPair) + "certify\nsite s1: x\n");
  ASSERT_EQ(cut.size(), 2u);
  EXPECT_NE(cut[0].find("verdict: certified=yes"), std::string::npos)
      << cut[0];
  EXPECT_EQ(cut[1], "error: unexpected EOF before 'end'\n.\n");
}

TEST(ServeTest, StateBudgetSurfacesAsAnErrorNotACrash) {
  Server server = MakeServer();
  auto out = Drive(server, CertifyRequest(kDeadlockPair, "max_states=1"));
  EXPECT_TRUE(AnyLineContains(out, "error: ")) << out[0];
  EXPECT_FALSE(AnyLineContains(out, "verdict: "));
  auto again = Drive(server, CertifyRequest(kDeadlockPair));
  EXPECT_TRUE(AnyLineContains(again, "certified=no source=full"));
}

TEST(ServeTest, GenerousTimeoutDoesNotChangeTheVerdict) {
  Server server = MakeServer();
  auto out = Drive(server, CertifyRequest(kDeadlockPair, "timeout_ms=60000"));
  EXPECT_TRUE(AnyLineContains(out, "certified=no source=full"));
  auto bad = Drive(server, CertifyRequest(kDeadlockPair, "timeout_ms=abc"));
  EXPECT_TRUE(AnyLineContains(bad, "error: bad timeout_ms value"));
  // A timed request proves the budget was live: the engines consulted
  // the clock, and the counter surfaces in the stats verb.
  EXPECT_GT(server.stats().deadline_polls, 0u);
  auto stats = Drive(server, "stats\n");
  const std::string line = FirstLineWith(stats, "stats: ");
  EXPECT_NE(line.find("deadline_polls="), std::string::npos) << line;
  EXPECT_EQ(line.find("deadline_polls=0 "), std::string::npos) << line;
}

TEST(ServeTest, RunawayRequestsAreRejectedConsistently) {
  // Server defaults: timeout_ms=0, max_states=5M. A request that zeroes
  // the state bound, or raises it past the server budget, while leaving
  // the timeout at 0 has no bound left and must be refused.
  Server server = MakeServer();
  auto out = Drive(server, CertifyRequest(kCertifiedPair, "max_states=0"));
  EXPECT_TRUE(AnyLineContains(out, "error: runaway certify rejected"))
      << out[0];
  EXPECT_FALSE(AnyLineContains(out, "verdict: "));
  out = Drive(server, CertifyRequest(kCertifiedPair, "max_states=99999999"));
  EXPECT_TRUE(AnyLineContains(out, "error: runaway certify rejected"));
  EXPECT_EQ(server.stats().runaways_rejected, 2u);
  EXPECT_EQ(server.stats().errors, 2u);

  // Either bound on its own makes the same request acceptable.
  out = Drive(server,
              CertifyRequest(kCertifiedPair, "max_states=0 timeout_ms=60000"));
  EXPECT_TRUE(AnyLineContains(out, "certified=yes")) << out[0];
  out = Drive(server, CertifyRequest(kDeadlockPair, "max_states=1000"));
  EXPECT_TRUE(AnyLineContains(out, "certified=no"));
  EXPECT_EQ(server.stats().runaways_rejected, 2u);

  // An unbounded-states *server* (operator opt-out) only rejects the
  // truly bound-free request.
  ServerOptions opts;
  opts.max_states = 0;
  auto unbounded = Server::Create(opts);
  ASSERT_TRUE(unbounded.ok());
  out = Drive(*unbounded, CertifyRequest(kCertifiedPair, "max_states=0"));
  EXPECT_TRUE(AnyLineContains(out, "error: runaway certify rejected"));
  out = Drive(*unbounded, CertifyRequest(kCertifiedPair, "max_states=500000"));
  EXPECT_TRUE(AnyLineContains(out, "certified=yes"));
}

/// Concurrent sessions against one Server: every session drives the
/// same mixed request script, sharing the verdict cache. Checked under
/// TSan by the CI thread-sanitizer job.
TEST(ServeTest, ConcurrentSessionsShareTheCacheSafely) {
  Server server = MakeServer();
  constexpr int kSessions = 8;
  std::vector<std::string> outputs(kSessions);
  {
    std::vector<std::thread> sessions;
    sessions.reserve(kSessions);
    for (int i = 0; i < kSessions; ++i) {
      sessions.emplace_back([&server, &outputs, i] {
        const std::string script = CertifyRequest(kDeadlockPair) +
                                   CertifyRequest(kCertifiedPair) +
                                   CertifyRequest(kDeadlockPairPermuted) +
                                   "stats\n";
        std::istringstream in(script);
        std::ostringstream out;
        server.ServeStream(in, out);
        outputs[i] = out.str();
      });
    }
    for (std::thread& t : sessions) t.join();
  }
  for (int i = 0; i < kSessions; ++i) {
    const std::string& out = outputs[i];
    // Two refutations (the permuted one bit-identical in verdict), one
    // certification, no errors, and a stats line — in every session.
    EXPECT_EQ(CountOccurrences(out, "certified=no"), 2) << "session " << i;
    EXPECT_EQ(CountOccurrences(out, "certified=yes"), 1) << "session " << i;
    EXPECT_EQ(CountOccurrences(out, "error: "), 0) << out;
    EXPECT_NE(out.find("stats: "), std::string::npos);
  }
  const ServerStats& stats = server.stats();
  EXPECT_EQ(stats.requests, 4u * kSessions);
  EXPECT_EQ(stats.certify_requests, 3u * kSessions);
  EXPECT_EQ(stats.errors, 0u);
  // Every certify either hit or missed; racing sessions may each miss
  // the same key before the first insert lands, but never more often
  // than once per request.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 3u * kSessions);
  EXPECT_GE(stats.cache_misses, 2u);
  EXPECT_EQ(stats.full_certifications, stats.cache_misses);
}

/// The server-side time a verdict line reports, in microseconds.
uint64_t ElapsedUs(const std::string& verdict_line) {
  std::smatch m;
  static const std::regex kElapsed("elapsed_us=([0-9]+)");
  return std::regex_search(verdict_line, m, kElapsed) ? std::stoull(m[1])
                                                      : 0;
}

/// Sessions search side by side: a short certify in one session is
/// answered while a long search runs in another, in about the time it
/// takes alone, not after the long search.
TEST(ServeTest, LongSearchDoesNotHoldUpOtherSessions) {
  Server server = MakeServer();
  auto grid = GenerateDisjointGridSystem(7, 2);  // 5^7 = 78,125 states.
  ASSERT_TRUE(grid.ok());
  const std::string long_request =
      CertifyRequest(SerializeSystem(*grid->system));
  std::vector<std::string> long_out;
  std::thread long_session([&] { long_out = Drive(server, long_request); });
  // The long request has missed the cache: its search is starting.
  while (server.stats().cache_misses.load() == 0) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto short_out =
      Drive(server, CertifyRequest(kCertifiedPair, "timeout_ms=5000"));
  long_session.join();
  const std::string short_verdict = FirstLineWith(short_out, "verdict: ");
  const std::string long_verdict = FirstLineWith(long_out, "verdict: ");
  EXPECT_NE(short_verdict.find("certified=yes source=full"),
            std::string::npos)
      << short_out[0];
  EXPECT_NE(long_verdict.find("certified=yes source=full states=78125"),
            std::string::npos)
      << long_out[0];
  // Waiting behind the long search would cost most of its time.
  EXPECT_LT(4 * ElapsedUs(short_verdict), ElapsedUs(long_verdict))
      << short_verdict << "\n" << long_verdict;
}

TEST(ServeTest, PreloadPrimesTheCache) {
  Server server = MakeServer();
  ASSERT_TRUE(server.Preload(kDeadlockPair).ok());
  auto out = Drive(server, CertifyRequest(kDeadlockPairPermuted));
  EXPECT_TRUE(AnyLineContains(out, "certified=no source=cache"));
  EXPECT_EQ(server.stats().cache_hits, 1u);
}

TEST(ServeTest, StatsLineReflectsTheCounters) {
  Server server = MakeServer();
  Drive(server, CertifyRequest(kDeadlockPair));
  Drive(server, CertifyRequest(kDeadlockPairPermuted));
  auto out = Drive(server, "stats\n");
  const std::string stats = FirstLineWith(out, "stats: ");
  EXPECT_NE(stats.find("certify=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("cache_hits=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("cache_misses=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("full=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("cache_size=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("p50_us="), std::string::npos) << stats;
}

/// The acceptance bar: on fuzzed systems, ±1-transaction requests served
/// through the cache's incremental paths must produce verdicts identical
/// to a full exact run of the checker on the same request.
TEST(ServeTest, IncrementalVerdictsMatchFullExactOnFuzzedDeltas) {
  int delta_requests = 0;
  uint64_t incremental_served = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    RandomSystemOptions opts;
    opts.num_sites = 2;
    opts.entities_per_site = 3;
    opts.num_transactions = 4;
    opts.entities_per_txn = 2;
    opts.shared_fraction = seed % 3 == 0 ? 0.4 : 0.0;
    opts.seed = seed;
    auto full = GenerateRandomSystem(opts);
    ASSERT_TRUE(full.ok());
    const TransactionSystem& fsys = *full->system;

    std::vector<Transaction> sub;
    for (int t = 0; t + 1 < fsys.num_transactions(); ++t) {
      sub.push_back(fsys.txn(t));
    }
    auto minus = TransactionSystem::Create(full->db.get(), std::move(sub));
    ASSERT_TRUE(minus.ok()) << minus.status().ToString();

    const std::string full_text = SerializeSystem(fsys);
    const std::string minus_text = SerializeSystem(*minus);

    auto reference = [](const std::string& text) {
      auto parsed = ParseWorkload(text);
      EXPECT_TRUE(parsed.ok());
      SafetyCheckOptions sopts;
      auto report = CheckSafeAndDeadlockFree(*parsed->owned.system, sopts);
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      return report->holds;
    };

    // Addition: certify the base, then the base plus one transaction.
    {
      Server server = MakeServer();
      Drive(server, CertifyRequest(minus_text));
      auto out = Drive(server, CertifyRequest(full_text));
      const std::string verdict = FirstLineWith(out, "verdict: ");
      ASSERT_FALSE(verdict.empty()) << FirstLineWith(out, "error: ");
      const bool served = verdict.find("certified=yes") != std::string::npos;
      EXPECT_EQ(served, reference(full_text)) << "seed " << seed << " add";
      incremental_served += server.stats().incremental_certifications;
      ++delta_requests;
    }
    // Removal: certify the full system, then drop one transaction.
    {
      Server server = MakeServer();
      Drive(server, CertifyRequest(full_text));
      auto out = Drive(server, CertifyRequest(minus_text));
      const std::string verdict = FirstLineWith(out, "verdict: ");
      ASSERT_FALSE(verdict.empty()) << FirstLineWith(out, "error: ");
      const bool served = verdict.find("certified=yes") != std::string::npos;
      EXPECT_EQ(served, reference(minus_text)) << "seed " << seed << " del";
      incremental_served += server.stats().incremental_certifications;
      ++delta_requests;
    }
  }
  EXPECT_GE(delta_requests, 100);
  // The incremental paths must actually be carrying traffic, or this
  // test would be vacuously comparing full runs to full runs.
  EXPECT_GE(incremental_served, 60u);
}

TEST(VerdictCacheTest, EvictsTheLeastRecentlyUsedEntry) {
  auto make_entry = [](const std::string& text, SystemKey* key_out) {
    auto parsed = ParseWorkload(text);
    EXPECT_TRUE(parsed.ok());
    auto key = CanonicalSystemKey(*parsed->owned.system);
    EXPECT_TRUE(key.ok());
    SafetyCheckOptions sopts;
    auto report = CheckSafeAndDeadlockFree(*parsed->owned.system, sopts);
    EXPECT_TRUE(report.ok());
    *key_out = *key;
    return std::make_pair(MakeCertificate(*key, *report),
                          ProfileOf(*parsed->owned.system));
  };
  const std::string a = "site s1: x\ntxn T1: Lx Ux\n";
  const std::string b = "site s1: x\ntxn T1: Sx Ux\n";
  const std::string c = "site s1: x\ntxn T1: Lx Ux\ntxn T2: Lx Ux\n";
  SystemKey ka, kb, kc;
  auto ea = make_entry(a, &ka);
  auto eb = make_entry(b, &kb);
  auto ec = make_entry(c, &kc);

  VerdictCache cache(2);
  cache.Insert(ka, ea.first, ea.second);
  cache.Insert(kb, eb.first, eb.second);
  ASSERT_TRUE(cache.Find(ka).has_value());  // Bump A; B is now LRU.
  cache.Insert(kc, ec.first, ec.second);
  EXPECT_EQ(cache.size(), 2);
  EXPECT_TRUE(cache.Find(ka).has_value());
  EXPECT_FALSE(cache.Find(kb).has_value());
  EXPECT_TRUE(cache.Find(kc).has_value());
}

TEST(CertificateTest, RoundTripsAndRejectsTampering) {
  auto parsed = ParseWorkload(kDeadlockPair);
  ASSERT_TRUE(parsed.ok());
  auto key = CanonicalSystemKey(*parsed->owned.system);
  ASSERT_TRUE(key.ok());
  SafetyCheckOptions sopts;
  auto report = CheckSafeAndDeadlockFree(*parsed->owned.system, sopts);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->holds);

  const CertificateBundle bundle = MakeCertificate(*key, *report);
  const std::string text = SerializeCertificate(bundle);
  auto back = ParseCertificate(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->certified, bundle.certified);
  EXPECT_EQ(back->canonical_text, bundle.canonical_text);
  EXPECT_EQ(back->key_hash, bundle.key_hash);
  EXPECT_EQ(back->states_visited, bundle.states_visited);
  EXPECT_EQ(back->witness, bundle.witness);
  EXPECT_EQ(back->cycle, bundle.cycle);

  // Flipping the verdict without refreshing the fingerprint is caught.
  std::string tampered = text;
  const size_t pos = tampered.find("certified: no");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 13, "certified: yes");
  auto reject = ParseCertificate(tampered);
  ASSERT_FALSE(reject.ok());
  EXPECT_NE(reject.status().message().find("fingerprint"),
            std::string::npos);

  // The realized witness round-trips through the canonical coordinates.
  auto violation = RealizeWitness(bundle, *key, *parsed->owned.system);
  ASSERT_TRUE(violation.ok()) << violation.status().ToString();
  EXPECT_FALSE(violation->schedule.empty());
}

}  // namespace
}  // namespace wydb
