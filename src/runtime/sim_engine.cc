#include "runtime/sim_engine.h"

#include <algorithm>
#include <utility>

#include "core/conflict_graph.h"
#include "graph/algorithms.h"

namespace wydb {

SimEngine::SimEngine(const TransactionSystem& sys, const SimOptions& options,
                     const DriverConfig& driver)
    : sys_(sys),
      options_(options),
      driver_(driver),
      rng_(options.seed),
      network_(&queue_, sys.db().num_sites(), options.latency, &rng_) {
  const int n = sys.num_transactions();
  const int num_entities = sys.db().num_entities();
  const int num_sites = sys.db().num_sites();
  sites_.reserve(num_sites);
  for (SiteId s = 0; s < num_sites; ++s) {
    sites_.emplace_back(s, num_entities, &lock_events_);
  }
  // Resolve the copy-placement table once. Each site's lock table is
  // dense over the global entity id space, so entity e's copy at site s
  // is simply row e of site s's table.
  copies_.reserve(num_entities);
  for (EntityId e = 0; e < num_entities; ++e) {
    if (options.placement != nullptr) {
      copies_.push_back(options.placement->CopiesOf(e));
    } else {
      copies_.push_back({sys.db().SiteOf(e)});
    }
  }
  executors_.reserve(n);
  for (int i = 0; i < n; ++i) {
    executors_.emplace_back(i, &sys.txn(i));
    // Home site: where the transaction's first entity's primary copy
    // lives (round-robin fallback for the empty edge case).
    SiteId home = sys.txn(i).entities().empty()
                      ? i % std::max(1, num_sites)
                      : PrimaryOf(sys.txn(i).entities()[0]);
    home_.push_back(home);
    timestamp_.push_back(static_cast<uint64_t>(i));
    pending_acks_.emplace_back(sys.txn(i).num_steps(), 0);
    fanned_out_.emplace_back(sys.txn(i).num_steps(), 0);
  }
  committed_.assign(n, 0);
  round_base_attempt_.assign(n, 1);
  committed_attempt_.assign(n, -1);
  rounds_done_.assign(n, 0);
  arrival_time_.assign(n, 0);
  pending_arrivals_.resize(n);
  arrival_clock_on_.assign(n, 0);
  in_admit_fifo_.assign(n, 0);
}

SimTime SimEngine::ThinkDelay() {
  return 1 + rng_.NextBelow(2 * driver_.think_time);
}

bool SimEngine::Retired(int i) const {
  if (!driver_.closed_loop) return rounds_done_[i] >= 1;
  if (driver_.rounds > 0 && rounds_done_[i] >= driver_.rounds) return true;
  if (driver_.duration > 0 && queue_.now() >= driver_.duration) return true;
  return false;
}

void SimEngine::Dispatch(const SimEvent& ev) {
  switch (ev.kind) {
    case EventKind::kStartTxn: {
      TxnExecutor& exec = executors_[ev.txn];
      if (exec.attempt() != ev.attempt) break;  // Stale restart timer.
      if (exec.state() == TxnState::kBackoff) {
        // Resuming an aborted attempt: the round is already admitted.
        exec.set_state(TxnState::kRunning);
        Advance(ev.txn);
      } else if (exec.state() == TxnState::kNotStarted) {
        AdmitOrQueueRound(ev.txn, queue_.now());  // First arrival.
      }
      break;
    }
    case EventKind::kThinkDone: {
      TxnExecutor& exec = executors_[ev.txn];
      if (driver_.open_loop) {
        if (Retired(ev.txn)) break;  // The arrival clock stops for good.
        if (exec.state() == TxnState::kThinking && !in_admit_fifo_[ev.txn]) {
          AdmitOrQueueRound(ev.txn, queue_.now());
        } else if (static_cast<int>(pending_arrivals_[ev.txn].size()) <
                   driver_.max_backlog) {
          // Busy (running, backing off, or awaiting an MPL slot): the
          // arrival queues behind the in-flight round.
          pending_arrivals_[ev.txn].push_back(queue_.now());
        } else {
          // Backlog full: pause the arrival clock so a stalled system
          // can quiesce (deadlock detection happens at quiescence).
          // CommitRound resumes it once the backlog drains.
          arrival_clock_on_[ev.txn] = 0;
          break;
        }
        // Re-arm the free-running arrival clock, independent of whether
        // the previous round finished: a fixed arrival rate.
        SimEvent next = ev;
        queue_.After(ThinkDelay(), next);
        break;
      }
      if (exec.state() == TxnState::kThinking) {
        AdmitOrQueueRound(ev.txn, queue_.now());
      }
      break;
    }
    case EventKind::kLockArrive: {
      if (executors_[ev.txn].attempt() != ev.attempt) break;  // Stale.
      const Step st = executors_[ev.txn].txn().step(ev.node);
      sites_[ev.site].Request(ev.txn, st.entity, st.mode, ev.node,
                              ev.attempt);
      break;  // Grants/blocks pumped by the main loop.
    }
    case EventKind::kUnlockArrive: {
      if (executors_[ev.txn].attempt() != ev.attempt) break;
      const EntityId e = executors_[ev.txn].txn().step(ev.node).entity;
      // Traffic mode never extracts a history; don't grow the log. With
      // replication, only the primary copy's event represents the logical
      // step (one log entry per step, whatever the degree).
      if (!driver_.closed_loop && ev.site == PrimaryOf(e)) {
        log_.push_back(LogEntry{ev.txn, ev.node, ev.attempt});
      }
      sites_[ev.site].Release(ev.txn, e);
      SimEvent ack;
      ack.kind = EventKind::kAckArrive;
      ack.txn = ev.txn;
      ack.node = ev.node;
      ack.attempt = ev.attempt;
      ack.site = home_[ev.txn];
      network_.Send(ev.site, home_[ev.txn], ack);
      break;
    }
    case EventKind::kAckArrive: {
      if (executors_[ev.txn].attempt() != ev.attempt) break;
      if (--pending_acks_[ev.txn][ev.node] > 0) break;  // Join pending.
      if (!fanned_out_[ev.txn][ev.node]) {
        // The primary copy is granted: fan the write-all out to the
        // remaining copies. They cannot deadlock among themselves — only
        // the primary holder ever requests secondaries (DESIGN.md §6).
        fanned_out_[ev.txn][ev.node] = 1;
        const Step step = executors_[ev.txn].txn().step(ev.node);
        SendToCopies(ev.txn, ev.node, step.entity, EventKind::kLockArrive,
                     /*from=*/1);
        break;
      }
      executors_[ev.txn].MarkCompleted(ev.node);
      Advance(ev.txn);
      break;
    }
  }
}

void SimEngine::PumpLockEvents() {
  // Index loop: handlers append (Release/Abort emit more records) and the
  // vector may reallocate, so copy each record out before dispatching.
  for (std::size_t i = 0; i < lock_events_.size(); ++i) {
    const LockEvent le = lock_events_[i];
    if (le.kind == LockEvent::Kind::kGrant) {
      HandleGrant(le);
    } else {
      HandleBlock(le);
    }
  }
  lock_events_.clear();
}

void SimEngine::HandleGrant(const LockEvent& le) {
  if (executors_[le.txn].attempt() != le.attempt) {
    // Granted to an aborted attempt (in-flight race): give it back
    // immediately. No-op if the abort already released it.
    sites_[le.site].Release(le.txn, le.entity);
    return;
  }
  // Lock granted at the site: this is the linearization point. Only the
  // primary copy's grant enters the history log (one entry per step).
  if (!driver_.closed_loop && le.site == PrimaryOf(le.entity)) {
    log_.push_back(LogEntry{le.txn, le.node, le.attempt});
  }
  SimEvent ack;
  ack.kind = EventKind::kAckArrive;
  ack.txn = le.txn;
  ack.node = le.node;
  ack.attempt = le.attempt;
  ack.site = home_[le.txn];
  network_.Send(le.site, home_[le.txn], ack);
}

void SimEngine::HandleBlock(const LockEvent& le) {
  // The record may be stale: re-validate the wait edge against the table.
  // With shared holders the named holder need not be THE holder — it must
  // merely still hold the entity in some mode.
  const LockManager& lm = sites_[le.site];
  if (!lm.IsHolding(le.holder, le.entity)) return;
  if (!lm.IsWaitingOn(le.txn, le.entity)) return;
  ConflictAction action = ResolveConflict(options_.policy, timestamp_[le.txn],
                                          timestamp_[le.holder]);
  switch (action) {
    case ConflictAction::kWait:
      break;
    case ConflictAction::kAbortRequester:
      AbortTxn(le.txn);
      break;
    case ConflictAction::kAbortHolder:
      AbortTxn(le.holder);
      break;
  }
}

void SimEngine::AdmitOrQueueRound(int i, SimTime arrival) {
  if (Retired(i)) {
    executors_[i].set_state(TxnState::kCommitted);
    committed_[i] = 1;
    return;
  }
  if (driver_.mpl > 0 && active_ >= driver_.mpl) {
    arrival_time_[i] = arrival;  // Latency includes the admission wait.
    admit_fifo_.push_back(i);
    in_admit_fifo_[i] = 1;
    return;
  }
  BeginRound(i, arrival);
}

void SimEngine::BeginRound(int i, SimTime arrival) {
  TxnExecutor& exec = executors_[i];
  if (exec.state() == TxnState::kNotStarted) {
    exec.MarkStarted();
  } else {
    exec.BeginRound();  // Bumps the attempt: prior-round stragglers stale.
  }
  committed_[i] = 0;
  round_base_attempt_[i] = exec.attempt();
  arrival_time_[i] = arrival;
  ++active_;
  if (driver_.closed_loop && driver_.open_loop && !arrival_clock_on_[i]) {
    // Open variant: seed the free-running arrival clock once; it re-arms
    // itself on every firing (Dispatch, kThinkDone).
    arrival_clock_on_[i] = 1;
    SimEvent think;
    think.kind = EventKind::kThinkDone;
    think.txn = i;
    queue_.After(ThinkDelay(), think);
  }
  Advance(i);
}

void SimEngine::Advance(int i) {
  TxnExecutor& exec = executors_[i];
  if (exec.IsDone()) {
    if (!committed_[i]) CommitRound(i);
    return;
  }
  // Issuing only schedules network events, so the ready list shrinks
  // monotonically here; steps issue in ascending node order.
  while (!exec.ReadySteps().empty()) {
    NodeId v = exec.ReadySteps().front();
    exec.MarkIssued(v);
    IssueStep(i, v);
  }
}

void SimEngine::SendToCopies(int i, NodeId v, EntityId e, EventKind kind,
                             std::size_t from) {
  const std::vector<SiteId>& copies = copies_[e];
  pending_acks_[i][v] = static_cast<int32_t>(copies.size() - from);
  for (std::size_t k = from; k < copies.size(); ++k) {
    SimEvent ev;
    ev.kind = kind;
    ev.txn = i;
    ev.node = v;
    ev.attempt = executors_[i].attempt();
    ev.site = copies[k];
    network_.Send(home_[i], copies[k], ev);
  }
}

void SimEngine::IssueStep(int i, NodeId v) {
  const Step step = executors_[i].txn().step(v);
  if (step.kind == StepKind::kLock) {
    // Write-all with primary-copy serialization: acquire the primary copy
    // first; its grant ack fans out to the remaining copies (kAckArrive).
    // Simultaneous fan-out would let two homes each grab half the copies
    // of the SAME entity and deadlock on it — the primary order prevents
    // exactly that (DESIGN.md §6).
    fanned_out_[i][v] = copies_[step.entity].size() == 1 ? 1 : 0;
    pending_acks_[i][v] = 1;
    SimEvent ev;
    ev.kind = EventKind::kLockArrive;
    ev.txn = i;
    ev.node = v;
    ev.attempt = executors_[i].attempt();
    ev.site = PrimaryOf(step.entity);
    network_.Send(home_[i], ev.site, ev);
  } else {
    // Releases cannot block: fan the unlock out to every copy at once
    // and join the acks at the home site.
    fanned_out_[i][v] = 1;
    SendToCopies(i, v, step.entity, EventKind::kUnlockArrive, /*from=*/0);
  }
}

void SimEngine::CommitRound(int i) {
  TxnExecutor& exec = executors_[i];
  committed_[i] = 1;
  exec.set_state(TxnState::kCommitted);
  if (!driver_.closed_loop) committed_attempt_[i] = exec.attempt();
  ++result_.commits;
  ++rounds_done_[i];
  latencies_.push_back(queue_.now() - arrival_time_[i]);
  --active_;
  if (!driver_.closed_loop) return;
  AdmitFromFifo();
  if (Retired(i)) return;
  if (driver_.open_loop) {
    if (!pending_arrivals_[i].empty()) {
      SimTime arrival = pending_arrivals_[i].front();
      pending_arrivals_[i].pop_front();
      if (!arrival_clock_on_[i]) {
        // Backlog has headroom again: resume the paused arrival clock.
        arrival_clock_on_[i] = 1;
        SimEvent think;
        think.kind = EventKind::kThinkDone;
        think.txn = i;
        queue_.After(ThinkDelay(), think);
      }
      AdmitOrQueueRound(i, arrival);
    } else {
      exec.set_state(TxnState::kThinking);  // Awaits the next arrival.
    }
  } else {
    exec.set_state(TxnState::kThinking);
    SimEvent think;
    think.kind = EventKind::kThinkDone;
    think.txn = i;
    queue_.After(ThinkDelay(), think);
  }
}

// A slot freed up: admit the longest-waiting queued round, if any.
void SimEngine::AdmitFromFifo() {
  while (admit_head_ < admit_fifo_.size() &&
         (driver_.mpl == 0 || active_ < driver_.mpl)) {
    int j = admit_fifo_[admit_head_++];
    in_admit_fifo_[j] = 0;
    if (Retired(j)) {
      executors_[j].set_state(TxnState::kCommitted);
      committed_[j] = 1;
      continue;
    }
    BeginRound(j, arrival_time_[j]);
    break;
  }
}

void SimEngine::AbortTxn(int i) {
  TxnExecutor& exec = executors_[i];
  if (committed_[i] || exec.state() == TxnState::kGaveUp) {
    return;  // Too late to wound.
  }
  ++result_.aborts;
  for (LockManager& site : sites_) site.Abort(i);
  exec.Restart();  // Bumps the attempt => in-flight events go stale.
  if (exec.attempt() - round_base_attempt_[i] > options_.max_restarts) {
    result_.gave_up = true;
    exec.set_state(TxnState::kGaveUp);
    --active_;  // Free the execution slot it occupied.
    if (driver_.closed_loop) AdmitFromFifo();
    return;
  }
  SimTime backoff =
      options_.restart_backoff + rng_.NextBelow(options_.restart_backoff);
  SimEvent restart;
  restart.kind = EventKind::kStartTxn;
  restart.txn = i;
  restart.attempt = exec.attempt();
  queue_.After(backoff, restart);
}

std::vector<int> SimEngine::IncompleteTxns() const {
  std::vector<int> out;
  for (int i = 0; i < sys_.num_transactions(); ++i) {
    if (!committed_[i]) out.push_back(i);
  }
  return out;
}

// Global wait-for cycle detection at quiescence; aborts the youngest
// transaction on each cycle. Returns true if it made progress.
bool SimEngine::DetectAndResolve() {
  ++result_.detector_runs;
  Digraph wait_for(sys_.num_transactions());
  std::vector<LockManager::WaitEdge> edges;
  for (const LockManager& site : sites_) site.AppendWaitForEdges(&edges);
  for (const auto& edge : edges) wait_for.AddArc(edge.waiter, edge.holder);
  const std::vector<NodeId> victims = DeadlockVictims(wait_for, timestamp_);
  for (NodeId victim : victims) {
    AbortTxn(victim);
    PumpLockEvents();  // The abort releases locks: serve the grants now.
  }
  return !victims.empty();
}

void SimEngine::FinalizeMetrics() {
  result_.events = queue_.processed();
  result_.messages = network_.messages_sent();
  result_.makespan = queue_.now();
  for (const LockManager& site : sites_) {
    result_.shared_grants += site.shared_grants();
    result_.upgrades += site.upgrades();
    result_.upgrade_aborts += site.upgrade_aborts();
  }
  const uint64_t attempts = result_.aborts + result_.commits;
  result_.abort_rate =
      attempts == 0 ? 0.0
                    : static_cast<double>(result_.aborts) /
                          static_cast<double>(attempts);
  result_.throughput =
      result_.makespan == 0
          ? 0.0
          : static_cast<double>(result_.commits) * 1e6 /
                static_cast<double>(result_.makespan);
  if (latencies_.empty()) return;
  std::sort(latencies_.begin(), latencies_.end());
  auto pct = [&](double p) {
    std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(latencies_.size() - 1) + 0.5);
    return latencies_[std::min(idx, latencies_.size() - 1)];
  };
  result_.latency.p50 = pct(0.50);
  result_.latency.p95 = pct(0.95);
  result_.latency.p99 = pct(0.99);
  result_.latency.max = latencies_.back();
  double sum = 0;
  for (SimTime l : latencies_) sum += static_cast<double>(l);
  result_.latency.mean = sum / static_cast<double>(latencies_.size());
  result_.latency.samples = latencies_.size();
}

Status SimEngine::ExtractHistory() {
  // Committed history: site-linearized log filtered to the attempts that
  // committed (one-shot mode: at most one per transaction).
  for (const LogEntry& entry : log_) {
    if (committed_[entry.txn] &&
        entry.attempt == committed_attempt_[entry.txn]) {
      result_.committed_history.push_back(GlobalNode{entry.txn, entry.node});
    }
  }
  if (result_.all_committed) {
    auto cg = ConflictGraph::FromSchedule(sys_, result_.committed_history);
    if (!cg.ok()) return cg.status();
    result_.history_serializable = cg->IsAcyclic();
  }
  return Status();
}

Result<SimResult> SimEngine::Run() {
  for (int i = 0; i < sys_.num_transactions(); ++i) {
    SimTime offset = options_.start_spread == 0
                         ? 0
                         : rng_.NextBelow(options_.start_spread + 1);
    SimEvent start;
    start.kind = EventKind::kStartTxn;
    start.txn = i;
    start.attempt = 1;
    queue_.After(offset, start);
  }

  SimEvent ev;
  for (;;) {
    while ((options_.max_events == 0 ||
            queue_.processed() < options_.max_events) &&
           queue_.PopNext(&ev)) {
      Dispatch(ev);
      PumpLockEvents();
    }
    if (!queue_.empty()) {
      result_.budget_exhausted = true;
      break;
    }
    // Quiescent. Done, deadlocked, or (under kDetect) resolvable.
    std::vector<int> incomplete = IncompleteTxns();
    if (incomplete.empty()) {
      result_.all_committed = true;
      break;
    }
    if (result_.gave_up) break;
    if (options_.policy == ConflictPolicy::kDetect && DetectAndResolve()) {
      continue;
    }
    result_.deadlocked = true;
    result_.blocked_txns = std::move(incomplete);
    break;
  }

  FinalizeMetrics();
  if (!driver_.closed_loop) {
    Status s = ExtractHistory();
    if (!s.ok()) return s;
  }
  return std::move(result_);
}

}  // namespace wydb
