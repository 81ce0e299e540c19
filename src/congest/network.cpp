#include "congest/network.hpp"

#include <algorithm>
#include <atomic>

#include "obs/sink.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace plansep::congest {

namespace {

std::atomic<TraceSink*> g_trace_sink{nullptr};
std::atomic<FaultInjector*> g_fault_injector{nullptr};

}  // namespace

TraceSink* set_global_trace_sink(TraceSink* sink) {
  return g_trace_sink.exchange(sink, std::memory_order_acq_rel);
}

TraceSink* global_trace_sink() {
  return g_trace_sink.load(std::memory_order_acquire);
}

FaultInjector* set_global_fault_injector(FaultInjector* injector) {
  return g_fault_injector.exchange(injector, std::memory_order_acq_rel);
}

FaultInjector* global_fault_injector() {
  return g_fault_injector.load(std::memory_order_acquire);
}

void Ctx::send(NodeId neighbor, const Message& msg) {
  net_->do_send(self_, neighbor, msg, round_);
}

void Ctx::wake_next_round() {
  if (!net_->woken_[static_cast<std::size_t>(self_)]) {
    net_->woken_[static_cast<std::size_t>(self_)] = 1;
    net_->active_next_.push_back(self_);
  }
}

Network::Network(const EmbeddedGraph& g) : g_(&g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  inbox_off_.assign(n, 0);
  inbox_len_.assign(n, 0);
  cursor_.assign(n, 0);
  woken_.assign(n, 0);
  sent_round_.assign(static_cast<std::size_t>(g.num_darts()), -1);
  crash_pending_flag_.assign(n, 0);
}

void Network::do_send(NodeId from, NodeId to, const Message& msg, int round) {
  // Bandwidth guard, keyed by the directed dart from→to.
  const DartId d = g_->find_dart(from, to);
  PLANSEP_CHECK_MSG(d != planar::kNoDart, "message sent to a non-neighbor");
  PLANSEP_CHECK_MSG(sent_round_[static_cast<std::size_t>(d)] != round,
                    "CONGEST bandwidth exceeded: two messages on one edge");
  sent_round_[static_cast<std::size_t>(d)] = round;
  ++messages_sent_;
  if (active_sink_) active_sink_->on_send(round, from, to, msg);
  // Staged for delivery after every node has taken its turn this round —
  // synchronous semantics: messages sent in round r are readable in r+1.
  staged_.push_back({to, Incoming{from, msg}});
}

// Delivery pass 1: one accepted message for `to`. The first message a node
// receives this round registers it as a recipient (reserving its slab
// slice) and activates it unless a wake-up already did.
void Network::count_delivery(NodeId to) {
  const auto i = static_cast<std::size_t>(to);
  if (inbox_len_[i]++ == 0) {
    recipients_.push_back(to);
    if (!woken_[i]) {
      woken_[i] = 1;
      active_next_.push_back(to);
    }
  }
}

// Delivery pass 2 setup: prefix-sum the per-recipient counts into slab
// offsets and scatter cursors, and make room in the staging slab.
std::uint32_t Network::finish_offsets() {
  std::uint32_t total = 0;
  for (const NodeId to : recipients_) {
    const auto i = static_cast<std::size_t>(to);
    inbox_off_[i] = total;
    cursor_[i] = total;
    total += inbox_len_[i];
  }
  if (inbox_next_.size() < total) inbox_next_.resize(total);
  return total;
}

// Serial delivery: count + activate in staging order, then scatter into the
// next round's slab and swap it in. Per-node inbox order is exactly the
// staging (= send acceptance) order.
long long Network::deliver_serial() {
  recipients_.clear();
  for (const auto& [to, inc] : staged_) {
    count_delivery(to);
    (void)inc;
  }
  const std::uint32_t total = finish_offsets();
  for (const auto& [to, inc] : staged_) {
    inbox_next_[cursor_[static_cast<std::size_t>(to)]++] = inc;
  }
  inbox_data_.swap(inbox_next_);
  return static_cast<long long>(total);
}

// One round's turns in `nodes` order, staging accepted sends into staged_
// in that (= acceptance) order. An exception from a turn aborts the run at
// that turn: later nodes never run, and the next run() starts clean.
void Network::run_turns(NodeProgram& prog, int round,
                        const std::vector<NodeId>& nodes) {
  staged_.clear();
  Ctx ctx;
  ctx.net_ = this;
  ctx.round_ = round;
  for (const NodeId v : nodes) {
    ctx.self_ = v;
    prog.round(v, take_inbox(v), ctx);
  }
}

// One round under an active FaultInjector. Crash decisions are taken
// before the turns, over the active list in order and then over the parked
// nodes in parking order; delivery fates and reorders are applied after all
// turns, in staging order. Every injector query is therefore issued in one
// fixed serial order, and a run replays bit for bit.
long long Network::run_round_faulted(NodeProgram& prog, int round,
                                     const std::vector<NodeId>& active) {
  FaultInjector& fi = *active_fault_;
  // Crash filter: crashed nodes lose this turn and any pending mail, and
  // are parked; parked nodes whose crash interval ended get one restart
  // turn (empty inbox) this round.
  faulted_active_.clear();
  for (const NodeId v : active) {
    if (fi.crashed(round, v)) {
      inbox_len_[static_cast<std::size_t>(v)] = 0;
      if (!crash_pending_flag_[static_cast<std::size_t>(v)]) {
        crash_pending_flag_[static_cast<std::size_t>(v)] = 1;
        crash_pending_.push_back(v);
      }
    } else {
      // A parked node that re-activated on its own (fresh mail) simply
      // rejoins; no separate restart turn is owed.
      crash_pending_flag_[static_cast<std::size_t>(v)] = 0;
      faulted_active_.push_back(v);
    }
  }
  if (!crash_pending_.empty()) {
    std::size_t keep = 0;
    for (const NodeId v : crash_pending_) {
      if (!crash_pending_flag_[static_cast<std::size_t>(v)]) continue;
      if (fi.crashed(round, v)) {
        crash_pending_[keep++] = v;
        continue;
      }
      crash_pending_flag_[static_cast<std::size_t>(v)] = 0;
      faulted_active_.push_back(v);  // restart turn
    }
    crash_pending_.resize(keep);
  }

  run_turns(prog, round, faulted_active_);
  return deliver_faulted(round);
}

// Delivery stage of a faulted round: flush last round's stalled messages,
// apply per-message fates to this round's staged sends to build the
// post-fate delivery sequence, slab-scatter it, then permute the inbox
// slices the injector wants reordered (before the slab is swapped in).
long long Network::deliver_faulted(int round) {
  FaultInjector& fi = *active_fault_;
  fault_deliver_.clear();
  // Messages stalled in the previous round arrive now, ahead of this
  // round's traffic, in their original staging order.
  fault_deliver_.insert(fault_deliver_.end(), deferred_.begin(),
                        deferred_.end());
  deferred_.clear();
  for (const auto& [to, inc] : staged_) {
    switch (fi.fate(round, inc.from, to)) {
      case FaultInjector::Fate::kDrop:
        break;
      case FaultInjector::Fate::kStall:
        deferred_next_.push_back({to, inc});
        break;
      case FaultInjector::Fate::kDuplicate:
        fault_deliver_.push_back({to, inc});
        fault_deliver_.push_back({to, inc});
        break;
      case FaultInjector::Fate::kDeliver:
        fault_deliver_.push_back({to, inc});
        break;
    }
  }
  deferred_.swap(deferred_next_);
  recipients_.clear();
  for (const auto& [to, inc] : fault_deliver_) {
    count_delivery(to);
    (void)inc;
  }
  const std::uint32_t total = finish_offsets();
  for (const auto& [to, inc] : fault_deliver_) {
    inbox_next_[cursor_[static_cast<std::size_t>(to)]++] = inc;
  }
  // Adversarial intra-round delivery order: deterministic permutation of
  // each recipient's slab slice (the slice holds exactly this round's
  // deliveries — turns consume mail by slab swap, so nothing older can be
  // shuffled in). The injector answers as a pure function, so querying in
  // first-arrival rather than sorted order changes nothing.
  for (const NodeId to : recipients_) {
    if (const std::uint64_t s = fi.reorder_seed(round, to)) {
      Rng rng(s);
      const auto i = static_cast<std::size_t>(to);
      rng.shuffle(inbox_next_.data() + inbox_off_[i], inbox_len_[i]);
    }
  }
  inbox_data_.swap(inbox_next_);
  return static_cast<long long>(total);
}

int Network::run(NodeProgram& prog, int max_rounds) {
  std::fill(inbox_len_.begin(), inbox_len_.end(), 0);
  std::fill(woken_.begin(), woken_.end(), 0);
  std::fill(sent_round_.begin(), sent_round_.end(), -1);
  active_next_.clear();
  staged_.clear();
  recipients_.clear();
  messages_sent_ = 0;
  // Consider the PLANSEP_METRICS env bootstrap (obs/) before resolving the
  // global sink, so env-enabled metrics observe every run in the process
  // even when no other obs entry point was reached first. One static-guard
  // check after the first call.
  obs::ensure_env_metrics();
  active_sink_ = sink_ ? sink_ : global_trace_sink();
  if (active_sink_) active_sink_->on_run_begin(*g_);
  active_fault_ = fault_ ? fault_ : global_fault_injector();
  if (active_fault_) {
    deferred_.clear();
    deferred_next_.clear();
    for (const NodeId v : crash_pending_) {
      crash_pending_flag_[static_cast<std::size_t>(v)] = 0;
    }
    crash_pending_.clear();
    active_fault_->on_run_begin(*g_);
  }

  std::vector<NodeId> active = prog.initial_nodes(*g_);
  std::sort(active.begin(), active.end());
  active.erase(std::unique(active.begin(), active.end()), active.end());

  int round = 0;
  // Under faults the run must also outlast in-flight stalled messages and
  // parked crashed nodes, which keep the network non-quiescent even with
  // no node active this round.
  while ((!active.empty() ||
          (active_fault_ && (!deferred_.empty() || !crash_pending_.empty()))) &&
         round < max_rounds) {
    active_next_.clear();
    long long delivered = 0;
    if (active_fault_) {
      delivered = run_round_faulted(prog, round, active);
    } else {
      run_turns(prog, round, active);
      // Deliver staged messages; recipients become active next round.
      delivered = deliver_serial();
    }
    active.swap(active_next_);
    for (NodeId v : active) woken_[static_cast<std::size_t>(v)] = 0;
    if (active_sink_) {
      active_sink_->on_round_end(round, static_cast<int>(active.size()),
                                 delivered);
    }
    ++round;
  }
  if (active_sink_) active_sink_->on_run_end(round, messages_sent_);
  active_sink_ = nullptr;
  if (active_fault_) active_fault_->on_run_end();
  active_fault_ = nullptr;
  return round;
}

}  // namespace plansep::congest
