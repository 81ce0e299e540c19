#pragma once

/// \file
/// Deterministic fault plans: pure-function-of-seed decision kernels for
/// the CONGEST simulator (taxonomy and contract in docs/FAULT_MODEL.md).

// Deterministic fault plans for the CONGEST simulator.
//
// A FaultPlan is a *pure function* of a 64-bit seed plus the topology it
// is asked about: every decision (drop this message? is this node crashed
// in round r?) is computed by stateless hashing of the seed with the query
// coordinates (round, node/edge ids). No wall clock, no per-call
// randomness, no mutable state — so the same seed over the same graph
// yields the same faults on every machine and on every replay. docs/FAULT_MODEL.md specifies the full taxonomy and
// the determinism contract; faults::FaultController adapts a plan to the
// congest::FaultInjector hook.

#include <cstdint>
#include <string>

#include "congest/network.hpp"
#include "core/fingerprint.hpp"

namespace plansep::faults {

using congest::NodeId;          ///< node identifier (planar::NodeId)
using planar::EmbeddedGraph;    ///< embedded planar graph

/// Intensity knobs of a fault plan. All probabilities are in [0, 1]; a
/// default-constructed spec is the empty plan (no faults, zero overhead
/// beyond the engine's fault-path bookkeeping).
struct FaultSpec {
  /// Per-message probability that a delivery is silently lost.
  double drop_prob = 0.0;
  /// Per-message probability that two copies land in the inbox.
  double duplicate_prob = 0.0;
  /// Per-message probability that delivery is delayed one extra round
  /// (the per-edge bandwidth budget perturbation: the message occupies
  /// its edge into the next round).
  double stall_prob = 0.0;
  /// Per-inbox-per-round probability that the delivery order is
  /// adversarially permuted.
  double reorder_prob = 0.0;
  /// Per-(node, window) probability that the node crashes for
  /// crash_length rounds at the window's start.
  double crash_prob = 0.0;
  /// Rounds a crash lasts. Must be < window_rounds to permit restarts.
  int crash_length = 2;
  /// Per-(edge, window) probability that the undirected edge blacks out:
  /// every message on it during the window is dropped.
  double edge_outage_prob = 0.0;
  /// Length of the crash/outage scheduling windows, in rounds.
  int window_rounds = 16;

  /// True when at least one fault kind can fire.
  bool enabled() const {
    return drop_prob > 0 || duplicate_prob > 0 || stall_prob > 0 ||
           reorder_prob > 0 || crash_prob > 0 || edge_outage_prob > 0;
  }
  /// Compact human-readable form, e.g. "drop=0.03 crash=0.05/len2/win16".
  std::string describe() const;
};

/// Stable 64-bit fingerprint of a topology, mixed into the per-run seed
/// so distinct graphs inside one pipeline draw from independent fault
/// streams. The shared implementation lives in core/fingerprint.hpp (io
/// and serve key on the same value); the historical faults:: name stays.
using core::topology_fingerprint;

/// Mixes additional words into a seed (SplitMix64-style avalanche). The
/// one hash primitive every plan decision reduces to — hoisted to
/// core/fingerprint.hpp, re-exported under the historical name.
using core::mix_seed;

/// The pure decision kernel: spec + effective seed → per-query answers.
/// All queries are const, stateless and O(1).
class FaultPlan {
 public:
  /// The empty plan: never injects anything.
  FaultPlan() = default;
  /// A plan drawing every decision from `seed` at the spec's intensities.
  FaultPlan(const FaultSpec& spec, std::uint64_t seed)
      : spec_(spec), seed_(seed) {}

  /// True when no fault can ever fire.
  bool empty() const { return !spec_.enabled(); }
  /// The intensity knobs this plan was built from.
  const FaultSpec& spec() const { return spec_; }
  /// The effective 64-bit seed all decisions derive from.
  std::uint64_t seed() const { return seed_; }

  /// Is v crashed in `round`? (Turn suppressed, pending mail lost.)
  bool crashed(int round, NodeId v) const;
  /// Delivery fate of the message accepted on from→to in `round`.
  congest::FaultInjector::Fate fate(int round, NodeId from, NodeId to) const;
  /// Nonzero seed when the inbox `to` receives this round must be
  /// permuted; zero to keep the canonical order.
  std::uint64_t reorder_seed(int round, NodeId to) const;

 private:
  FaultSpec spec_;
  std::uint64_t seed_ = 0;
};

}  // namespace plansep::faults
