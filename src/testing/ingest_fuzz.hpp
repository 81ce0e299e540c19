#pragma once

/// \file
/// Seed-pure hostile-input generator for the ingest front door: one
/// seed, one adversarial text case with its expected admissibility.

// Each case is a pure function of the seed (the proptest replay
// contract): the same seed always yields the same bytes, so a fuzz
// failure replays from one number. The generator covers the taxonomy
// deliberately rather than uniformly — malformed tokens, overflow ids,
// CRLF/whitespace mixes, truncations, cap violations, duplicate/self-
// loop storms, valid planar graphs, and adversarial *near-planar*
// graphs (a planar base with a K5 / K3,3 glued on), which is the case
// class that stresses the planarity witness path.

#include <cstdint>
#include <string>

#include "ingest/pipeline.hpp"

namespace plansep::testing {

/// What the generator knows about a case's outcome.
enum class IngestExpectation {
  kAccept,     ///< must be admitted (valid planar input, caps generous)
  kReject,     ///< must be rejected (a specific violation was planted)
  kEither,     ///< mutated/truncated bytes: only "no crash" is promised
};

/// One generated hostile input.
struct IngestFuzzCase {
  std::string text;             ///< the input bytes (may contain CRLF)
  IngestExpectation expect = IngestExpectation::kEither;
  const char* label = "";       ///< case class, for failure messages
};

/// The case for `seed`. Deterministic; cases cycle through the class
/// list so any contiguous seed range covers every class.
IngestFuzzCase make_ingest_fuzz_case(std::uint64_t seed);

/// The pipeline options every expectation is computed against: tight
/// caps (5000 nodes, 20000 edges, 256-byte lines), reject policies for
/// self-loops and duplicates, no corpus write.
ingest::IngestOptions ingest_fuzz_options();

}  // namespace plansep::testing
