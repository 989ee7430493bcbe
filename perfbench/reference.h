// Reference results the benchmark computes itself from the generated
// inputs, independently of the join kernels under test.
//
// Counts come from key histograms: |R ⋈ S| = Σₖ |Rₖ|·|Sₖ| and, for the
// three-table chain, |L ⋈ O ⋈ S| = Σₖ |Lₖ|·|Oₖ|·|Sₖ|. Checksums come from a
// sorted enumeration of every matching (r, s) pair, mixed with the same
// order-independent pairing hash the library's JoinResult documents, so a
// wrong pairing changes the checksum even when the count is right.
#pragma once

#include <cstdint>
#include <span>

#include "rel/relation.h"

namespace perfbench {

struct Expected {
  std::uint64_t matches = 0;
  std::uint64_t checksum = 0;
};

/// |R ⋈ S| on key equality, from key histograms.
std::uint64_t expected_count(std::span<const cj::rel::Tuple> r,
                             std::span<const cj::rel::Tuple> s);

/// |L ⋈ O ⋈ S| on one shared key, from key histograms.
std::uint64_t expected_chain_count(std::span<const cj::rel::Tuple> l,
                                   std::span<const cj::rel::Tuple> o,
                                   std::span<const cj::rel::Tuple> s);

/// Count and checksum of r ⋈ s with r the rotating (probe) side, from a
/// sorted enumeration of the matching pairs.
Expected expected_join(std::span<const cj::rel::Tuple> r,
                       std::span<const cj::rel::Tuple> s);

/// True when a reported result equals the reference.
inline bool matches(const Expected& want, std::uint64_t matches,
                    std::uint64_t checksum) {
  return want.matches == matches && want.checksum == checksum;
}

/// Checks the checker: the reference agrees with the library's own local
/// hash join on a small seeded input, and a perturbed count and a
/// perturbed checksum are both flagged. Returns false on any miss.
bool reference_self_test();

}  // namespace perfbench
