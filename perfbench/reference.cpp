#include "reference.h"

#include <algorithm>
#include <vector>

#include "join/local_join.h"
#include "rel/generator.h"

namespace perfbench {

namespace {

using cj::rel::Tuple;

/// The pairing mix JoinResult sums over its matches (join/join_result.h):
/// order-independent over matches, sensitive to which r pairs with which s.
std::uint64_t pair_hash(std::uint64_t r, std::uint64_t s) {
  std::uint64_t x = r * 0x9E3779B97F4A7C15ULL + s * 0xC2B2AE3D27D4EB4FULL + 1;
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  return x;
}

std::uint32_t max_key(std::span<const Tuple> rel) {
  std::uint32_t m = 0;
  for (const Tuple& t : rel) m = std::max(m, t.key);
  return m;
}

std::vector<std::uint64_t> histogram(std::span<const Tuple> rel,
                                     std::uint32_t max) {
  std::vector<std::uint64_t> h(static_cast<std::size_t>(max) + 1, 0);
  for (const Tuple& t : rel) {
    if (t.key <= max) ++h[t.key];
  }
  return h;
}

std::vector<Tuple> sorted_by_key(std::span<const Tuple> rel) {
  std::vector<Tuple> out(rel.begin(), rel.end());
  std::sort(out.begin(), out.end(), [](const Tuple& a, const Tuple& b) {
    return a.key < b.key;
  });
  return out;
}

}  // namespace

std::uint64_t expected_count(std::span<const Tuple> r,
                             std::span<const Tuple> s) {
  const std::uint32_t max = std::min(max_key(r), max_key(s));
  const std::vector<std::uint64_t> hr = histogram(r, max);
  const std::vector<std::uint64_t> hs = histogram(s, max);
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < hr.size(); ++k) total += hr[k] * hs[k];
  return total;
}

std::uint64_t expected_chain_count(std::span<const Tuple> l,
                                   std::span<const Tuple> o,
                                   std::span<const Tuple> s) {
  const std::uint32_t max =
      std::min({max_key(l), max_key(o), max_key(s)});
  const std::vector<std::uint64_t> hl = histogram(l, max);
  const std::vector<std::uint64_t> ho = histogram(o, max);
  const std::vector<std::uint64_t> hs = histogram(s, max);
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < hl.size(); ++k) total += hl[k] * ho[k] * hs[k];
  return total;
}

Expected expected_join(std::span<const Tuple> r, std::span<const Tuple> s) {
  const std::vector<Tuple> rs = sorted_by_key(r);
  const std::vector<Tuple> ss = sorted_by_key(s);
  Expected out;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < rs.size() && j < ss.size()) {
    if (rs[i].key < ss[j].key) {
      ++i;
    } else if (ss[j].key < rs[i].key) {
      ++j;
    } else {
      const std::uint32_t key = rs[i].key;
      std::size_t j_end = j;
      while (j_end < ss.size() && ss[j_end].key == key) ++j_end;
      for (; i < rs.size() && rs[i].key == key; ++i) {
        for (std::size_t k = j; k < j_end; ++k) {
          out.checksum += pair_hash(rs[i].payload, ss[k].payload);
        }
        out.matches += j_end - j;
      }
      j = j_end;
    }
  }
  return out;
}

bool reference_self_test() {
  const cj::rel::Relation r = cj::rel::generate(
      {.rows = 20'000, .key_domain = 5'000, .zipf_z = 0.8, .seed = 7}, "R", 1);
  const cj::rel::Relation s = cj::rel::generate(
      {.rows = 10'000, .key_domain = 5'000, .seed = 8}, "S", 2);
  const Expected want = expected_join(r.tuples(), s.tuples());
  const cj::join::JoinResult got =
      cj::join::local_hash_join(r.tuples(), s.tuples());
  const bool agrees = matches(want, got.matches(), got.checksum()) &&
                      expected_count(r.tuples(), s.tuples()) == want.matches;
  const bool flags_count = !matches(want, got.matches() + 1, got.checksum());
  const bool flags_checksum =
      !matches(want, got.matches(), got.checksum() ^ 1);
  // Swapping one pairing keeps the count but must move the checksum.
  const bool flags_pairing =
      pair_hash(r[0].payload, s[0].payload) + pair_hash(r[1].payload, s[1].payload) !=
      pair_hash(r[0].payload, s[1].payload) + pair_hash(r[1].payload, s[0].payload);
  return want.matches > 0 && agrees && flags_count && flags_checksum &&
         flags_pairing;
}

}  // namespace perfbench
