// Relation storage: the paper's 12-byte tuples (4-byte join key + 8-byte
// payload) kept densely packed in main memory.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/assert.h"

namespace cj::rel {

#pragma pack(push, 1)
/// One tuple, exactly 12 bytes as in the paper's experiments. The payload
/// stands in for a row id / rest-of-row reference.
struct Tuple {
  std::uint32_t key;
  std::uint64_t payload;

  friend bool operator==(const Tuple&, const Tuple&) = default;
};
#pragma pack(pop)

static_assert(sizeof(Tuple) == 12, "paper workload uses 12-byte tuples");

/// An in-memory relation (or fragment of one). Move-only value type: copies
/// of multi-gigabyte tables must be explicit (use clone()).
class Relation {
 public:
  Relation() = default;
  explicit Relation(std::string name) : name_(std::move(name)) {}
  Relation(std::string name, std::vector<Tuple> tuples)
      : name_(std::move(name)), tuples_(std::move(tuples)) {}

  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  /// Explicit deep copy.
  Relation clone() const { return Relation(name_, tuples_); }

  const std::string& name() const { return name_; }
  std::size_t rows() const { return tuples_.size(); }
  std::uint64_t bytes() const { return tuples_.size() * sizeof(Tuple); }
  bool empty() const { return tuples_.empty(); }

  std::span<const Tuple> tuples() const { return tuples_; }
  std::span<Tuple> mutable_tuples() { return tuples_; }

  const Tuple& operator[](std::size_t i) const {
    CJ_DCHECK(i < tuples_.size());
    return tuples_[i];
  }

  void reserve(std::size_t n) { tuples_.reserve(n); }
  void push_back(Tuple t) { tuples_.push_back(t); }
  void append(std::span<const Tuple> ts) {
    tuples_.insert(tuples_.end(), ts.begin(), ts.end());
  }

 private:
  std::string name_;
  std::vector<Tuple> tuples_;
};

/// Splits a relation into `n` fragments of near-equal size (contiguous
/// ranges; the paper only assumes the distribution of S is "reasonably
/// even"). Fragment i gets rows [i*rows/n, (i+1)*rows/n).
std::vector<Relation> split_even(const Relation& relation, int n);

/// Fragment i of split_even(relation, n) as a view, without the copy.
std::span<const Tuple> even_share(const Relation& relation, int i, int n);

}  // namespace cj::rel
