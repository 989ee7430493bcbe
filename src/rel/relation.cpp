#include "rel/relation.h"

namespace cj::rel {

std::vector<Relation> split_even(const Relation& relation, int n) {
  CJ_CHECK_MSG(n >= 1, "cannot split into zero fragments");
  std::vector<Relation> fragments;
  fragments.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto slice = even_share(relation, i, n);
    Relation frag(relation.name() + "[" + std::to_string(i) + "]");
    frag.reserve(slice.size());
    frag.append(slice);
    fragments.push_back(std::move(frag));
  }
  return fragments;
}

std::span<const Tuple> even_share(const Relation& relation, int i, int n) {
  CJ_CHECK_MSG(n >= 1 && i >= 0 && i < n, "fragment index out of range");
  const std::size_t rows = relation.rows();
  const auto parts = static_cast<std::size_t>(n);
  const std::size_t begin = rows * static_cast<std::size_t>(i) / parts;
  const std::size_t end = rows * (static_cast<std::size_t>(i) + 1) / parts;
  return relation.tuples().subspan(begin, end - begin);
}

}  // namespace cj::rel
