// Tuple-keyed std containers in library code: each spends a heap node and
// a heap Tuple per key where the slot table spends a few bytes.
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "relation/tuple.h"

namespace cqbounds {

struct Books {
  std::map<Tuple, Value> first;  // LINT-EXPECT: tuple-keyed-container
  std::set<Tuple> seen;  // LINT-EXPECT: tuple-keyed-container
  std::unordered_map<Tuple, int, TupleKeyHash> counts;  // LINT-EXPECT: tuple-keyed-container
  std::unordered_set<const Tuple, TupleKeyHash> keys;  // LINT-EXPECT: tuple-keyed-container
  std::multimap<cqbounds::Tuple, int> rows;  // LINT-EXPECT: tuple-keyed-container
  std::map< std::vector< Value >, int> spelled;  // LINT-EXPECT: tuple-keyed-container
};

}  // namespace cqbounds
