// Good twin: a Tuple as the mapped value, pointer keys, other key types,
// and a mention inside a comment -- std::map<Tuple, int> -- do not match.
#include <map>
#include <set>
#include <string>
#include <vector>

#include "relation/key_index.h"
#include "relation/tuple.h"

namespace cqbounds {

struct Fine {
  std::map<int, Tuple> by_id;
  std::set<const Tuple*> pointers;
  std::map<std::string, std::vector<Tuple>> by_name;
  std::map<std::vector<int>, int> layouts;
  KeyCounts counts;
  const char* text = "std::set<Tuple>";
};

}  // namespace cqbounds
