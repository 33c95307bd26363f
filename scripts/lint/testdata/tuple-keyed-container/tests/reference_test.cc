// Out of scope: tests compare against an ordered std::map reference.
#include <map>

#include "relation/tuple.h"

namespace cqbounds {

std::map<Tuple, Value> Reference();

}  // namespace cqbounds
