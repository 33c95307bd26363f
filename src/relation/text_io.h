#ifndef CQBOUNDS_RELATION_TEXT_IO_H_
#define CQBOUNDS_RELATION_TEXT_IO_H_

#include <iosfwd>
#include <string>

#include "relation/database.h"
#include "util/status.h"

namespace cqbounds {

/// Plain-text database format, for shipping example instances and for the
/// worst_case_db CLI's output to be re-loadable:
///
///   # comment
///   relation R 3         # declares R with arity 3
///   R a b c              # one tuple (values are whitespace-separated
///   R a b d              #  tokens, interned via the database's pool)
///   relation S 1
///   S x
///
/// Values that parse as plain integers are interned as their spelling, so
/// round-trips preserve identity (equality of tokens == equality of
/// values). Spellings get pool ids in first-seen order over the text.
///
/// Value tokens are percent-encoded: a spelling containing whitespace, '#',
/// '%' or control characters is written with those bytes as %XX escapes (an
/// empty spelling is the bare token "%"), and the reader decodes them back,
/// so *every* interned spelling round-trips byte-exact. Ordinary spellings
/// contain none of those bytes and are written verbatim, so existing files
/// are unaffected; a stray '%' in a hand-written file that is not a valid
/// escape is a kParseError rather than a silent guess.

/// The largest arity a relation may declare in the format. A declared
/// arity sizes the relation's column array before any tuple is read, so an
/// unbounded one lets a single hostile header line exhaust memory.
inline constexpr int kMaxTextArity = 4096;

/// Reads the format into `db`. The string overload parses the caller's
/// buffer in place; the stream overload reads the stream once and parses
/// the same way. Errors are kParseError with the offending line number:
/// malformed declarations, an arity above kMaxTextArity, a relation name
/// the writer could not write back (the keyword "relation", or one
/// containing '%' or control characters), undeclared relations, arity
/// mismatches and malformed escapes -- including a declaration line with
/// tokens after its arity. On error `db` is unchanged: no tuple is
/// inserted, every relation the call declared is dropped again, and every
/// spelling it interned is cut from the pool, so a retry mints the same ids
/// a fresh read would.
Status ReadDatabaseText(std::istream& in, Database* db);
Status ReadDatabaseTextFromString(const std::string& text, Database* db);

/// Writes `db` in the same format (relations sorted by name, tuples in
/// insertion order, values spelled via the pool, hostile spellings
/// percent-encoded as above). Errors with kFailedPrecondition -- instead of
/// emitting a file that reads back as different data -- when a tuple holds
/// a value id never interned in the database's pool (previously rendered as
/// the "?<id>" fallback spelling), when a relation's arity exceeds
/// kMaxTextArity, or when a relation *name* cannot be represented: names
/// appear unescaped in the format, so an empty name, the literal name
/// "relation", or a name containing whitespace/'#'/'%'/control characters
/// is unwritable. The text is rendered into one string first, so on error
/// nothing is written to `out`.
Status WriteDatabaseText(const Database& db, std::ostream& out);
Result<std::string> WriteDatabaseTextToString(const Database& db);

}  // namespace cqbounds

#endif  // CQBOUNDS_RELATION_TEXT_IO_H_
