#include "relation/text_io.h"

#include <array>
#include <charconv>
#include <cstring>
#include <istream>
#include <map>
#include <ostream>
#include <string_view>
#include <vector>

namespace cqbounds {

namespace {

/// Bytes that would corrupt the line-oriented format if written verbatim
/// inside a token: the tokenizer's separators (whitespace), the comment
/// introducer, the escape character itself, and control characters (which
/// survive a write but make the file hostile to every other tool). The
/// classes are the C locale's isspace/iscntrl, fixed in a table so the
/// writer's inner loop is one load per byte.
constexpr std::array<bool, 256> kNeedsEscape = [] {
  std::array<bool, 256> table{};
  for (int c = 0; c < 0x20; ++c) table[static_cast<std::size_t>(c)] = true;
  table[0x7F] = true;
  for (unsigned char c : {' ', '#', '%'}) table[c] = true;
  return table;
}();

bool NeedsEscape(char c) {
  return kNeedsEscape[static_cast<unsigned char>(c)];
}

/// Appends `spelling` percent-encoded so it survives as one
/// whitespace-delimited token: unsafe bytes become %XX (uppercase hex), and
/// the empty spelling -- which would otherwise vanish between separators --
/// becomes the bare token "%". Runs of safe bytes are appended as they are,
/// so a spelling with nothing to escape is one append and ordinary integer
/// values appear in the file verbatim.
void AppendEscaped(std::string_view spelling, std::string* out) {
  if (spelling.empty()) {
    out->push_back('%');
    return;
  }
  static const char kHex[] = "0123456789ABCDEF";
  std::size_t run = 0;  // start of the pending run of safe bytes
  for (std::size_t i = 0; i < spelling.size(); ++i) {
    if (!NeedsEscape(spelling[i])) continue;
    const unsigned char u = static_cast<unsigned char>(spelling[i]);
    out->append(spelling.data() + run, i - run);
    out->push_back('%');
    out->push_back(kHex[u >> 4]);
    out->push_back(kHex[u & 0xF]);
    run = i + 1;
  }
  out->append(spelling.data() + run, spelling.size() - run);
}

std::string LinePrefix(int line_number) {
  return "line " + std::to_string(line_number) + ": ";
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

/// Inverse of AppendEscaped for a token that contains a '%', decoding into
/// the caller's reused scratch string (escape-free tokens never come here:
/// the reader interns them straight from its buffer). The bare token "%"
/// is the empty spelling. A malformed escape (stray '%' not followed by two
/// hex digits) is a parse error, not silently passed through -- a file
/// containing one was not produced by WriteDatabaseText and guessing at
/// its intent would corrupt the value space silently.
Status UnescapeTokenInto(std::string_view tok, int line_number,
                         std::string* out) {
  out->clear();
  if (tok == "%") return Status::OK();
  for (std::size_t i = 0; i < tok.size(); ++i) {
    if (tok[i] != '%') {
      out->push_back(tok[i]);
      continue;
    }
    if (i + 2 >= tok.size()) {
      return Status::ParseError(LinePrefix(line_number) +
                                "truncated %XX escape in token '" +
                                std::string(tok) + "'");
    }
    const int hi = HexDigit(tok[i + 1]);
    const int lo = HexDigit(tok[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::ParseError(LinePrefix(line_number) +
                                "invalid %XX escape in token '" +
                                std::string(tok) + "'");
    }
    out->push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return Status::OK();
}

/// Relation names are schema identifiers, not data: they appear unescaped
/// in both the declaration line and every tuple line, so a name the
/// tokenizer would split (whitespace), comment away ('#'), mis-decode
/// ('%'), drop (empty) or mistake for the declaration keyword cannot be
/// represented in the format at all. The writer rejects such a name (a
/// silent corrupt-on-write becomes a recoverable error), and so does the
/// reader, so every database it accepts can be written back.
bool IsRepresentableName(std::string_view name) {
  if (name.empty() || name == "relation") return false;
  for (char c : name) {
    if (NeedsEscape(c)) return false;
  }
  return true;
}

Status CheckWritableRelation(const std::string& name, int arity) {
  if (name.empty()) {
    return Status::FailedPrecondition(
        "cannot write relation with empty name");
  }
  if (name == "relation") {
    return Status::FailedPrecondition(
        "cannot write relation named 'relation' (the declaration keyword)");
  }
  if (!IsRepresentableName(name)) {
    return Status::FailedPrecondition(
        "cannot write relation name '" + name +
        "': contains whitespace, '#', '%' or control characters");
  }
  if (arity > kMaxTextArity) {
    return Status::FailedPrecondition(
        "cannot write relation '" + name + "' of arity " +
        std::to_string(arity) + ": the format's limit is " +
        std::to_string(kMaxTextArity));
  }
  return Status::OK();
}

/// The reader: parses `text` in place. Tokens are pointer scans over the
/// caller's buffer (no per-line stream extraction), and an escape-free
/// value token -- the overwhelmingly common case -- is interned straight
/// from the buffer; only a token containing '%' is decoded, into one reused
/// scratch string. Tuple lines are parsed into per-relation flat value
/// buffers (row-major values, one vector per relation) and flushed in one
/// InsertFlat batch per relation at end of input -- a single dedup pass
/// over the appended block instead of a per-tuple hash insert. Errors carry
/// their line numbers (checked during the parse); on error nothing is
/// flushed. Every relation the parse creates is named in `*declared`, so
/// the caller can roll the declarations back.
Status ParseDatabaseText(std::string_view text, Database* db,
                         std::vector<std::string>* declared) {
  struct PendingRows {
    Relation* rel = nullptr;
    std::vector<Value> flat;
    std::size_t rows = 0;
  };
  std::vector<PendingRows> pending;  // in first-tuple-seen relation order
  std::map<Relation*, std::size_t> pending_index;

  const char* p = text.data();
  const char* const buf_end = p + text.size();
  ValuePool* pool = db->value_pool();
  int line_number = 0;
  std::string scratch;
  // Tuple files cluster lines by relation, so one cached (name -> pending
  // slot) pair short-circuits nearly every map lookup. An index, not a
  // pointer: pending reallocates as new relations appear. The name is a
  // view into `text`, which outlives the parse.
  std::string_view last_name;
  std::size_t last_slot = static_cast<std::size_t>(-1);

  // '\n' terminates the line itself and cannot appear here.
  const auto is_sep = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  };

  while (p < buf_end) {
    ++line_number;
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(buf_end - p)));
    const char* const next_line = (nl != nullptr) ? nl + 1 : buf_end;
    const char* line_end = (nl != nullptr) ? nl : buf_end;
    const char* hash = static_cast<const char*>(
        std::memchr(p, '#', static_cast<std::size_t>(line_end - p)));
    if (hash != nullptr) line_end = hash;  // comment runs to end of line

    const auto next_token = [&]() {
      while (p < line_end && is_sep(*p)) ++p;
      const char* tok = p;
      while (p < line_end && !is_sep(*p)) ++p;
      return std::string_view(tok, static_cast<std::size_t>(p - tok));
    };

    const std::string_view first = next_token();
    if (first.empty()) {  // blank (or comment-only) line
      p = next_line;
      continue;
    }

    if (first == "relation") {
      const std::string_view name = next_token();
      const std::string_view ar = next_token();
      const bool trailing = !next_token().empty();
      int arity = -1;
      const auto parsed = std::from_chars(ar.data(), ar.data() + ar.size(),
                                          arity);
      if (name.empty() || ar.empty() || trailing ||
          parsed.ec != std::errc() || parsed.ptr != ar.data() + ar.size() ||
          arity < 0) {
        return Status::ParseError(LinePrefix(line_number) +
                                  "expected 'relation NAME ARITY'");
      }
      if (arity > kMaxTextArity) {
        return Status::ParseError(
            LinePrefix(line_number) + "relation '" + std::string(name) +
            "' declared with arity " + std::to_string(arity) +
            " above the format's limit of " + std::to_string(kMaxTextArity));
      }
      if (!IsRepresentableName(name)) {
        return Status::ParseError(
            LinePrefix(line_number) + "relation name '" + std::string(name) +
            "' cannot be written back: it is the declaration keyword or "
            "contains '%' or control characters");
      }
      scratch.assign(name);
      if (db->Find(scratch) == nullptr) declared->push_back(scratch);
      if (db->AddRelation(scratch, arity) == nullptr) {
        return Status::ParseError(LinePrefix(line_number) + "relation '" +
                                  scratch +
                                  "' re-declared with different arity");
      }
      p = next_line;
      continue;
    }

    std::size_t slot;
    if (last_slot != static_cast<std::size_t>(-1) && last_name == first) {
      slot = last_slot;
    } else {
      scratch.assign(first);
      Relation* rel = db->FindMutable(scratch);
      if (rel == nullptr) {
        return Status::ParseError(LinePrefix(line_number) +
                                  "tuple for undeclared relation '" +
                                  scratch + "'");
      }
      const auto [it, inserted] = pending_index.emplace(rel, pending.size());
      if (inserted) {
        pending.emplace_back();
        pending.back().rel = rel;
      }
      slot = it->second;
      last_name = first;
      last_slot = slot;
    }
    PendingRows& rows = pending[slot];

    std::size_t width = 0;
    for (;;) {
      const std::string_view tok = next_token();
      if (tok.empty()) break;
      if (tok.find('%') == std::string_view::npos) {
        rows.flat.push_back(pool->Intern(tok));
      } else {
        CQB_RETURN_NOT_OK(UnescapeTokenInto(tok, line_number, &scratch));
        rows.flat.push_back(pool->Intern(scratch));
      }
      ++width;
    }
    if (static_cast<int>(width) != rows.rel->arity()) {
      return Status::ParseError(
          LinePrefix(line_number) + "tuple of arity " +
          std::to_string(width) + " for relation '" + rows.rel->name() +
          "' of arity " + std::to_string(rows.rel->arity()));
    }
    ++rows.rows;
    p = next_line;
  }
  for (PendingRows& rows : pending) {
    rows.rel->InsertFlat(rows.flat, rows.rows);
  }
  return Status::OK();
}

/// ParseDatabaseText with the all-or-nothing contract: on error the
/// relations the parse declared are dropped again and the pool is cut back
/// to its size on entry, so `db` is exactly as it was. The success path
/// only pays for taking the mark.
Status ReadInto(std::string_view text, Database* db) {
  const std::size_t pool_mark = db->value_pool()->size();
  std::vector<std::string> declared;
  Status status = ParseDatabaseText(text, db, &declared);
  if (!status.ok()) {
    for (const std::string& name : declared) db->RemoveRelation(name);
    db->value_pool()->Truncate(pool_mark);
  }
  return status;
}

/// The writer: renders `db` into `*out`. Each value is appended from the
/// pool's arena through AppendEscaped, with no string per value.
Status RenderDatabaseText(const Database& db, std::string* out) {
  const ValuePool& pool = db.value_pool();
  const Value pool_size = static_cast<Value>(pool.size());
  for (const auto& [name, rel] : db.relations()) {
    CQB_RETURN_NOT_OK(CheckWritableRelation(name, rel.arity()));
    out->append("relation ");
    out->append(name);
    out->push_back(' ');
    out->append(std::to_string(rel.arity()));
    out->push_back('\n');
    const ColumnStore& store = rel.store();
    for (std::size_t row = 0; row < store.size(); ++row) {
      if (!store.IsLive(row)) continue;
      out->append(name);
      for (int c = 0; c < rel.arity(); ++c) {
        const Value v = store.ValueAt(row, c);
        if (v < 0 || v >= pool_size) {
          // Spelling() would render the "?<id>" fallback, which reads back
          // as a *different* value -- the silent round-trip corruption this
          // error replaces.
          return Status::FailedPrecondition(
              "relation '" + name + "' holds value id " + std::to_string(v) +
              " that was never interned in the database's pool");
        }
        out->push_back(' ');
        AppendEscaped(pool.SpellingView(v), out);
      }
      out->push_back('\n');
    }
  }
  return Status::OK();
}

}  // namespace

Status ReadDatabaseText(std::istream& in, Database* db) {
  // One pass through the stream buffer into one string, then the same
  // in-place parse as the string overload.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::string text;
  if (std::streambuf* buf = in.rdbuf(); buf != nullptr) {
    std::size_t used = 0;
    for (;;) {
      text.resize(used + kChunk);
      const std::streamsize got =
          buf->sgetn(&text[used], static_cast<std::streamsize>(kChunk));
      if (got <= 0) break;
      used += static_cast<std::size_t>(got);
    }
    text.resize(used);
  }
  return ReadInto(text, db);
}

Status ReadDatabaseTextFromString(const std::string& text, Database* db) {
  return ReadInto(text, db);
}

Status WriteDatabaseText(const Database& db, std::ostream& out) {
  std::string text;
  CQB_RETURN_NOT_OK(RenderDatabaseText(db, &text));
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return Status::OK();
}

Result<std::string> WriteDatabaseTextToString(const Database& db) {
  std::string text;
  CQB_RETURN_NOT_OK(RenderDatabaseText(db, &text));
  return text;
}

}  // namespace cqbounds
