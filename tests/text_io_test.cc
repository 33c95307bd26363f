#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cq/parser.h"
#include "relation/evaluate.h"
#include "relation/text_io.h"
#include "util/rng.h"

namespace cqbounds {
namespace {

/// Empty when `a` and `b` have the same pool (ids and spellings) and the
/// same relations holding the same value ids row for row; otherwise the
/// first difference.
std::string DiffDatabases(const Database& a, const Database& b) {
  const ValuePool& pa = a.value_pool();
  const ValuePool& pb = b.value_pool();
  if (pa.size() != pb.size()) return "pool sizes differ";
  for (std::size_t id = 0; id < pa.size(); ++id) {
    const Value v = static_cast<Value>(id);
    if (pa.SpellingView(v) != pb.SpellingView(v)) {
      return "spelling of id " + std::to_string(id) + " differs";
    }
  }
  if (a.relations().size() != b.relations().size()) {
    return "relation counts differ";
  }
  auto ib = b.relations().begin();
  for (const auto& [name, rel] : a.relations()) {
    const Relation& other = (ib++)->second;
    if (name != other.name() || rel.arity() != other.arity() ||
        rel.store().size() != other.store().size()) {
      return "relation '" + name + "' differs in name, arity or size";
    }
    for (std::size_t row = 0; row < rel.store().size(); ++row) {
      if (rel.store().Row(row) != other.store().Row(row)) {
        return "relation '" + name + "' row " + std::to_string(row) +
               " differs";
      }
    }
  }
  return "";
}

/// Reads `text` into `*db` through the string entry point, storing its
/// status in `*status`, and into a second database through the stream
/// entry point. Empty when both returned the same status and left the same
/// database behind (on error too); otherwise the difference.
std::string ReaderDisagreement(const std::string& text, Database* db,
                               Status* status) {
  *status = ReadDatabaseTextFromString(text, db);
  Database streamed;
  std::istringstream in(text);
  const Status from_stream = ReadDatabaseText(in, &streamed);
  if (!(from_stream == *status)) {
    return "stream status " + from_stream.ToString() + " vs string status " +
           status->ToString();
  }
  return DiffDatabases(*db, streamed);
}

/// ReaderDisagreement as a test expectation; returns the status.
Status ReadBothWays(const std::string& text, Database* db) {
  Status status;
  EXPECT_EQ(ReaderDisagreement(text, db, &status), "") << "text: " << text;
  return status;
}

TEST(TextIoTest, ParseBasicDatabase) {
  Database db;
  Status status = ReadDatabaseTextFromString(
      "# a comment\n"
      "relation R 2\n"
      "R a b\n"
      "R a c   # trailing comment\n"
      "\n"
      "relation S 1\n"
      "S a\n",
      &db);
  ASSERT_TRUE(status.ok()) << status;
  const Relation* r = db.Find("R");
  const Relation* s = db.Find("S");
  ASSERT_NE(r, nullptr);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(r->size(), 2u);
  EXPECT_EQ(s->size(), 1u);
  // "a" means the same value in both relations.
  EXPECT_EQ(r->tuples()[0][0], s->tuples()[0][0]);
}

TEST(TextIoTest, Errors) {
  // The reader's diagnostics, pinned verbatim, through both entry points.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"relation R\n", "line 1: expected 'relation NAME ARITY'"},
      {"relation R -1\n", "line 1: expected 'relation NAME ARITY'"},
      {"relation R 2x\n", "line 1: expected 'relation NAME ARITY'"},
      {"relation R 99999999999\n", "line 1: expected 'relation NAME ARITY'"},
      {"relation R 2 junk\n", "line 1: expected 'relation NAME ARITY'"},
      {"relation R 2\t#ok\nrelation S 1 1\n",
       "line 2: expected 'relation NAME ARITY'"},
      {"R a b\n", "line 1: tuple for undeclared relation 'R'"},
      {"relation R 2\nR a\n",
       "line 2: tuple of arity 1 for relation 'R' of arity 2"},
      {"relation R 2\nrelation R 3\n",
       "line 2: relation 'R' re-declared with different arity"},
      {"relation R 1\nR %4\n", "line 2: truncated %XX escape in token '%4'"},
      {"relation R 1\nR %zz\n", "line 2: invalid %XX escape in token '%zz'"},
      {"relation R 1\nR a%\n", "line 2: truncated %XX escape in token 'a%'"},
      // Comment-only and blank lines count; CRLF ends are one line each.
      {"# header\n\n   # indented\nrelation R 1\r\nR a\r\nR a b\r\n",
       "line 6: tuple of arity 2 for relation 'R' of arity 1"},
      {"relation R 1\nR a\nS b", "line 3: tuple for undeclared relation 'S'"},
  };
  for (const auto& [text, message] : cases) {
    Database db;
    const Status status = ReadBothWays(text, &db);
    EXPECT_EQ(status.code(), StatusCode::kParseError) << text;
    EXPECT_EQ(status.message(), message) << text;
  }
}

TEST(TextIoTest, StringAndStreamReadersAgree) {
  const std::vector<std::string> texts = {
      // Hostile percent-escaped spellings, including every escape class.
      "relation R 2\nR %20%09 %25%23\nR % a%00b\nR %0A%0D %7F%41\n"
      "R %e9%FF plain\n",
      // A bare '%' (the empty spelling) in every column.
      "relation T 3\nT % % %\nT a % b\n",
      // No final newline.
      "relation E 2\nE 1 2\nE 2 3",
      // CRLF line ends and trailing separators.
      "relation E 2\r\nE 1 2\r\nE 2 3 \t\r\n",
      // Comment-only lines, trailing comments and a nullary relation.
      "# only a comment\n#\nrelation Nil 0\nrelation E 2  # edges\n"
      "E x y # first\n# between\nE y x\nNil\n",
      // Repeated tuples and relations interleaved line by line.
      "relation A 1\nrelation B 1\nA 1\nB 1\nA 2\nB 1\nA 1\n",
      "",
  };
  for (const std::string& text : texts) {
    Database db;
    const Status status = ReadBothWays(text, &db);
    EXPECT_TRUE(status.ok()) << status << "\ntext: " << text;
  }

  // A failed read leaves the database exactly as it was -- relations,
  // pool size and spellings -- through either reader, even when it had
  // declared relations and interned spellings before the bad line. A retry
  // then mints the same ids as a read into a database that never saw the
  // failure.
  const std::string prior = "relation Old 1\nOld keep\nOld %20\n";
  const std::vector<std::string> failing = {
      "relation New 2\nNew a b\nNew c\n",
      "relation New 1\nNew fresh\nOld also\nrelation Old 2\n",
      "Old x\nOld y\nUndeclared z\n",
      "relation A 1\nrelation B 1\nA a1\nB b1\nB %zz\n",
      "relation Old 1 junk\n",
  };
  const std::string retry = "relation New 1\nNew b\nOld a\nNew keep\n";
  for (const std::string& bad : failing) {
    for (const bool stream : {false, true}) {
      Database db;
      ASSERT_TRUE(ReadDatabaseTextFromString(prior, &db).ok());
      Database before;
      ASSERT_TRUE(ReadDatabaseTextFromString(prior, &before).ok());
      const std::size_t pool_size = db.value_pool()->size();
      std::istringstream in(bad);
      const Status status = stream ? ReadDatabaseText(in, &db)
                                   : ReadDatabaseTextFromString(bad, &db);
      ASSERT_EQ(status.code(), StatusCode::kParseError) << bad;
      EXPECT_EQ(db.value_pool()->size(), pool_size) << bad;
      EXPECT_EQ(DiffDatabases(db, before), "") << bad;
      ASSERT_TRUE(ReadDatabaseTextFromString(retry, &db).ok()) << bad;
      ASSERT_TRUE(ReadDatabaseTextFromString(retry, &before).ok()) << bad;
      EXPECT_EQ(DiffDatabases(db, before), "") << bad;
    }
  }
}

TEST(TextIoTest, ReadRejectsArityAboveTheLimit) {
  // The declared arity sizes the column array before any tuple is read,
  // so it is bounded: one over the limit is a parse error on its line.
  Database db;
  const Status status = ReadBothWays(
      "# big\nrelation R " + std::to_string(kMaxTextArity + 1) + "\n", &db);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_EQ(status.message().rfind("line 2: ", 0), 0u) << status;
  EXPECT_EQ(db.Find("R"), nullptr);

  // The limit itself is accepted, and such a relation round-trips.
  std::string text = "relation W " + std::to_string(kMaxTextArity) + "\nW";
  for (int c = 0; c < kMaxTextArity; ++c) text += " v" + std::to_string(c);
  text += "\n";
  Database wide;
  ASSERT_TRUE(ReadBothWays(text, &wide).ok());
  ASSERT_EQ(wide.Find("W")->size(), 1u);
  auto rendered = WriteDatabaseTextToString(wide);
  ASSERT_TRUE(rendered.ok()) << rendered.status();
  EXPECT_EQ(*rendered, text);
}

TEST(TextIoTest, WriteRejectsArityAboveTheLimit) {
  Database db;
  db.AddRelation("R", kMaxTextArity + 1);
  auto rendered = WriteDatabaseTextToString(db);
  ASSERT_FALSE(rendered.ok());
  EXPECT_EQ(rendered.status().code(), StatusCode::kFailedPrecondition);
  std::ostringstream out;
  EXPECT_EQ(WriteDatabaseText(db, out).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(out.str().empty());  // nothing is written on error
}

TEST(TextIoTest, ReadRejectsNamesTheWriterCannotWrite) {
  // Every database the reader accepts can be written back, so a declared
  // name the writer would refuse is refused here, with its line number.
  for (const std::string& name :
       {std::string("relation"), std::string("R%41"), std::string("R\x01"),
        std::string("R\x7F")}) {
    Database db;
    const Status status =
        ReadBothWays("relation E 1\nrelation " + name + " 1\n", &db);
    EXPECT_EQ(status.code(), StatusCode::kParseError) << name;
    EXPECT_EQ(status.message().rfind("line 2: ", 0), 0u) << status;
  }
}

TEST(TextIoTest, RoundTrip) {
  Database db;
  ASSERT_TRUE(ReadDatabaseTextFromString(
                  "relation E 2\nE 1 2\nE 2 3\nE 3 1\n", &db)
                  .ok());
  auto rendered = WriteDatabaseTextToString(db);
  ASSERT_TRUE(rendered.ok()) << rendered.status();
  Database again;
  ASSERT_TRUE(ReadDatabaseTextFromString(*rendered, &again).ok());
  auto rendered_again = WriteDatabaseTextToString(again);
  ASSERT_TRUE(rendered_again.ok()) << rendered_again.status();
  EXPECT_EQ(*rendered_again, *rendered);
  EXPECT_EQ(again.Find("E")->size(), 3u);
}

TEST(TextIoTest, HostileSpellingsRoundTrip) {
  // Spellings containing the format's own separators and special
  // characters: whitespace (would split into two tokens), '#' (everything
  // after it is stripped as a comment), '%' (the escape character), the
  // empty string (would vanish between separators), and a spelling that
  // *looks* like an escape. All must come back byte-exact.
  const std::vector<std::string> hostile = {
      "a b",  "with\ttab", "trail#comment", "50%", "%41", "", "new\nline",
  };
  Database db;
  Relation* r = db.AddRelation("R", 2);
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    r->Insert({db.value_pool()->Intern(hostile[i]),
               db.value_pool()->Intern("plain" + std::to_string(i))});
  }
  auto rendered = WriteDatabaseTextToString(db);
  ASSERT_TRUE(rendered.ok()) << rendered.status();

  Database again;
  ASSERT_TRUE(ReadDatabaseTextFromString(*rendered, &again).ok());
  const Relation* rr = again.Find("R");
  ASSERT_NE(rr, nullptr);
  ASSERT_EQ(rr->size(), hostile.size());
  // Every hostile spelling must exist in the reloaded pool with identical
  // bytes, paired with its original partner.
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    const Tuple t = rr->store().Row(i);
    EXPECT_EQ(again.value_pool()->Spelling(t[0]), hostile[i]) << i;
    EXPECT_EQ(again.value_pool()->Spelling(t[1]), "plain" + std::to_string(i));
  }
  // And a second render is byte-identical (the escaping is canonical).
  auto rendered_again = WriteDatabaseTextToString(again);
  ASSERT_TRUE(rendered_again.ok()) << rendered_again.status();
  EXPECT_EQ(*rendered_again, *rendered);
}

TEST(TextIoTest, WriteRejectsUninternedValueIds) {
  Database db;
  Relation* r = db.AddRelation("R", 1);
  // A value id minted outside the database's pool: Spelling() would render
  // the "?<id>" fallback, which reads back as a different value.
  r->Insert({Value{42}});
  auto rendered = WriteDatabaseTextToString(db);
  ASSERT_FALSE(rendered.ok());
  EXPECT_EQ(rendered.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TextIoTest, WriteRejectsUnrepresentableRelationNames) {
  // Relation names appear unescaped in the format, so these can never be
  // read back as written: whitespace splits the token, '#' comments out
  // the rest of the line, and "relation" is the declaration keyword.
  for (const std::string& name :
       {std::string("has space"), std::string("has#hash"), std::string(""),
        std::string("relation")}) {
    Database db;
    db.AddRelation(name, 1);
    auto rendered = WriteDatabaseTextToString(db);
    ASSERT_FALSE(rendered.ok()) << "name '" << name << "' accepted";
    EXPECT_EQ(rendered.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(TextIoTest, ReadRejectsMalformedEscapes) {
  for (const std::string& text :
       {std::string("relation R 1\nR %4\n"),     // truncated escape
        std::string("relation R 1\nR %zz\n"),    // non-hex digits
        std::string("relation R 1\nR a%\n")}) {  // trailing stray '%'
    Database db;
    EXPECT_EQ(ReadDatabaseTextFromString(text, &db).code(),
              StatusCode::kParseError)
        << text;
  }
}

TEST(TextIoTest, BulkRoundTripAtAHundredThousandTuples) {
  // The streamed-ingestion fast path at scale: 10^5 tuples across two
  // relations render, re-read through the whole-file tokenizer (one
  // InsertFlat per relation), and come back byte-exact -- same live
  // cardinalities, identical second render. Duplicate source lines and a
  // hostile spelling ride along so the dedup and escape paths are
  // exercised inside the bulk batch, not just in the small tests above.
  constexpr int kRows = 50000;  // per relation
  std::ostringstream text;
  text << "relation E 2\nrelation F 2\n";
  for (int i = 0; i < kRows; ++i) {
    text << "E v" << i << " v" << (i + 1) << "\n";
    text << "F v" << (i % 1000) << " w" << i << "\n";
  }
  text << "E v0 v1\n";        // duplicate: set semantics absorb it
  text << "F %20 plain\n";    // escaped spelling (" ") in the bulk batch
  Database db;
  ASSERT_TRUE(ReadDatabaseTextFromString(text.str(), &db).ok());
  const Relation* e = db.Find("E");
  const Relation* f = db.Find("F");
  ASSERT_NE(e, nullptr);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(e->size(), static_cast<std::size_t>(kRows));
  EXPECT_EQ(f->size(), static_cast<std::size_t>(kRows) + 1);
  EXPECT_TRUE(f->Contains({db.value_pool()->Intern(" "),
                           db.value_pool()->Intern("plain")}));

  auto rendered = WriteDatabaseTextToString(db);
  ASSERT_TRUE(rendered.ok()) << rendered.status();
  Database again;
  ASSERT_TRUE(ReadDatabaseTextFromString(*rendered, &again).ok());
  EXPECT_EQ(again.Find("E")->size(), e->size());
  EXPECT_EQ(again.Find("F")->size(), f->size());
  auto rendered_again = WriteDatabaseTextToString(again);
  ASSERT_TRUE(rendered_again.ok()) << rendered_again.status();
  EXPECT_EQ(*rendered_again, *rendered);
}

TEST(TextIoTest, LoadedDatabaseIsQueryable) {
  Database db;
  ASSERT_TRUE(ReadDatabaseTextFromString(
                  "relation E 2\n"
                  "E a b\nE b c\nE c a\n"   // a triangle
                  "E c d\n",
                  &db)
                  .ok());
  auto q = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  ASSERT_TRUE(q.ok());
  auto result = EvaluateQuery(*q, db, PlanKind::kJoinProject);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);  // the triangle in its 3 rotations
}

TEST(TextIoTest, ZeroArityRelation) {
  Database db;
  ASSERT_TRUE(ReadDatabaseTextFromString("relation Nil 0\nNil\n", &db).ok());
  EXPECT_EQ(db.Find("Nil")->size(), 1u);  // the empty tuple
}

// --- Deterministic mutation driver -----------------------------------------
//
// A seeded, self-contained stand-in for a fuzzer: byte- and line-level
// mutants of a few seed texts go through the reader, and each must either
// be rejected with a parse error or be accepted as a database that the
// writer renders and that renders again byte-exact after a re-read. Both
// reader entry points must agree on every mutant. Runs with the rest of
// the suite, so the sanitizer builds cover it too.

/// `bytes` with every non-printable byte shown as \xHH, for failure output.
std::string Visible(const std::string& bytes) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7F && c != '\\') {
      out += c;
    } else {
      out += "\\x";
      out += kHex[u >> 4];
      out += kHex[u & 0xF];
    }
  }
  return out;
}

/// Name, arity and live rows as spellings, relation by relation: what a
/// write/read cycle must keep, since it renumbers ids.
std::string SpelledContents(const Database& db) {
  std::string out;
  for (const auto& [name, rel] : db.relations()) {
    out += name + "/" + std::to_string(rel.arity()) + ":";
    const ColumnStore& store = rel.store();
    for (std::size_t row = 0; row < store.size(); ++row) {
      if (!store.IsLive(row)) continue;
      out += "(";
      for (int c = 0; c < rel.arity(); ++c) {
        out += Visible(db.value_pool().Spelling(store.ValueAt(row, c)));
        out += ",";
      }
      out += ")";
    }
    out += "\n";
  }
  return out;
}

/// Empty when the mutant passes; otherwise what went wrong. `*accepted`
/// says whether the reader accepted it.
std::string CheckMutant(const std::string& text, bool* accepted) {
  Database db;
  Status status;
  const std::string disagreement = ReaderDisagreement(text, &db, &status);
  if (!disagreement.empty()) return "readers disagree: " + disagreement;
  *accepted = status.ok();
  if (!status.ok()) {
    return status.code() == StatusCode::kParseError
               ? ""
               : "rejected with a non-parse error: " + status.ToString();
  }
  const Result<std::string> written = WriteDatabaseTextToString(db);
  if (!written.ok()) {
    return "accepted but unwritable: " + written.status().ToString();
  }
  Database again;
  const Status reread = ReadDatabaseTextFromString(*written, &again);
  if (!reread.ok()) return "written text rejected: " + reread.ToString();
  const Result<std::string> rewritten = WriteDatabaseTextToString(again);
  if (!rewritten.ok()) return "re-read unwritable";
  if (*rewritten != *written) return "second render differs";
  if (SpelledContents(again) != SpelledContents(db)) {
    return "contents changed across the round trip";
  }
  return "";
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines(1);
  for (char c : text) {
    if (c == '\n') {
      lines.emplace_back();
    } else {
      lines.back() += c;
    }
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string text;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) text += '\n';
    text += lines[i];
  }
  return text;
}

/// One to four random edits of `seed`: bytes overwritten, inserted or
/// erased (random bytes and the format's own special bytes and tokens),
/// lines duplicated, erased or swapped, or the text cut short.
std::string Mutate(const std::string& seed, Rng* rng) {
  // The separators, the comment and escape bytes, digits, hex letters,
  // control bytes, a non-ASCII byte and NUL.
  static const std::string kBytes(" \t\r\n#%-+09AFaf\x01\x7f\xff\0", 18);
  static const std::vector<std::string> kTokens = {
      "relation ", "%", "%2", "%41", "%%", "#", " 4097", "\r\n", "R ",
      " 99999999999", "relation Q 0\n", " 0", "\n\n"};
  std::string text = seed;
  const int edits = 1 + static_cast<int>(rng->NextBelow(4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = rng->NextBelow(text.size() + 1);
    switch (rng->NextBelow(9)) {
      case 0:
        if (at < text.size()) {
          text[at] = static_cast<char>(rng->NextBelow(256));
        }
        break;
      case 1:
        if (at < text.size()) {
          text[at] = kBytes[rng->NextBelow(kBytes.size())];
        }
        break;
      case 2:
        text.insert(at, 1, kBytes[rng->NextBelow(kBytes.size())]);
        break;
      case 3:
        text.insert(at, kTokens[rng->NextBelow(kTokens.size())]);
        break;
      case 4:
        if (at < text.size()) text.erase(at, 1 + rng->NextBelow(3));
        break;
      case 5:
        text.resize(at);
        break;
      default: {
        std::vector<std::string> lines = SplitLines(text);
        const std::size_t i = rng->NextBelow(lines.size());
        const std::size_t j = rng->NextBelow(lines.size());
        const std::uint64_t op = rng->NextBelow(3);
        if (op == 0) {
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(j),
                       lines[i]);
        } else if (op == 1) {
          lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          std::swap(lines[i], lines[j]);
        }
        text = JoinLines(lines);
        break;
      }
    }
  }
  return text;
}

TEST(TextIoMutationTest, MutantsAreRejectedOrRoundTripByteExact) {
  const std::vector<std::string> seeds = {
      // Escapes of every class, comments, blank lines, two relations.
      "# seed one\nrelation E 2\nrelation F 3\nE 1 2\nE 2 3 # chord\n\n"
      "F a%20b % %25\nF %0A %23x %7F\nE 3 1\n",
      // CRLF ends, a nullary relation, no final newline.
      "relation Nil 0\r\nrelation R 1\r\nNil\r\nR 42\r\nR -7\r\nR 42",
      // Decimal spellings sharing prefixes, relations interleaved.
      "relation A 2\nrelation B 2\nA 100 1000\nB 1000 10000\nA 10 100\n"
      "B 1 10\nA 100 1000\nB 10000 100000\n",
  };
  constexpr int kMutantsPerSeed = 3000;
  Rng rng(1515);
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    int accepted_count = 0;
    for (int m = 0; m < kMutantsPerSeed; ++m) {
      const std::string mutant = Mutate(seeds[s], &rng);
      bool accepted = false;
      const std::string failure = CheckMutant(mutant, &accepted);
      ASSERT_EQ(failure, "") << "seed " << s << " mutant " << m << ": "
                             << Visible(mutant);
      accepted_count += accepted ? 1 : 0;
    }
    // Both outcomes are exercised: the driver is not all noise or all
    // harmless edits.
    EXPECT_GT(accepted_count, kMutantsPerSeed / 10) << "seed " << s;
    EXPECT_LT(accepted_count, kMutantsPerSeed * 9 / 10) << "seed " << s;
  }
}

}  // namespace
}  // namespace cqbounds
