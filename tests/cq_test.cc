#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "cq/chase.h"
#include "cq/parser.h"
#include "cq/query.h"
#include "relation/evaluate.h"
#include "relation/generator.h"
#include "util/rng.h"

namespace cqbounds {
namespace {

TEST(ParserTest, TriangleQuery) {
  auto result = ParseQuery("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).");
  ASSERT_TRUE(result.ok()) << result.status();
  const Query& q = *result;
  EXPECT_EQ(q.head_relation(), "S");
  EXPECT_EQ(q.head_vars().size(), 3u);
  EXPECT_EQ(q.atoms().size(), 3u);
  EXPECT_EQ(q.num_variables(), 3);
  EXPECT_EQ(q.Rep(), 3);  // R appears three times
  EXPECT_TRUE(q.fds().empty());
}

TEST(ParserTest, FdAndKeyDeclarations) {
  auto result = ParseQuery(
      "Q(X,Y) :- R(X,Y,Z), S(X,Y).\n"
      "fd R: 1 -> 2.\n"
      "fd R: 1,2 -> 3.\n"
      "key S: 1.");
  ASSERT_TRUE(result.ok()) << result.status();
  const Query& q = *result;
  ASSERT_EQ(q.fds().size(), 3u);
  EXPECT_EQ(q.fds()[0], (FunctionalDependency{"R", {0}, 1}));
  EXPECT_EQ(q.fds()[1], (FunctionalDependency{"R", {0, 1}, 2}));
  EXPECT_EQ(q.fds()[2], (FunctionalDependency{"S", {0}, 1}));
  EXPECT_FALSE(q.AllFdsSimple());
}

TEST(ParserTest, CommentsAndWhitespace) {
  auto result = ParseQuery(
      "# the triangle\n"
      "  S(X, Y) :-  R( X , Y ).  # inline\n");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->atoms().size(), 1u);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("S(X,Y)").ok());                     // no body
  EXPECT_FALSE(ParseQuery("S(X) :- R(X)").ok());               // missing dot
  EXPECT_FALSE(ParseQuery("S(W) :- R(X).").ok());              // head not in body
  EXPECT_FALSE(ParseQuery("S(X) :- R(X), R(X,Y).").ok());      // arity clash
  EXPECT_FALSE(ParseQuery("S(X) :- R(X). fd T: 1 -> 1.").ok());  // unknown rel
  EXPECT_FALSE(ParseQuery("S(X) :- R(X). fd R: 0 -> 1.").ok());  // 0-based pos
  EXPECT_FALSE(ParseQuery("S(X) :- R(X). fd R: 1 -> 2.").ok());  // pos > arity
  EXPECT_FALSE(ParseQuery("S(X) :- R(X). key T: 1.").ok());
}

TEST(ParserTest, RoundTripThroughToString) {
  const std::string text =
      "Q(X,Y) :- R(X,Z), S(Z,Y). fd R: 1 -> 2. fd S: 1,2 -> 1.";
  auto first = ParseQuery(text);
  ASSERT_TRUE(first.ok());
  auto second = ParseQuery(first->ToString());
  ASSERT_TRUE(second.ok()) << second.status() << " for " << first->ToString();
  EXPECT_EQ(first->ToString(), second->ToString());
}

/// Splits query text into the parser's tokens -- identifiers, numbers,
/// the multi-byte operators and single bytes -- keeping whitespace and
/// comments as tokens of their own, so joining the tokens restores the text.
std::vector<std::string> QueryTokens(const std::string& text) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  const auto word = [&text](std::size_t at) {
    return at < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[at])) ||
            text[at] == '_' || text[at] == '\'');
  };
  while (i < text.size()) {
    std::size_t j = i + 1;
    if (word(i)) {
      while (word(j)) ++j;
    } else if (text.compare(i, 2, ":-") == 0 || text.compare(i, 2, "->") == 0) {
      j = i + 2;
    } else if (text[i] == '#') {
      while (j < text.size() && text[j] != '\n') ++j;
    }
    tokens.push_back(text.substr(i, j - i));
    i = j;
  }
  return tokens;
}

/// One to four random edits of `seed`: at the grammar level (tokens and
/// token runs deleted, duplicated, moved or replaced by other tokens of
/// the language) or at the byte level (bytes overwritten, inserted or
/// erased, the text cut short).
std::string MutateQuery(const std::string& seed, Rng* rng) {
  static const std::vector<std::string> kTokens = {
      "X", "Y", "Z", "W'", "_v", "R", "S", "Q", "fd", "key", "(", ")", ",",
      ".", ":", ":-", "->", " ", "\n", "# c\n", "0", "1", "2", "3", "10",
      "2147483647", "2147483648", "99999999999999999999", "R(X,Y)", "()"};
  static const char kByteList[] = "():-,.>#_'\n\t 0129AZaz\x01\x7f\xff";
  // The listed bytes and NUL.
  static const std::string kBytes(kByteList, sizeof(kByteList));
  std::vector<std::string> tokens = QueryTokens(seed);
  const int edits = 1 + static_cast<int>(rng->NextBelow(4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t n = tokens.size();
    const std::size_t at = rng->NextBelow(n + 1);
    const std::size_t len = 1 + rng->NextBelow(6);
    switch (rng->NextBelow(8)) {
      case 0:  // delete a token run
        if (at < n) {
          tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(at),
                       tokens.begin() +
                           static_cast<std::ptrdiff_t>(std::min(n, at + len)));
        }
        break;
      case 1: {  // copy a token run elsewhere
        if (at >= n) break;
        const std::vector<std::string> run(
            tokens.begin() + static_cast<std::ptrdiff_t>(at),
            tokens.begin() +
                static_cast<std::ptrdiff_t>(std::min(n, at + len)));
        const std::size_t to = rng->NextBelow(n + 1);
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(to),
                      run.begin(), run.end());
        break;
      }
      case 2:  // swap two tokens
        if (n > 0) {
          std::swap(tokens[rng->NextBelow(n)], tokens[rng->NextBelow(n)]);
        }
        break;
      case 3:  // replace a token
        if (at < n) tokens[at] = kTokens[rng->NextBelow(kTokens.size())];
        break;
      case 4:  // insert a token
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(at),
                      kTokens[rng->NextBelow(kTokens.size())]);
        break;
      default: {  // byte-level edit of the joined text
        std::string text;
        for (const std::string& t : tokens) text += t;
        const std::size_t b = rng->NextBelow(text.size() + 1);
        switch (rng->NextBelow(4)) {
          case 0:
            if (b < text.size()) {
              text[b] = static_cast<char>(rng->NextBelow(256));
            }
            break;
          case 1:
            text.insert(b, 1, kBytes[rng->NextBelow(kBytes.size())]);
            break;
          case 2:
            if (b < text.size()) text.erase(b, 1 + rng->NextBelow(3));
            break;
          default:
            text.resize(b);
            break;
        }
        tokens = QueryTokens(text);
        break;
      }
    }
  }
  std::string text;
  for (const std::string& t : tokens) text += t;
  return text;
}

TEST(ParserMutationTest, MutantsAreRejectedOrRoundTrip) {
  // Query text is outside input: a mutant must come back as an error
  // Status, or parse into a query that prints, re-parses and prints the
  // same text again. It must never crash or hang.
  const std::vector<std::string> seeds = {
      "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).",
      "Q(X,Y) :- R(X,Y,Z), S(X,Y).\nfd R: 1 -> 2.\nfd R: 1,2 -> 3.\n"
      "key S: 1.",
      "# a comment\n  P(A) :-  E( A , B' ), E(B', _c). # inline\n",
      "B() :- R(), T(X, X).  key T: 2.",
  };
  constexpr int kMutantsPerSeed = 4000;
  Rng rng(606);
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    ASSERT_TRUE(ParseQuery(seeds[s]).ok()) << seeds[s];
    int accepted = 0;
    for (int m = 0; m < kMutantsPerSeed; ++m) {
      const std::string mutant = MutateQuery(seeds[s], &rng);
      const Result<Query> parsed = ParseQuery(mutant);
      if (!parsed.ok()) continue;
      ++accepted;
      const std::string text = parsed->ToString();
      const Result<Query> again = ParseQuery(text);
      ASSERT_TRUE(again.ok()) << "seed " << s << " mutant " << m << ": "
                              << mutant << "\nprints " << text
                              << "\nwhich fails: " << again.status();
      ASSERT_EQ(again->ToString(), text)
          << "seed " << s << " mutant " << m << ": " << mutant;
    }
    // Both outcomes are exercised: most mutants are malformed, but a few
    // percent parse and go through the round trip.
    EXPECT_GT(accepted, kMutantsPerSeed / 100) << "seed " << s;
    EXPECT_LT(accepted, kMutantsPerSeed / 2) << "seed " << s;
  }
}

TEST(ParserTest, RejectsOverlongPositions) {
  // Positions too large for an int are a parse error, not an exception.
  for (const char* text :
       {"S(X) :- R(X). fd R: 99999999999 -> 1.",
        "S(X) :- R(X). key R: 2147483648.",
        "S(X) :- R(X). fd R: 1 -> 99999999999999999999999."}) {
    const Result<Query> q = ParseQuery(text);
    ASSERT_FALSE(q.ok()) << text;
    EXPECT_EQ(q.status().code(), StatusCode::kParseError) << text;
  }
  // The largest int still parses as a number (and fails validation).
  EXPECT_FALSE(ParseQuery("S(X) :- R(X). key R: 2147483647.").ok());
}

TEST(QueryTest, DerivedVariableFds) {
  auto q = ParseQuery(
      "Q(X,Y) :- R(X,Y), R(Y,X).\n"
      "fd R: 1 -> 2.");
  ASSERT_TRUE(q.ok());
  auto vfds = q->DeriveVariableFds();
  // Atom R(X,Y) induces X -> Y; atom R(Y,X) induces Y -> X.
  ASSERT_EQ(vfds.size(), 2u);
  int x = q->FindVariable("X");
  int y = q->FindVariable("Y");
  EXPECT_EQ(vfds[0], (VariableFd{{x}, y}));
  EXPECT_EQ(vfds[1], (VariableFd{{y}, x}));
}

TEST(QueryTest, AddSimpleKeyExpands) {
  Query q;
  int x = q.InternVariable("X");
  int y = q.InternVariable("Y");
  int z = q.InternVariable("Z");
  q.SetHead("Q", {x});
  q.AddAtom("R", {x, y, z});
  q.AddSimpleKey("R", 0, 3);
  ASSERT_EQ(q.fds().size(), 2u);
  EXPECT_TRUE(q.AllFdsSimple());
}

TEST(ChaseTest, PaperExample22) {
  // Example 2.2: R0(W,X,Y,Z) <- R1(W,X,Y), R1(W,W,W), R2(Y,Z) with
  // position 1 of R1 a key: chase yields R0(W,W,W,Z) <- R1(W,W,W), R2(W,Z).
  auto q = ParseQuery(
      "R0(W,X,Y,Z) :- R1(W,X,Y), R1(W,W,W), R2(Y,Z).\n"
      "key R1: 1.");
  ASSERT_TRUE(q.ok()) << q.status();
  Query chased = Chase(*q);
  EXPECT_EQ(chased.atoms().size(), 2u);  // the two R1 atoms collapse
  // Head becomes (W, W, W, Z).
  ASSERT_EQ(chased.head_vars().size(), 4u);
  EXPECT_EQ(chased.head_vars()[0], chased.head_vars()[1]);
  EXPECT_EQ(chased.head_vars()[1], chased.head_vars()[2]);
  EXPECT_NE(chased.head_vars()[2], chased.head_vars()[3]);
  // Only two distinct variables remain.
  EXPECT_EQ(chased.BodyVarSet().size(), 2u);
}

TEST(ChaseTest, NoFdsIsIdentity) {
  auto q = ParseQuery("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).");
  ASSERT_TRUE(q.ok());
  Query chased = Chase(*q);
  EXPECT_EQ(chased.ToString(), q->ToString());
}

TEST(ChaseTest, CompoundFdChase) {
  // R(X,Y,A) and R(X,Y,B) with {1,2} -> 3 force A == B.
  auto q = ParseQuery(
      "Q(A,B) :- R(X,Y,A), R(X,Y,B).\n"
      "fd R: 1,2 -> 3.");
  ASSERT_TRUE(q.ok());
  Query chased = Chase(*q);
  EXPECT_EQ(chased.atoms().size(), 1u);
  EXPECT_EQ(chased.head_vars()[0], chased.head_vars()[1]);
}

TEST(ChaseTest, TransitiveClosureOfMerges) {
  // Two keyed atoms chained: R(A,B), R(A,C) merge B,C; then S(B,D), S(C,E)
  // (same variable class after merge) merge D,E.
  auto q = ParseQuery(
      "Q(A,B,C,D,E) :- R(A,B), R(A,C), S(B,D), S(C,E).\n"
      "key R: 1. key S: 1.");
  ASSERT_TRUE(q.ok());
  Query chased = Chase(*q);
  EXPECT_EQ(chased.atoms().size(), 2u);
  EXPECT_EQ(chased.BodyVarSet().size(), 3u);  // A, B==C, D==E
}

TEST(ChaseTest, IdempotentOnChasedQuery) {
  auto q = ParseQuery(
      "R0(W,X,Y,Z) :- R1(W,X,Y), R1(W,W,W), R2(Y,Z).\n"
      "key R1: 1.");
  ASSERT_TRUE(q.ok());
  Query once = Chase(*q);
  Query twice = Chase(once);
  EXPECT_EQ(once.ToString(), twice.ToString());
}

// Fact 2.4: Q(D) == chase(Q)(D) for every database satisfying the FDs.
class ChaseEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ChaseEquivalenceTest, ChasePreservesResults) {
  const char* queries[] = {
      "Q(X,Y,Z) :- R(X,Y), R(X,Z). key R: 1.",
      "Q(W,X,Y,Z) :- R1(W,X,Y), R1(W,W,W), R2(Y,Z). key R1: 1.",
      "Q(A,B) :- R(A,B), S(B,A). fd R: 1 -> 2. fd S: 1 -> 2.",
      "Q(X,Z) :- R(X,Y), R(Y,Z), R(Z,X). fd R: 1 -> 2.",
      "Q(A,B,C) :- R(A,B,C), R(A,B,C). fd R: 1,2 -> 3.",
  };
  for (const char* text : queries) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    RandomDatabaseOptions opts;
    opts.seed = static_cast<std::uint64_t>(GetParam());
    opts.tuples_per_relation = 30;
    opts.domain_size = 5;
    Database db = RandomDatabase(*q, opts);
    ASSERT_TRUE(db.CheckFds(*q).ok());
    Query chased = Chase(*q);
    auto original = EvaluateQuery(*q, db, PlanKind::kNaive);
    auto after = EvaluateQuery(chased, db, PlanKind::kNaive);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(original->size(), after->size()) << text;
    for (const Tuple& t : original->tuples()) {
      EXPECT_TRUE(after->Contains(t));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseEquivalenceTest, ::testing::Range(1, 15));

}  // namespace
}  // namespace cqbounds
