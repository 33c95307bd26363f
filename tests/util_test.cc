#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>

#include "util/bigint.h"
#include "util/rational.h"
#include "util/rng.h"
#include "util/subset.h"

namespace cqbounds {
namespace {

TEST(BigIntTest, ConstructionAndToString) {
  EXPECT_EQ(BigInt(0).ToString(), "0");
  EXPECT_EQ(BigInt(42).ToString(), "42");
  EXPECT_EQ(BigInt(-7).ToString(), "-7");
  EXPECT_EQ(BigInt(INT64_MAX).ToString(), "9223372036854775807");
  EXPECT_EQ(BigInt(INT64_MIN).ToString(), "-9223372036854775808");
}

TEST(BigIntTest, ParseRoundTrip) {
  for (const char* text :
       {"0", "1", "-1", "123456789012345678901234567890",
        "-999999999999999999999999999999999"}) {
    BigInt v;
    ASSERT_TRUE(BigInt::Parse(text, &v)) << text;
    EXPECT_EQ(v.ToString(), text);
  }
}

TEST(BigIntTest, ParseRejectsMalformed) {
  BigInt v;
  EXPECT_FALSE(BigInt::Parse("", &v));
  EXPECT_FALSE(BigInt::Parse("-", &v));
  EXPECT_FALSE(BigInt::Parse("12a3", &v));
  EXPECT_FALSE(BigInt::Parse("1.5", &v));
}

TEST(BigIntTest, ArithmeticMatchesInt64Reference) {
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::int64_t a = rng.NextInRange(-1000000, 1000000);
    std::int64_t b = rng.NextInRange(-1000000, 1000000);
    BigInt ba(a), bb(b);
    EXPECT_EQ((ba + bb).ToInt64(), a + b);
    EXPECT_EQ((ba - bb).ToInt64(), a - b);
    EXPECT_EQ((ba * bb).ToInt64(), a * b);
    if (b != 0) {
      EXPECT_EQ((ba / bb).ToInt64(), a / b) << a << "/" << b;
      EXPECT_EQ((ba % bb).ToInt64(), a % b) << a << "%" << b;
    }
    EXPECT_EQ(ba < bb, a < b);
    EXPECT_EQ(ba == bb, a == b);
  }
}

TEST(BigIntTest, MultiLimbDivMod) {
  // Stress Knuth algorithm D with operands far beyond 64 bits: check the
  // division identity a == q*b + r with |r| < |b| and sign(r) == sign(a).
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    // Build random numbers with 3-9 limbs via string digits.
    auto random_big = [&rng](int digits) {
      std::string s;
      if (rng.NextBool(1, 2)) s += '-';
      s += static_cast<char>('1' + rng.NextBelow(9));
      for (int i = 1; i < digits; ++i) {
        s += static_cast<char>('0' + rng.NextBelow(10));
      }
      BigInt v;
      EXPECT_TRUE(BigInt::Parse(s, &v));
      return v;
    };
    BigInt a = random_big(30 + static_cast<int>(rng.NextBelow(40)));
    BigInt b = random_big(10 + static_cast<int>(rng.NextBelow(25)));
    BigInt q, r;
    BigInt::DivMod(a, b, &q, &r);
    EXPECT_EQ(q * b + r, a);
    EXPECT_TRUE(r.Abs() < b.Abs());
    if (!r.IsZero()) {
      EXPECT_EQ(r.Sign(), a.Sign());
    }
  }
}

TEST(BigIntTest, DivModAddBackBranch) {
  // A case engineered to exercise the rare "add back" correction in Knuth D:
  // dividend slightly below a multiple of the divisor with max top limbs.
  BigInt a, b;
  ASSERT_TRUE(BigInt::Parse("340282366920938463463374607431768211455", &a));
  ASSERT_TRUE(BigInt::Parse("18446744073709551615", &b));  // 2^64 - 1
  BigInt q, r;
  BigInt::DivMod(a, b, &q, &r);
  EXPECT_EQ(q * b + r, a);
  EXPECT_TRUE(r < b);
}

TEST(BigIntTest, PowAndGcd) {
  EXPECT_EQ(BigInt::Pow(BigInt(2), 10).ToInt64(), 1024);
  EXPECT_EQ(BigInt::Pow(BigInt(10), 0).ToInt64(), 1);
  EXPECT_EQ(BigInt::Pow(BigInt(3), 40).ToString(), "12157665459056928801");
  EXPECT_EQ(BigInt::Gcd(BigInt(48), BigInt(36)).ToInt64(), 12);
  EXPECT_EQ(BigInt::Gcd(BigInt(-48), BigInt(36)).ToInt64(), 12);
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToInt64(), 5);
}

TEST(BigIntTest, FitsInt64Boundaries) {
  std::int64_t out = 0;
  EXPECT_TRUE(BigInt(INT64_MAX).FitsInt64(&out));
  EXPECT_EQ(out, INT64_MAX);
  EXPECT_TRUE(BigInt(INT64_MIN).FitsInt64(&out));
  EXPECT_EQ(out, INT64_MIN);
  BigInt too_big = BigInt(INT64_MAX) + BigInt(1);
  EXPECT_FALSE(too_big.FitsInt64(&out));
  BigInt too_small = BigInt(INT64_MIN) - BigInt(1);
  EXPECT_FALSE(too_small.FitsInt64(&out));
}

TEST(BigIntTest, BitLength) {
  EXPECT_EQ(BigInt(0).BitLength(), 0);
  EXPECT_EQ(BigInt(1).BitLength(), 1);
  EXPECT_EQ(BigInt(255).BitLength(), 8);
  EXPECT_EQ(BigInt(256).BitLength(), 9);
  EXPECT_EQ(BigInt::Pow(BigInt(2), 100).BitLength(), 101);
}

TEST(RationalTest, NormalizationAndToString) {
  EXPECT_EQ(Rational(6, 4).ToString(), "3/2");
  EXPECT_EQ(Rational(-6, 4).ToString(), "-3/2");
  EXPECT_EQ(Rational(6, -4).ToString(), "-3/2");
  EXPECT_EQ(Rational(-6, -4).ToString(), "3/2");
  EXPECT_EQ(Rational(0, 17).ToString(), "0");
  EXPECT_EQ(Rational(8, 4).ToString(), "2");
  EXPECT_TRUE(Rational(8, 4).IsInteger());
}

TEST(RationalTest, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
  EXPECT_EQ(-Rational(1, 2), Rational(-1, 2));
}

TEST(RationalTest, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_LT(Rational(-1), Rational(0));
  EXPECT_GE(Rational(3, 2), Rational(3, 2));
  EXPECT_GT(Rational(7, 4), Rational(3, 2));
}

TEST(RationalTest, FieldAxiomsRandomized) {
  Rng rng(3);
  auto random_rational = [&rng]() {
    std::int64_t num = rng.NextInRange(-50, 50);
    std::int64_t den = rng.NextInRange(1, 50);
    return Rational(num, den);
  };
  for (int trial = 0; trial < 500; ++trial) {
    Rational a = random_rational();
    Rational b = random_rational();
    Rational c = random_rational();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + Rational(0), a);
    EXPECT_EQ(a * Rational(1), a);
    if (!a.IsZero()) {
      EXPECT_EQ(a / a, Rational(1));
    }
  }
}

TEST(RationalTest, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).Floor().ToInt64(), 3);
  EXPECT_EQ(Rational(7, 2).Ceil().ToInt64(), 4);
  EXPECT_EQ(Rational(-7, 2).Floor().ToInt64(), -4);
  EXPECT_EQ(Rational(-7, 2).Ceil().ToInt64(), -3);
  EXPECT_EQ(Rational(4).Floor().ToInt64(), 4);
  EXPECT_EQ(Rational(4).Ceil().ToInt64(), 4);
}

TEST(RationalTest, Parse) {
  Rational r;
  ASSERT_TRUE(Rational::Parse("3/2", &r));
  EXPECT_EQ(r, Rational(3, 2));
  ASSERT_TRUE(Rational::Parse("-10", &r));
  EXPECT_EQ(r, Rational(-10));
  EXPECT_FALSE(Rational::Parse("1/0", &r));
  EXPECT_FALSE(Rational::Parse("a/b", &r));
}

// --- int64 fast path and its BigInt fallback ------------------------------

constexpr std::int64_t kTwo31 = std::int64_t{1} << 31;
constexpr std::int64_t kTwo62 = std::int64_t{1} << 62;

BigInt TwoPow(int exp) { return BigInt::Pow(BigInt(2), exp); }

TEST(RationalTest, InlineBoundaryOperands) {
  for (std::int64_t v : {kTwo31, -kTwo31, kTwo62, -kTwo62, INT64_MAX,
                         INT64_MIN + 1}) {
    Rational r(v);
    EXPECT_TRUE(r.IsInline()) << v;
    EXPECT_EQ(r.numerator(), BigInt(v));
    EXPECT_EQ(-(-r), r);
    EXPECT_EQ(r - r, Rational(0));
    EXPECT_EQ(r / r, Rational(1));
  }
  // 2^31 * 2^31 = 2^62 still fits; 2^31 * 2^32 = 2^63 does not.
  EXPECT_EQ(Rational(kTwo31) * Rational(kTwo31), Rational(kTwo62));
  EXPECT_TRUE((Rational(kTwo31) * Rational(kTwo31)).IsInline());
  EXPECT_EQ(Rational(INT64_MAX) + Rational(INT64_MIN + 1), Rational(0));
  EXPECT_EQ(Rational(-kTwo62) - Rational(kTwo62 - 1), Rational(INT64_MIN + 1));
  EXPECT_TRUE((Rational(-kTwo62) - Rational(kTwo62 - 1)).IsInline());
  EXPECT_EQ(Rational(INT64_MAX, kTwo62).ToString(),
            "9223372036854775807/4611686018427387904");
}

TEST(RationalTest, PromotesOnOverflow) {
  // +: 2^62 + 2^62 = 2^63 overflows int64.
  Rational sum = Rational(kTwo62) + Rational(kTwo62);
  EXPECT_FALSE(sum.IsInline());
  EXPECT_EQ(sum.numerator(), TwoPow(63));
  EXPECT_EQ(sum.ToString(), "9223372036854775808");
  // Cross-denominator sum whose numerator overflows.
  Rational mixed = Rational(INT64_MAX, 2) + Rational(INT64_MAX, 3);
  EXPECT_FALSE(mixed.IsInline());
  EXPECT_EQ(mixed, Rational(BigInt(INT64_MAX) * BigInt(5), BigInt(6)));
  // *: INT64_MAX * 2, and a denominator product past int64.
  Rational product = Rational(INT64_MAX) * Rational(2);
  EXPECT_FALSE(product.IsInline());
  EXPECT_EQ(product.numerator(), BigInt(INT64_MAX) * BigInt(2));
  Rational tiny = Rational(1, INT64_MAX) * Rational(1, INT64_MAX);
  EXPECT_FALSE(tiny.IsInline());
  EXPECT_EQ(tiny.denominator(), BigInt(INT64_MAX) * BigInt(INT64_MAX));
  // /: dividing by 1/2 doubles.
  Rational quotient = Rational(INT64_MAX) / Rational(1, 2);
  EXPECT_FALSE(quotient.IsInline());
  EXPECT_EQ(quotient, product);
  // <: both cross products overflow int64 here.
  Rational lo(INT64_MAX - 2, INT64_MAX - 1);  // 1 - 1/(INT64_MAX - 1)
  Rational hi(INT64_MAX - 1, INT64_MAX);      // 1 - 1/INT64_MAX
  EXPECT_TRUE(lo.IsInline());
  EXPECT_TRUE(hi.IsInline());
  EXPECT_LT(lo, hi);
  EXPECT_FALSE(hi < lo);
  EXPECT_LT(Rational(INT64_MAX, 3), Rational(INT64_MAX - 1, 2));
  // Mixed inline / heap comparisons.
  EXPECT_LT(Rational(INT64_MAX), sum);
  EXPECT_LT(-sum, Rational(INT64_MIN + 1));
  EXPECT_NE(sum, Rational(INT64_MAX));
}

TEST(RationalTest, DemotesBackToInline) {
  Rational max(INT64_MAX);
  Rational round_trip = (max + Rational(1)) - Rational(1);
  EXPECT_TRUE(round_trip.IsInline());
  EXPECT_EQ(round_trip, max);
  EXPECT_EQ(round_trip.numerator(), BigInt(INT64_MAX));
  EXPECT_EQ(round_trip.denominator(), BigInt(1));

  Rational halved = (max * Rational(2)) / Rational(2);
  EXPECT_TRUE(halved.IsInline());
  EXPECT_EQ(halved, max);

  Rational min_plus_one(INT64_MIN + 1);
  Rational down = min_plus_one - Rational(1);  // INT64_MIN lives on the heap
  EXPECT_FALSE(down.IsInline());
  EXPECT_EQ(down + Rational(1), min_plus_one);
  EXPECT_TRUE((down + Rational(1)).IsInline());

  // A heap value parsed from text that fits is stored inline.
  Rational parsed;
  ASSERT_TRUE(Rational::Parse("18446744073709551614/2", &parsed));
  EXPECT_TRUE(parsed.IsInline());
  EXPECT_EQ(parsed, max);
  // Copies and moves keep the representation.
  Rational heap = max + max;
  Rational copy = heap;
  EXPECT_EQ(copy, heap);
  EXPECT_FALSE(copy.IsInline());
  Rational moved = std::move(heap);
  EXPECT_EQ(moved, copy);
}

TEST(RationalTest, Int64MinOperands) {
  Rational min(INT64_MIN);
  EXPECT_FALSE(min.IsInline());
  EXPECT_EQ(min.ToString(), "-9223372036854775808");
  EXPECT_EQ(min, Rational(BigInt(INT64_MIN)));
  EXPECT_EQ(-min, Rational(TwoPow(63)));
  EXPECT_FALSE((-min).IsInline());
  EXPECT_EQ(min + Rational(1), Rational(INT64_MIN + 1));
  EXPECT_LT(min, Rational(INT64_MIN + 1));
  EXPECT_EQ(min.Floor(), BigInt(INT64_MIN));

  EXPECT_EQ(Rational(INT64_MIN, 2), Rational(-kTwo62));
  EXPECT_TRUE(Rational(INT64_MIN, 2).IsInline());
  EXPECT_EQ(Rational(INT64_MIN, INT64_MIN), Rational(1));
  EXPECT_TRUE(Rational(INT64_MIN, INT64_MIN).IsInline());
  EXPECT_EQ(Rational(INT64_MIN, -1), Rational(TwoPow(63)));

  // x / INT64_MIN: the sign moves to the numerator, 2^63 may not fit.
  EXPECT_EQ(Rational(2, INT64_MIN).ToString(), "-1/4611686018427387904");
  EXPECT_TRUE(Rational(2, INT64_MIN).IsInline());
  EXPECT_EQ(Rational(1, INT64_MIN).ToString(), "-1/9223372036854775808");
  EXPECT_FALSE(Rational(1, INT64_MIN).IsInline());
  EXPECT_EQ(Rational(-3, INT64_MIN).ToString(), "3/9223372036854775808");
  EXPECT_EQ(Rational(1, INT64_MIN) * Rational(2), Rational(2, INT64_MIN));
  EXPECT_TRUE((Rational(1, INT64_MIN) * Rational(2)).IsInline());
}

TEST(RationalTest, FloorCeilNegativeSmallValues) {
  EXPECT_EQ(Rational(-1, 3).Floor(), BigInt(-1));
  EXPECT_EQ(Rational(-1, 3).Ceil(), BigInt(0));
  EXPECT_EQ(Rational(-5, 2).Floor(), BigInt(-3));
  EXPECT_EQ(Rational(-5, 2).Ceil(), BigInt(-2));
  EXPECT_EQ(Rational(-3).Floor(), BigInt(-3));
  EXPECT_EQ(Rational(-3).Ceil(), BigInt(-3));
  EXPECT_EQ(Rational(1, 3).Floor(), BigInt(0));
  EXPECT_EQ(Rational(1, 3).Ceil(), BigInt(1));
  EXPECT_EQ(Rational(0).Floor(), BigInt(0));
  EXPECT_EQ(Rational(0).Ceil(), BigInt(0));
  EXPECT_EQ(Rational(INT64_MIN + 1, 2).Floor(), BigInt(-kTwo62));
  EXPECT_EQ(Rational(INT64_MIN + 1, 2).Ceil(), BigInt(-kTwo62 + 1));
  // Heap values: -(2^64 + 1) / 2.
  Rational big_half(-(TwoPow(64) + BigInt(1)), BigInt(2));
  EXPECT_FALSE(big_half.IsInline());
  EXPECT_EQ(big_half.Floor(), -TwoPow(63) - BigInt(1));
  EXPECT_EQ(big_half.Ceil(), -TwoPow(63));
}

// Reference semantics: every operation is recomputed on BigInt numerators
// and denominators by cross multiplication, with no reduction, and compared
// by cross multiplication again.
struct RefFrac {
  BigInt num;
  BigInt den;  // > 0, not necessarily reduced
};

RefFrac Ref(const Rational& r) { return {r.numerator(), r.denominator()}; }

void ExpectMatches(const Rational& got, const RefFrac& want,
                   const std::string& what) {
  const BigInt num = got.numerator();
  const BigInt den = got.denominator();
  EXPECT_EQ(num * want.den, want.num * den) << what << " = " << got;
  // Canonical form: positive denominator, lowest terms, inline iff it fits.
  EXPECT_GT(den.Sign(), 0) << what;
  EXPECT_EQ(BigInt::Gcd(num, den), BigInt(num.IsZero() ? den : BigInt(1)))
      << what;
  std::int64_t n = 0, d = 0;
  const bool fits = num.FitsInt64(&n) && n != INT64_MIN && den.FitsInt64(&d);
  EXPECT_EQ(got.IsInline(), fits) << what << " = " << got;
}

Rational RandomBoundaryOperand(Rng& rng) {
  const std::int64_t kEdges[] = {1,         2,          3,         7,
                                 kTwo31 - 1, kTwo31,    kTwo31 + 1, kTwo62 - 1,
                                 kTwo62,    kTwo62 + 1, INT64_MAX - 1,
                                 INT64_MAX};
  auto component = [&](bool allow_sign) -> BigInt {
    BigInt v;
    switch (rng.NextBelow(4)) {
      case 0:  // small
        v = BigInt(rng.NextInRange(1, 60));
        break;
      case 1:  // near a boundary
        v = BigInt(kEdges[rng.NextBelow(std::size(kEdges))]) +
            BigInt(rng.NextInRange(-2, 2));
        break;
      case 2:  // full 63-bit
        v = BigInt(static_cast<std::int64_t>(rng.Next() >> 1));
        break;
      default:  // beyond int64
        v = BigInt(kEdges[rng.NextBelow(std::size(kEdges))]) *
            BigInt(rng.NextInRange(2, 5));
        break;
    }
    if (v.IsZero()) v = BigInt(1);
    if (allow_sign && rng.NextBool(1, 2)) v = -v;
    return v;
  };
  BigInt num = rng.NextBool(1, 10) ? BigInt(0) : component(true);
  BigInt den = rng.NextBool(1, 3) ? BigInt(1) : component(false);
  return Rational(num, den);
}

TEST(RationalTest, DifferentialAgainstBigIntReference) {
  Rng rng(20260);
  for (int trial = 0; trial < 3000; ++trial) {
    const Rational a = RandomBoundaryOperand(rng);
    const Rational b = RandomBoundaryOperand(rng);
    const RefFrac ra = Ref(a);
    const RefFrac rb = Ref(b);
    const std::string ctx = a.ToString() + " , " + b.ToString();
    ExpectMatches(a + b, {ra.num * rb.den + rb.num * ra.den, ra.den * rb.den},
                  "sum " + ctx);
    ExpectMatches(a - b, {ra.num * rb.den - rb.num * ra.den, ra.den * rb.den},
                  "difference " + ctx);
    ExpectMatches(a * b, {ra.num * rb.num, ra.den * rb.den},
                  "product " + ctx);
    ExpectMatches(-a, {-ra.num, ra.den}, "negation " + ctx);
    if (!b.IsZero()) {
      RefFrac q{ra.num * rb.den, ra.den * rb.num};
      if (q.den.IsNegative()) q = {-q.num, -q.den};
      ExpectMatches(a / b, q, "quotient " + ctx);
      EXPECT_EQ((a * b) / b, a) << ctx;
    }
    EXPECT_EQ(a < b, ra.num * rb.den < rb.num * ra.den) << ctx;
    EXPECT_EQ(a == b, ra.num * rb.den == rb.num * ra.den) << ctx;
    EXPECT_EQ((a + b) - b, a) << ctx;
    EXPECT_EQ(Rational(a).IsInline(), a.IsInline());
  }
}

TEST(SubsetTest, Basics) {
  EXPECT_EQ(PopCount(0b1011), 3);
  EXPECT_TRUE(IsSubsetOf(0b001, 0b011));
  EXPECT_FALSE(IsSubsetOf(0b100, 0b011));
  EXPECT_TRUE(Contains(0b100, 2));
  EXPECT_FALSE(Contains(0b100, 1));
  EXPECT_EQ(FullSet(3), 0b111u);
  EXPECT_EQ(FullSet(0), 0u);
  EXPECT_EQ(MaskOf({0, 2}), 0b101u);
  EXPECT_EQ(Elements(0b101), (std::vector<int>{0, 2}));
}

TEST(SubsetTest, ForEachSubsetEnumeratesAll) {
  int count = 0;
  SubsetMask seen = 0;
  ForEachSubset(0b1010, [&](SubsetMask s) {
    ++count;
    EXPECT_TRUE(IsSubsetOf(s, 0b1010));
    seen |= s;
  });
  EXPECT_EQ(count, 4);  // 2^2 subsets
  EXPECT_EQ(seen, 0b1010u);
}

TEST(RngTest, DeterministicAndBounded) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(1);
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = c.NextBelow(7);
    EXPECT_LT(v, 7u);
    std::int64_t r = c.NextInRange(-3, 3);
    EXPECT_GE(r, -3);
    EXPECT_LE(r, 3);
  }
}

}  // namespace
}  // namespace cqbounds
