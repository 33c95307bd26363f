#include "util/rational.h"

#include <ostream>
#include <utility>

#include "util/status.h"

namespace cqbounds {

namespace {

using i64 = std::int64_t;

// Binary gcd of two non-negative values; Gcd(0, b) == b.
i64 Gcd(i64 a, i64 b) {
  std::uint64_t u = static_cast<std::uint64_t>(a);
  std::uint64_t v = static_cast<std::uint64_t>(b);
  if (u == 0) return static_cast<i64>(v);
  if (v == 0) return static_cast<i64>(u);
  if (u == 1 || v == 1) return 1;  // integer operands: skip the loop
  const int shift = __builtin_ctzll(u | v);
  u >>= __builtin_ctzll(u);
  do {
    v >>= __builtin_ctzll(v);
    if (u > v) std::swap(u, v);
    v -= u;
  } while (v != 0);
  return static_cast<i64>(u << shift);
}

i64 Abs(i64 v) { return v < 0 ? -v : v; }

bool MulFits(i64 a, i64 b, i64* out) {
  return !__builtin_mul_overflow(a, b, out) && *out != INT64_MIN;
}

bool AddFits(i64 a, i64 b, i64* out) {
  return !__builtin_add_overflow(a, b, out) && *out != INT64_MIN;
}

// The inline-path kernels below take operands in canonical inline form
// (numerators != INT64_MIN, denominators > 0, lowest terms) and return false
// when the result does not fit inline; the caller then redoes the operation
// on BigInts. On success *num / *den are canonical.

// a/b + c/d (TAOCP 4.5.1: divide by gcd(b, d) before multiplying).
bool AddInline(i64 a, i64 b, i64 c, i64 d, i64* num, i64* den) {
  if (b == d) {
    i64 t = 0;
    if (!AddFits(a, c, &t)) return false;
    const i64 g = Gcd(Abs(t), b);
    *num = t / g;
    *den = b / g;
    return true;
  }
  const i64 g = Gcd(b, d);
  const i64 b1 = b / g;
  const i64 d1 = d / g;
  i64 ad1 = 0, cb1 = 0, t = 0;
  if (!MulFits(a, d1, &ad1) || !MulFits(c, b1, &cb1) ||
      !AddFits(ad1, cb1, &t)) {
    return false;
  }
  // gcd(t, b1 * d1) == 1, so only gcd(t, g) can cancel.
  const i64 g2 = Gcd(Abs(t), g);
  *num = t / g2;
  return MulFits(b1, d / g2, den);
}

// (a/b) * (c/d), cancelling across before multiplying.
bool MulInline(i64 a, i64 b, i64 c, i64 d, i64* num, i64* den) {
  if (a == 0 || c == 0) {
    *num = 0;
    *den = 1;
    return true;
  }
  const i64 g1 = Gcd(Abs(a), d);
  const i64 g2 = Gcd(Abs(c), b);
  return MulFits(a / g1, c / g2, num) && MulFits(b / g2, d / g1, den);
}

}  // namespace

Rational::Rational(BigInt value) { SetFromBig(std::move(value), BigInt(1)); }

Rational::Rational(BigInt num, BigInt den) {
  SetFromBig(std::move(num), std::move(den));
}

Rational::Rational(i64 num, i64 den) {
  CQB_CHECK(den != 0);
  if (num == INT64_MIN || den == INT64_MIN) {
    SetFromBig(BigInt(num), BigInt(den));
    return;
  }
  if (den < 0) {
    num = -num;
    den = -den;
  }
  const i64 g = Gcd(Abs(num), den);
  num_ = num / g;
  den_ = den / g;
}

void Rational::SetFromBig(BigInt num, BigInt den) {
  CQB_CHECK(!den.IsZero());
  if (den.IsNegative()) {
    num = -num;
    den = -den;
  }
  if (num.IsZero()) {
    den = BigInt(1);
  } else {
    BigInt g = BigInt::Gcd(num, den);
    if (g != BigInt(1)) {
      num /= g;
      den /= g;
    }
  }
  i64 n = 0, d = 0;
  if (num.FitsInt64(&n) && n != INT64_MIN && den.FitsInt64(&d)) {
    num_ = n;
    den_ = d;
    big_.reset();
    return;
  }
  num_ = 0;
  den_ = 1;
  big_ = std::make_unique<Big>(Big{std::move(num), std::move(den)});
}

bool Rational::Parse(const std::string& text, Rational* out) {
  std::size_t slash = text.find('/');
  BigInt num, den(1);
  if (slash == std::string::npos) {
    if (!BigInt::Parse(text, &num)) return false;
  } else {
    if (!BigInt::Parse(text.substr(0, slash), &num)) return false;
    if (!BigInt::Parse(text.substr(slash + 1), &den)) return false;
    if (den.IsZero()) return false;
  }
  *out = Rational(std::move(num), std::move(den));
  return true;
}

double Rational::ToDouble() const {
  if (big_) return big_->num.ToDouble() / big_->den.ToDouble();
  return static_cast<double>(num_) / static_cast<double>(den_);
}

std::string Rational::ToString() const {
  if (big_) {
    if (IsInteger()) return big_->num.ToString();
    return big_->num.ToString() + "/" + big_->den.ToString();
  }
  if (den_ == 1) return std::to_string(num_);
  return std::to_string(num_) + "/" + std::to_string(den_);
}

Rational Rational::operator-() const {
  if (big_) return Rational(-big_->num, big_->den);
  Rational r;
  r.num_ = -num_;
  r.den_ = den_;
  return r;
}

Rational Rational::operator+(const Rational& rhs) const {
  Rational r;
  if (!big_ && !rhs.big_ &&
      AddInline(num_, den_, rhs.num_, rhs.den_, &r.num_, &r.den_)) {
    return r;
  }
  return Rational(
      numerator() * rhs.denominator() + rhs.numerator() * denominator(),
      denominator() * rhs.denominator());
}

Rational Rational::operator-(const Rational& rhs) const {
  Rational r;
  if (!big_ && !rhs.big_ &&
      AddInline(num_, den_, -rhs.num_, rhs.den_, &r.num_, &r.den_)) {
    return r;
  }
  return Rational(
      numerator() * rhs.denominator() - rhs.numerator() * denominator(),
      denominator() * rhs.denominator());
}

Rational Rational::operator*(const Rational& rhs) const {
  Rational r;
  if (!big_ && !rhs.big_ &&
      MulInline(num_, den_, rhs.num_, rhs.den_, &r.num_, &r.den_)) {
    return r;
  }
  return Rational(numerator() * rhs.numerator(),
                  denominator() * rhs.denominator());
}

Rational Rational::operator/(const Rational& rhs) const {
  CQB_CHECK(!rhs.IsZero());
  Rational r;
  // The reciprocal d/c of an inline c/d is inline too once its sign moves to
  // the numerator (c != INT64_MIN).
  if (!big_ && !rhs.big_ &&
      MulInline(num_, den_, rhs.num_ < 0 ? -rhs.den_ : rhs.den_,
                Abs(rhs.num_), &r.num_, &r.den_)) {
    return r;
  }
  return Rational(numerator() * rhs.denominator(),
                  denominator() * rhs.numerator());
}

bool Rational::operator<(const Rational& rhs) const {
  if (!big_ && !rhs.big_) {
    if (den_ == rhs.den_) return num_ < rhs.num_;
    i64 lhs_cross = 0, rhs_cross = 0;
    if (!__builtin_mul_overflow(num_, rhs.den_, &lhs_cross) &&
        !__builtin_mul_overflow(rhs.num_, den_, &rhs_cross)) {
      return lhs_cross < rhs_cross;
    }
  }
  return numerator() * rhs.denominator() < rhs.numerator() * denominator();
}

BigInt Rational::Floor() const {
  if (!big_) {
    i64 q = num_ / den_;
    if (num_ % den_ < 0) --q;
    return BigInt(q);
  }
  BigInt q, r;
  BigInt::DivMod(big_->num, big_->den, &q, &r);
  if (r.IsNegative()) q -= BigInt(1);
  return q;
}

BigInt Rational::Ceil() const {
  if (!big_) {
    i64 q = num_ / den_;
    if (num_ % den_ > 0) ++q;
    return BigInt(q);
  }
  BigInt q, r;
  BigInt::DivMod(big_->num, big_->den, &q, &r);
  if (r.Sign() > 0) q += BigInt(1);
  return q;
}

std::ostream& operator<<(std::ostream& os, const Rational& v) {
  return os << v.ToString();
}

}  // namespace cqbounds
