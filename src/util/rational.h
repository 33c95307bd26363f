#ifndef CQBOUNDS_UTIL_RATIONAL_H_
#define CQBOUNDS_UTIL_RATIONAL_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "util/bigint.h"

namespace cqbounds {

/// Exact rational number, always kept in lowest terms with a positive
/// denominator.
///
/// The paper's bounds are rational-valued: color numbers (Def 3.2),
/// fractional edge cover numbers (Def 3.5), and the entropy LP value s(Q)
/// (Prop 6.9) are all solutions of rational linear programs. Carrying them
/// exactly lets tests assert e.g. `C(triangle) == 3/2` rather than
/// `|c - 1.5| < eps`.
///
/// Representation: a value whose numerator lies in (INT64_MIN, INT64_MAX]
/// and whose denominator fits in int64 is held inline as two int64 fields
/// and never touches the heap. Arithmetic on inline values uses overflow-
/// checked machine ops with Knuth's gcd-before-multiply (TAOCP 4.5.1), so
/// intermediates stay as small as the result allows. Only a result that
/// does not fit falls back to a heap-held BigInt pair; a fallback result
/// that fits again is demoted back inline. Every value therefore has
/// exactly one representation and `==` compares fields.
class Rational {
 public:
  /// Constructs zero.
  Rational() = default;
  /// Constructs an integer value.
  Rational(std::int64_t value) : num_(value) {  // NOLINT
    if (value == INT64_MIN) SetFromBig(BigInt(value), BigInt(1));
  }
  Rational(BigInt value);  // NOLINT
  /// Constructs num/den, normalizing sign and reducing. Aborts if den == 0.
  Rational(BigInt num, BigInt den);
  Rational(std::int64_t num, std::int64_t den);

  Rational(const Rational& other)
      : num_(other.num_),
        den_(other.den_),
        big_(other.big_ ? std::make_unique<Big>(*other.big_) : nullptr) {}
  Rational(Rational&&) noexcept = default;
  Rational& operator=(const Rational& other) {
    if (this != &other) *this = Rational(other);
    return *this;
  }
  Rational& operator=(Rational&&) noexcept = default;
  ~Rational() = default;

  /// Parses "a/b" or "a" in base 10. Returns false on malformed input.
  static bool Parse(const std::string& text, Rational* out);

  BigInt numerator() const { return big_ ? big_->num : BigInt(num_); }
  BigInt denominator() const { return big_ ? big_->den : BigInt(den_); }

  /// True when the value is held in the inline int64 pair (no heap block).
  bool IsInline() const { return !big_; }

  // A heap-held value is never zero and never fits inline.
  bool IsZero() const { return !big_ && num_ == 0; }
  bool IsInteger() const { return big_ ? big_->den == BigInt(1) : den_ == 1; }
  int Sign() const {
    if (big_) return big_->num.Sign();
    return (num_ > 0) - (num_ < 0);
  }

  double ToDouble() const;
  /// "a/b", or just "a" when the denominator is 1.
  std::string ToString() const;

  Rational operator-() const;
  Rational operator+(const Rational& rhs) const;
  Rational operator-(const Rational& rhs) const;
  Rational operator*(const Rational& rhs) const;
  /// Aborts on division by zero.
  Rational operator/(const Rational& rhs) const;

  Rational& operator+=(const Rational& rhs) { return *this = *this + rhs; }
  Rational& operator-=(const Rational& rhs) { return *this = *this - rhs; }
  Rational& operator*=(const Rational& rhs) { return *this = *this * rhs; }
  Rational& operator/=(const Rational& rhs) { return *this = *this / rhs; }

  bool operator==(const Rational& rhs) const {
    if (big_ || rhs.big_) {
      return big_ && rhs.big_ && big_->num == rhs.big_->num &&
             big_->den == rhs.big_->den;
    }
    return num_ == rhs.num_ && den_ == rhs.den_;
  }
  bool operator!=(const Rational& rhs) const { return !(*this == rhs); }
  bool operator<(const Rational& rhs) const;
  bool operator>(const Rational& rhs) const { return rhs < *this; }
  bool operator<=(const Rational& rhs) const { return !(rhs < *this); }
  bool operator>=(const Rational& rhs) const { return !(*this < rhs); }

  /// Largest integer <= value.
  BigInt Floor() const;
  /// Smallest integer >= value.
  BigInt Ceil() const;

 private:
  struct Big {
    BigInt num;
    BigInt den;
  };

  // Reduces num/den (den != 0) and stores it inline when it fits, else on
  // the heap.
  void SetFromBig(BigInt num, BigInt den);

  // Inline value, meaningful only while big_ is null; while big_ is set they
  // hold 0/1, so moving the heap block out leaves a valid zero behind.
  // Invariant: num_ != INT64_MIN, den_ > 0, gcd(|num_|, den_) == 1.
  std::int64_t num_ = 0;
  std::int64_t den_ = 1;
  // Non-null iff the value does not fit inline; same invariants as above.
  std::unique_ptr<Big> big_;
};

static_assert(sizeof(Rational) <= 24, "Rational must stay three words");

std::ostream& operator<<(std::ostream& os, const Rational& v);

}  // namespace cqbounds

#endif  // CQBOUNDS_UTIL_RATIONAL_H_
