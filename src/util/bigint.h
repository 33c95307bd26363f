#ifndef CQBOUNDS_UTIL_BIGINT_H_
#define CQBOUNDS_UTIL_BIGINT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace cqbounds {

/// Arbitrary-precision signed integer (sign-magnitude, base 2^32 limbs).
///
/// `Rational` holds its numerator and denominator inline as int64 and falls
/// back to a BigInt pair only when an overflow-checked operation does not
/// fit (see util/rational.h). The bignum therefore serves just that
/// fallback: it is what keeps the exact simplex (`src/lp`) exact instead of
/// silently wrapping on an LP whose pivots outgrow 64 bits.
///
/// Value semantics; copy/move are defaulted. Zero is canonically represented
/// by an empty limb vector and `negative_ == false`.
class BigInt {
 public:
  /// Constructs zero.
  BigInt() = default;
  /// Constructs from a machine integer.
  BigInt(std::int64_t value);  // NOLINT(runtime/explicit): intended implicit.

  BigInt(const BigInt&) = default;
  BigInt(BigInt&&) = default;
  BigInt& operator=(const BigInt&) = default;
  BigInt& operator=(BigInt&&) = default;

  /// Parses a base-10 string with optional leading '-'. Returns false on
  /// malformed input (empty, non-digit characters).
  static bool Parse(const std::string& text, BigInt* out);

  bool IsZero() const { return limbs_.empty(); }
  bool IsNegative() const { return negative_; }
  /// -1, 0, or +1.
  int Sign() const { return IsZero() ? 0 : (negative_ ? -1 : 1); }

  /// True if the value fits in int64_t; then `*out` receives it.
  bool FitsInt64(std::int64_t* out) const;
  /// Converts to int64_t, aborting on overflow. Convenience for tests.
  std::int64_t ToInt64() const;
  /// Approximate conversion to double (may lose precision, never aborts).
  double ToDouble() const;

  std::string ToString() const;

  BigInt operator-() const;
  BigInt Abs() const;

  BigInt operator+(const BigInt& rhs) const;
  BigInt operator-(const BigInt& rhs) const;
  BigInt operator*(const BigInt& rhs) const;
  /// Truncated division (C++ semantics: quotient rounds toward zero,
  /// remainder has the sign of the dividend). Aborts on division by zero.
  BigInt operator/(const BigInt& rhs) const;
  BigInt operator%(const BigInt& rhs) const;

  BigInt& operator+=(const BigInt& rhs) { return *this = *this + rhs; }
  BigInt& operator-=(const BigInt& rhs) { return *this = *this - rhs; }
  BigInt& operator*=(const BigInt& rhs) { return *this = *this * rhs; }
  BigInt& operator/=(const BigInt& rhs) { return *this = *this / rhs; }
  BigInt& operator%=(const BigInt& rhs) { return *this = *this % rhs; }

  bool operator==(const BigInt& rhs) const;
  bool operator!=(const BigInt& rhs) const { return !(*this == rhs); }
  bool operator<(const BigInt& rhs) const;
  bool operator>(const BigInt& rhs) const { return rhs < *this; }
  bool operator<=(const BigInt& rhs) const { return !(rhs < *this); }
  bool operator>=(const BigInt& rhs) const { return !(*this < rhs); }

  /// Computes quotient and remainder in one pass (truncated semantics).
  static void DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                     BigInt* remainder);

  /// Greatest common divisor (always non-negative).
  static BigInt Gcd(BigInt a, BigInt b);

  /// base^exp for non-negative exp. Aborts if exp < 0.
  static BigInt Pow(const BigInt& base, std::int64_t exp);

  /// Number of significant bits of the magnitude (0 for zero). Useful for
  /// tracking coefficient growth in the simplex.
  int BitLength() const;

 private:
  // Magnitude comparison: -1, 0, +1 for |*this| vs |rhs|.
  static int CompareMagnitude(const std::vector<std::uint32_t>& a,
                              const std::vector<std::uint32_t>& b);
  static std::vector<std::uint32_t> AddMagnitude(
      const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b);
  // Requires |a| >= |b|.
  static std::vector<std::uint32_t> SubMagnitude(
      const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b);
  static std::vector<std::uint32_t> MulMagnitude(
      const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b);
  // Knuth algorithm D on magnitudes.
  static void DivModMagnitude(const std::vector<std::uint32_t>& a,
                              const std::vector<std::uint32_t>& b,
                              std::vector<std::uint32_t>* quotient,
                              std::vector<std::uint32_t>* remainder);
  void Trim();

  bool negative_ = false;
  std::vector<std::uint32_t> limbs_;  // little-endian, base 2^32
};

std::ostream& operator<<(std::ostream& os, const BigInt& v);

}  // namespace cqbounds

#endif  // CQBOUNDS_UTIL_BIGINT_H_
