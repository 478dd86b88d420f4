/**
 * @file
 * Strongly-typed physical quantities: byte sizes, time, bandwidth,
 * compute, energy, and clock-cycle types, plus the conversion
 * conventions used throughout the simulator.
 *
 * Every dimensional value the simulator reasons about is a `Quantity`
 * — a single `double` tagged at compile time with exponents over the
 * five base dimensions (bytes, seconds, FLOPs, joules, cycles). The
 * wrapper is zero-overhead (one double, trivially copyable, all
 * operations `constexpr`) and exposes only dimensionally-correct
 * arithmetic:
 *
 *  - same-dimension `+`, `-`, comparisons, and `=` work; mixing two
 *    different quantity types in any of them is a compile error
 *    (`Seconds + Bytes` does not build — see tests/compile_fail/);
 *  - `*` and `/` combine dimensions: `Bytes / BytesPerSec -> Seconds`,
 *    `Watts * Seconds -> Joules`, `Cycles / Hertz -> Seconds`;
 *  - a raw `double` is dimensionless: it scales any quantity
 *    (`2.0 * t`), and `double / Quantity` inverts the dimension, so a
 *    bare byte count divided by a bandwidth does NOT yield `Seconds`
 *    until the count is annotated as `Bytes(n)`;
 *  - quantities convert implicitly to/from `double` so they interoperate
 *    with streams, accumulators, and math functions, but never to each
 *    other: passing a `Bandwidth` where a `Seconds` parameter is
 *    expected is a compile error (two user conversions are required).
 *
 * Conventions:
 *  - discrete sizes (capacities, page/buffer sizes) are `std::uint64_t`
 *    bytes; continuous byte quantities (traffic, model footprints) are
 *    `Bytes`,
 *  - time is `Seconds`, bandwidth `BytesPerSec` (alias `Bandwidth`),
 *  - compute work is `Flops` (a count), throughput `FlopRate` (FLOP/s),
 *  - power is `Watts`, energy `Joules`,
 *  - accelerator clocks count `Cycles` at a `Hertz` rate.
 *
 * Storage-industry bandwidth figures (e.g. "6,900 MB/s") are decimal;
 * capacities and page sizes are binary. Helpers exist for both.
 *
 * Adding a dimension: extend the exponent pack below, give the new base
 * dimension an alias with exponent 1, and derived aliases fall out of
 * the algebra (see DESIGN.md §10).
 */

#ifndef HILOS_COMMON_UNITS_H_
#define HILOS_COMMON_UNITS_H_

#include <cassert>
#include <cstdint>
#include <limits>
#include <type_traits>

namespace hilos {

template <int ByteE, int SecE, int FlopE, int EnergyE, int CycleE>
class Quantity;

namespace units_internal {

/** Maps a dimension vector to its quantity type; the dimensionless
 *  vector collapses to plain `double` so ratios read naturally. */
template <int B, int T, int F, int E, int C>
struct QuantityOf {
    using type = Quantity<B, T, F, E, C>;
};
template <>
struct QuantityOf<0, 0, 0, 0, 0> {
    using type = double;
};

template <int B, int T, int F, int E, int C>
using quantity_of_t = typename QuantityOf<B, T, F, E, C>::type;

/** A raw arithmetic operand (dimensionless) of a mixed operator. */
template <typename S>
concept Scalar = std::is_arithmetic_v<S>;

}  // namespace units_internal

/**
 * A dimensioned scalar: one `double` tagged with compile-time exponents
 * over the base dimensions (bytes, seconds, FLOPs, joules, cycles).
 * See the file comment for the algebra.
 */
template <int ByteE, int SecE, int FlopE, int EnergyE, int CycleE>
class Quantity
{
  public:
    constexpr Quantity() = default;
    /** Implicit by design: raw literals carry no dimension tag, so
     *  `Seconds t = 1e-3;` must stay legal. Quantity-to-quantity
     *  conversion is still rejected (it would need two user
     *  conversions). */
    constexpr Quantity(double v) : v_(v) {}  // NOLINT(google-explicit-constructor)

    /** Implicit by design: quantities flow into plain-double sinks
     *  (streams, accumulators, cmath). */
    constexpr operator double() const { return v_; }  // NOLINT(google-explicit-constructor)

    /** The underlying value in base units (bytes, seconds, ...). */
    constexpr double value() const { return v_; }

    constexpr Quantity &operator+=(Quantity o)
    {
        v_ += o.v_;
        return *this;
    }
    constexpr Quantity &operator-=(Quantity o)
    {
        v_ -= o.v_;
        return *this;
    }
    /** Dimensionless scaling only: `q *= other_quantity` is deleted. */
    constexpr Quantity &operator*=(double s)
    {
        v_ *= s;
        return *this;
    }
    constexpr Quantity &operator/=(double s)
    {
        v_ /= s;
        return *this;
    }
    template <int B, int T, int F, int E, int C>
    Quantity &operator*=(Quantity<B, T, F, E, C>) = delete;
    template <int B, int T, int F, int E, int C>
    Quantity &operator/=(Quantity<B, T, F, E, C>) = delete;

    constexpr Quantity operator-() const { return Quantity(-v_); }
    constexpr Quantity operator+() const { return *this; }

  private:
    double v_ = 0.0;
};

// ---------------------------------------------------------------------------
// Additive and relational operators: same dimension only. The general
// mixed-dimension templates are deleted; partial ordering selects the
// more-specialised same-dimension overloads when dimensions agree, so
// `Seconds + Bytes` names the deleted operator and fails to compile.
// ---------------------------------------------------------------------------

template <int B1, int T1, int F1, int E1, int C1,
          int B2, int T2, int F2, int E2, int C2>
void operator+(Quantity<B1, T1, F1, E1, C1>,
               Quantity<B2, T2, F2, E2, C2>) = delete;
template <int B1, int T1, int F1, int E1, int C1,
          int B2, int T2, int F2, int E2, int C2>
void operator-(Quantity<B1, T1, F1, E1, C1>,
               Quantity<B2, T2, F2, E2, C2>) = delete;
template <int B1, int T1, int F1, int E1, int C1,
          int B2, int T2, int F2, int E2, int C2>
void operator<(Quantity<B1, T1, F1, E1, C1>,
               Quantity<B2, T2, F2, E2, C2>) = delete;
template <int B1, int T1, int F1, int E1, int C1,
          int B2, int T2, int F2, int E2, int C2>
void operator>(Quantity<B1, T1, F1, E1, C1>,
               Quantity<B2, T2, F2, E2, C2>) = delete;
template <int B1, int T1, int F1, int E1, int C1,
          int B2, int T2, int F2, int E2, int C2>
void operator<=(Quantity<B1, T1, F1, E1, C1>,
                Quantity<B2, T2, F2, E2, C2>) = delete;
template <int B1, int T1, int F1, int E1, int C1,
          int B2, int T2, int F2, int E2, int C2>
void operator>=(Quantity<B1, T1, F1, E1, C1>,
                Quantity<B2, T2, F2, E2, C2>) = delete;
template <int B1, int T1, int F1, int E1, int C1,
          int B2, int T2, int F2, int E2, int C2>
void operator==(Quantity<B1, T1, F1, E1, C1>,
                Quantity<B2, T2, F2, E2, C2>) = delete;
template <int B1, int T1, int F1, int E1, int C1,
          int B2, int T2, int F2, int E2, int C2>
void operator!=(Quantity<B1, T1, F1, E1, C1>,
                Quantity<B2, T2, F2, E2, C2>) = delete;

template <int B, int T, int F, int E, int C>
constexpr Quantity<B, T, F, E, C>
operator+(Quantity<B, T, F, E, C> a, Quantity<B, T, F, E, C> b)
{
    return Quantity<B, T, F, E, C>(a.value() + b.value());
}
template <int B, int T, int F, int E, int C>
constexpr Quantity<B, T, F, E, C>
operator-(Quantity<B, T, F, E, C> a, Quantity<B, T, F, E, C> b)
{
    return Quantity<B, T, F, E, C>(a.value() - b.value());
}
template <int B, int T, int F, int E, int C>
constexpr bool
operator<(Quantity<B, T, F, E, C> a, Quantity<B, T, F, E, C> b)
{
    return a.value() < b.value();
}
template <int B, int T, int F, int E, int C>
constexpr bool
operator>(Quantity<B, T, F, E, C> a, Quantity<B, T, F, E, C> b)
{
    return a.value() > b.value();
}
template <int B, int T, int F, int E, int C>
constexpr bool
operator<=(Quantity<B, T, F, E, C> a, Quantity<B, T, F, E, C> b)
{
    return a.value() <= b.value();
}
template <int B, int T, int F, int E, int C>
constexpr bool
operator>=(Quantity<B, T, F, E, C> a, Quantity<B, T, F, E, C> b)
{
    return a.value() >= b.value();
}
template <int B, int T, int F, int E, int C>
constexpr bool
operator==(Quantity<B, T, F, E, C> a, Quantity<B, T, F, E, C> b)
{
    return a.value() == b.value();
}
template <int B, int T, int F, int E, int C>
constexpr bool
operator!=(Quantity<B, T, F, E, C> a, Quantity<B, T, F, E, C> b)
{
    return a.value() != b.value();
}

// Mixing with a raw arithmetic scalar (dimensionless) is permitted in
// additive and relational positions — `t > 0.0`, `t + slack`, `n > 0`
// — and resolved here explicitly so the builtin double operators never
// create ambiguity. The scalar is templated so integer operands match
// exactly too; it converts to double, as a `double` parameter would.
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr Quantity<B, T, F, E, C>
operator+(Quantity<B, T, F, E, C> a, S b)
{
    return Quantity<B, T, F, E, C>(a.value() + static_cast<double>(b));
}
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr Quantity<B, T, F, E, C>
operator+(S a, Quantity<B, T, F, E, C> b)
{
    return Quantity<B, T, F, E, C>(static_cast<double>(a) + b.value());
}
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr Quantity<B, T, F, E, C>
operator-(Quantity<B, T, F, E, C> a, S b)
{
    return Quantity<B, T, F, E, C>(a.value() - static_cast<double>(b));
}
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr Quantity<B, T, F, E, C>
operator-(S a, Quantity<B, T, F, E, C> b)
{
    return Quantity<B, T, F, E, C>(static_cast<double>(a) - b.value());
}
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr bool
operator<(Quantity<B, T, F, E, C> a, S b)
{
    return a.value() < static_cast<double>(b);
}
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr bool
operator<(S a, Quantity<B, T, F, E, C> b)
{
    return static_cast<double>(a) < b.value();
}
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr bool
operator>(Quantity<B, T, F, E, C> a, S b)
{
    return a.value() > static_cast<double>(b);
}
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr bool
operator>(S a, Quantity<B, T, F, E, C> b)
{
    return static_cast<double>(a) > b.value();
}
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr bool
operator<=(Quantity<B, T, F, E, C> a, S b)
{
    return a.value() <= static_cast<double>(b);
}
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr bool
operator<=(S a, Quantity<B, T, F, E, C> b)
{
    return static_cast<double>(a) <= b.value();
}
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr bool
operator>=(Quantity<B, T, F, E, C> a, S b)
{
    return a.value() >= static_cast<double>(b);
}
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr bool
operator>=(S a, Quantity<B, T, F, E, C> b)
{
    return static_cast<double>(a) >= b.value();
}
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr bool
operator==(Quantity<B, T, F, E, C> a, S b)
{
    return a.value() == static_cast<double>(b);
}
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr bool
operator==(S a, Quantity<B, T, F, E, C> b)
{
    return static_cast<double>(a) == b.value();
}
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr bool
operator!=(Quantity<B, T, F, E, C> a, S b)
{
    return a.value() != static_cast<double>(b);
}
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr bool
operator!=(S a, Quantity<B, T, F, E, C> b)
{
    return static_cast<double>(a) != b.value();
}

// ---------------------------------------------------------------------------
// Multiplicative operators: dimensions combine. A dimensionless result
// collapses to plain double (Seconds / Seconds is a ratio).
// ---------------------------------------------------------------------------

template <int B1, int T1, int F1, int E1, int C1,
          int B2, int T2, int F2, int E2, int C2>
constexpr units_internal::quantity_of_t<B1 + B2, T1 + T2, F1 + F2, E1 + E2,
                                        C1 + C2>
operator*(Quantity<B1, T1, F1, E1, C1> a, Quantity<B2, T2, F2, E2, C2> b)
{
    return units_internal::quantity_of_t<B1 + B2, T1 + T2, F1 + F2, E1 + E2,
                                         C1 + C2>(a.value() * b.value());
}

template <int B1, int T1, int F1, int E1, int C1,
          int B2, int T2, int F2, int E2, int C2>
constexpr units_internal::quantity_of_t<B1 - B2, T1 - T2, F1 - F2, E1 - E2,
                                        C1 - C2>
operator/(Quantity<B1, T1, F1, E1, C1> a, Quantity<B2, T2, F2, E2, C2> b)
{
    return units_internal::quantity_of_t<B1 - B2, T1 - T2, F1 - F2, E1 - E2,
                                         C1 - C2>(a.value() / b.value());
}

/** Dimensionless scaling: `2.0 * t`, `t * 0.5`, `bytes_q / devices`. */
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr Quantity<B, T, F, E, C>
operator*(Quantity<B, T, F, E, C> a, S s)
{
    return Quantity<B, T, F, E, C>(a.value() * static_cast<double>(s));
}
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr Quantity<B, T, F, E, C>
operator*(S s, Quantity<B, T, F, E, C> a)
{
    return Quantity<B, T, F, E, C>(static_cast<double>(s) * a.value());
}
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr Quantity<B, T, F, E, C>
operator/(Quantity<B, T, F, E, C> a, S s)
{
    return Quantity<B, T, F, E, C>(a.value() / static_cast<double>(s));
}

/**
 * Dividing a raw double by a quantity inverts the dimension — so a bare
 * byte count over a bandwidth is seconds-per-byte-scaled junk until the
 * count is annotated: write `Bytes(n) / bw` to get `Seconds`.
 */
template <int B, int T, int F, int E, int C, units_internal::Scalar S>
constexpr units_internal::quantity_of_t<-B, -T, -F, -E, -C>
operator/(S s, Quantity<B, T, F, E, C> a)
{
    return units_internal::quantity_of_t<-B, -T, -F, -E, -C>(
        static_cast<double>(s) / a.value());
}

// ---------------------------------------------------------------------------
// The dimension vocabulary. Base dimensions first, derived after; new
// combinations fall out of the algebra without being named here.
// ---------------------------------------------------------------------------

/** Continuous byte quantity (traffic, footprints). Discrete sizes stay
 *  `std::uint64_t`; annotate them at dimensional boundaries:
 *  `Bytes(n) / bw -> Seconds`. */
using Bytes = Quantity<1, 0, 0, 0, 0>;
/** Seconds. */
using Seconds = Quantity<0, 1, 0, 0, 0>;
/** Floating-point operation count. */
using Flops = Quantity<0, 0, 1, 0, 0>;
/** Joules. */
using Joules = Quantity<0, 0, 0, 1, 0>;
/** Clock-cycle count. */
using Cycles = Quantity<0, 0, 0, 0, 1>;

/** Bytes per second. */
using BytesPerSec = Quantity<1, -1, 0, 0, 0>;
/** Historical name for BytesPerSec, kept for signature readability. */
using Bandwidth = BytesPerSec;
/** FLOP per second. */
using FlopRate = Quantity<0, -1, 1, 0, 0>;
/** Watts (joules per second). */
using Watts = Quantity<0, -1, 0, 1, 0>;
/** Clock frequency (cycles per second). */
using Hertz = Quantity<0, -1, 0, 0, 1>;

// Binary sizes (capacities, page/buffer sizes).
constexpr std::uint64_t KiB = 1024ull;
constexpr std::uint64_t MiB = 1024ull * KiB;
constexpr std::uint64_t GiB = 1024ull * MiB;
constexpr std::uint64_t TiB = 1024ull * GiB;

// Decimal sizes (datasheet bandwidth and capacity figures).
constexpr double KB = 1e3;
constexpr double MB = 1e6;
constexpr double GB = 1e9;
constexpr double TB = 1e12;

/** Decimal gigabytes-per-second to bytes-per-second. */
constexpr Bandwidth
gbps(double x)
{
    return Bandwidth(x * GB);
}

/** Decimal megabytes-per-second to bytes-per-second. */
constexpr Bandwidth
mbps(double x)
{
    return Bandwidth(x * MB);
}

/** TFLOPS to FLOP/s. */
constexpr FlopRate
tflops(double x)
{
    return FlopRate(x * 1e12);
}

/** GFLOPS to FLOP/s. */
constexpr FlopRate
gflops(double x)
{
    return FlopRate(x * 1e9);
}

/** Microseconds to seconds. */
constexpr Seconds
usec(double x)
{
    return Seconds(x * 1e-6);
}

/** Milliseconds to seconds. */
constexpr Seconds
msec(double x)
{
    return Seconds(x * 1e-3);
}

/** Megahertz to Hertz. */
// lint: reference (quantity algebra pinned by the unit tests)
constexpr Hertz
mhz(double x)
{
    return Hertz(x * 1e6);
}

/**
 * Period of one cycle at frequency `f`: the named conversion for what
 * used to be an inline `1.0 / freq` (whose quantity-algebra result is
 * seconds-per-cycle, not Seconds).
 */
// lint: reference (quantity algebra pinned by the compile-fail tests)
constexpr Seconds
sec(Hertz f)
{
    return Seconds(1.0 / f.value());
}

/** Frequency whose single-cycle period is `period` (inverse of sec()). */
// lint: reference (quantity algebra pinned by the unit tests)
constexpr Hertz
hz(Seconds period)
{
    return Hertz(1.0 / period.value());
}

/** Integer ceiling division for positive integers (b > 0). */
constexpr std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    assert(b != 0 && "ceilDiv by zero");
    return (a + b - 1) / b;
}

/** Round `a` up to the next multiple of `b` (b > 0). */
constexpr std::uint64_t
roundUp(std::uint64_t a, std::uint64_t b)
{
    assert(b != 0 && "roundUp by zero");
    return ceilDiv(a, b) * b;
}

}  // namespace hilos

/**
 * Quantities inherit double's limits (infinity, epsilon, ...). Without
 * this, `std::numeric_limits<Seconds>::infinity()` would silently hit
 * the unspecialized primary template and return zero.
 */
template <int ByteE, int SecE, int FlopE, int EnergyE, int CycleE>
struct std::numeric_limits<hilos::Quantity<ByteE, SecE, FlopE, EnergyE, CycleE>>
    : std::numeric_limits<double> {
};

#endif  // HILOS_COMMON_UNITS_H_
