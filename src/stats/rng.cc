/**
 * @file
 * Jump-ahead for the xoshiro256** generator: polynomial arithmetic
 * over GF(2) modulo the characteristic polynomial of its state
 * transition.
 */

#include "stats/rng.hh"

namespace statsched
{
namespace stats
{

namespace
{

/**
 * p(x) without its leading x^256 term: the characteristic polynomial
 * of the xoshiro256 transition, found by Berlekamp-Massey on the
 * generator's output bits. x^(2^128) and x^(2^192) modulo it are the
 * reference JUMP and LONG_JUMP constants (tests/stats/test_rng.cc).
 */
constexpr Rng::Polynomial kCharacteristicLow = {
    0x9d116f2bb0f0f001ull, 0x0280002bcefd1a5eull,
    0x04b4edcf26259f85ull, 0x0003c03c3f3ecb19ull};

/** a <- a * x mod p(x). */
void
timesX(Rng::Polynomial &a)
{
    const bool overflow = (a[3] >> 63) != 0;
    a[3] = (a[3] << 1) | (a[2] >> 63);
    a[2] = (a[2] << 1) | (a[1] >> 63);
    a[1] = (a[1] << 1) | (a[0] >> 63);
    a[0] <<= 1;
    if (overflow) {
        // x^256 = p(x) - x^256 over GF(2).
        for (int w = 0; w < 4; ++w)
            a[w] ^= kCharacteristicLow[w];
    }
}

} // anonymous namespace

Rng::Polynomial
detail::mulModCharacteristic(const Rng::Polynomial &a,
                             const Rng::Polynomial &b)
{
    // Horner over b's coefficients, highest first: r = r * x + b_i a.
    Rng::Polynomial r = {};
    for (int i = 255; i >= 0; --i) {
        timesX(r);
        if ((b[i / 64] >> (i % 64)) & 1) {
            for (int w = 0; w < 4; ++w)
                r[w] ^= a[w];
        }
    }
    return r;
}

Rng::Polynomial
Rng::jumpPolynomial(std::uint64_t steps)
{
    // Left-to-right square-and-multiply: after bit b, r holds
    // x^(steps >> b) mod p(x).
    Polynomial r = {1, 0, 0, 0};
    for (int bit = 63; bit >= 0; --bit) {
        if ((steps >> bit) == 0)
            continue;
        r = detail::mulModCharacteristic(r, r);
        if ((steps >> bit) & 1)
            timesX(r);
    }
    return r;
}

void
Rng::jump(const Polynomial &poly)
{
    // Cayley-Hamilton: M^n = sum_i q_i M^i with q = x^n mod p, so the
    // state n steps ahead is the XOR of the states i steps ahead for
    // every coefficient q_i that is set.
    std::uint64_t acc[4] = {};
    for (const std::uint64_t word : poly) {
        for (int b = 0; b < 64; ++b) {
            if ((word >> b) & 1) {
                for (int w = 0; w < 4; ++w)
                    acc[w] ^= state_[w];
            }
            step();
        }
    }
    for (int w = 0; w < 4; ++w)
        state_[w] = acc[w];
}

} // namespace stats
} // namespace statsched
