/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component of the library (assignment sampler,
 * measurement noise, traffic generator) draws from an explicitly
 * seeded Rng so that all experiments are exactly reproducible. The
 * engine is xoshiro256** — fast, high quality, and trivially
 * splittable via SplitMix64-seeded streams.
 *
 * The state transition of xoshiro256 is linear over GF(2), so the
 * generator can also jump ahead: advancing n steps is multiplying the
 * state by x^n modulo the transition's characteristic polynomial p(x)
 * (Haramoto et al., 2008). jumpPolynomial() computes that residue and
 * jump() applies it, which lets a caller start several workers at
 * known positions of one stream.
 */

#ifndef STATSCHED_STATS_RNG_HH
#define STATSCHED_STATS_RNG_HH

#include <array>
#include <cmath>
#include <cstdint>

namespace statsched
{
namespace stats
{

/**
 * xoshiro256** PRNG with SplitMix64 seeding.
 */
class Rng
{
  public:
    /**
     * A polynomial over GF(2) of degree below 256: word w holds the
     * coefficients of x^(64w) .. x^(64w+63), lowest bit first.
     */
    using Polynomial = std::array<std::uint64_t, 4>;

    /** Constructs a generator from a 64-bit seed. */
    explicit Rng(std::uint64_t seed)
    {
        // SplitMix64 expansion of the seed into the 256-bit state.
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** @return the next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result =
            rotl(state_[1] * 5ull, 7) * 9ull;
        step();
        return result;
    }

    /**
     * @return x^steps mod p(x): the polynomial that jump() turns into
     *         an advance of `steps` calls to next(). Costs one GF(2)
     *         squaring per bit of `steps`, tens of microseconds, so
     *         callers build it once per stride and reuse it.
     */
    static Polynomial jumpPolynomial(std::uint64_t steps);

    /**
     * Advances the raw stream as far as the residue `poly` encodes —
     * jump(jumpPolynomial(n)) leaves the state n calls to next()
     * ahead — with the accumulate-and-step loop of the reference
     * xoshiro256 jump(). The cached normal() spare is left as is.
     */
    void jump(const Polynomial &poly);

    /** @return a uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return a uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /**
     * @return a uniform integer in [0, bound) using Lemire's unbiased
     *         multiply-shift rejection method.
     * @pre bound > 0
     */
    std::uint64_t
    uniformInt(std::uint64_t bound)
    {
        // Lemire (2019): multiply and reject the biased low zone.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        std::uint64_t l = static_cast<std::uint64_t>(m);
        if (l < bound) {
            const std::uint64_t t = (0ull - bound) % bound;
            while (l < t) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                l = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** @return a standard normal deviate (Box-Muller). */
    double
    normal()
    {
        if (haveSpare_) {
            haveSpare_ = false;
            return spare_;
        }
        double u1 = uniform();
        while (u1 <= 0.0)
            u1 = uniform();
        const double u2 = uniform();
        const double r = std::sqrt(-2.0 * std::log(u1));
        const double theta = 2.0 * M_PI * u2;
        spare_ = r * std::sin(theta);
        haveSpare_ = true;
        return r * std::cos(theta);
    }

    /** @return a normal deviate with the given mean and stddev. */
    double
    normal(double mu, double sd)
    {
        return mu + sd * normal();
    }

    /**
     * @return an independent generator derived from this one (for
     *         per-task or per-assignment substreams).
     */
    Rng
    split()
    {
        return Rng(next() ^ 0xd1b54a32d192ed03ull);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t v, int k)
    {
        return (v << k) | (v >> (64 - k));
    }

    /** The linear state transition shared by next() and jump(). */
    void
    step()
    {
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
    }

    std::uint64_t state_[4] = {};
    double spare_ = 0.0;
    bool haveSpare_ = false;
};

namespace detail
{

/**
 * @return a * b mod p(x) over GF(2), where p(x) is the characteristic
 *         polynomial of the xoshiro256 state transition. Exposed so
 *         tests can rebuild the reference jump constants.
 */
Rng::Polynomial mulModCharacteristic(const Rng::Polynomial &a,
                                     const Rng::Polynomial &b);

} // namespace detail

} // namespace stats
} // namespace statsched

#endif // STATSCHED_STATS_RNG_HH
