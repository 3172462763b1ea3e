/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Rng serves the tests and bench/simspeed.cc, which draw random
 * memory geometries, address streams and traces from fixed seeds so
 * that every run sees the same draws. Nothing in src/ uses it: the
 * workload generator's traces follow from the program models alone,
 * and gather/scatter indices come from mix64() in indexedElemAddrs()
 * (isa/instruction.cc). The generator is xoshiro256** (Blackman &
 * Vigna), which is small, fast and has no global state.
 */

#ifndef OOVA_COMMON_RNG_HH
#define OOVA_COMMON_RNG_HH

#include <cstdint>

namespace oova
{

/** xoshiro256** pseudo-random generator with convenience helpers. */
class Rng
{
  public:
    /** Seed via splitmix64 so any 64-bit seed yields a good state. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform integer in [lo, hi] (inclusive). Requires lo <= hi. */
    uint64_t uniform(uint64_t lo, uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniformReal();

    /** Bernoulli trial: true with probability p (clamped to [0,1]). */
    bool chance(double p);

  private:
    uint64_t state_[4];
};

} // namespace oova

#endif // OOVA_COMMON_RNG_HH
