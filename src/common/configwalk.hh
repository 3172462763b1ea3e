/**
 * @file
 * The vocabulary of the config walks. Each machine-config struct
 * (LatencyTable, TlbConfig, MemConfig, OooConfig, RefConfig) has one
 * walkConfig(cfg, visitor) next to its members, which names every
 * member once, in declaration order, with two facts about it:
 *
 *  - its key role. sweepConfigKey() writes every member the walk
 *    passes to field(); observe-only members go to unkeyed();
 *  - the validity rule validate() applies to it, if any.
 *
 * A visitor has three members:
 *
 *     template <typename T>
 *     void field(const char *name, T &member, const ConfigField &f = {});
 *     template <typename T> void unkeyed(const char *name, T &member);
 *     template <typename C> void nest(const char *name, C &sub);
 *
 * A walk takes its config const or mutable, so one list serves the
 * store key, the checks and tests that perturb one member at a time.
 * scripts/lint_oova.py checks that each walk covers every member.
 */

#ifndef OOVA_COMMON_CONFIGWALK_HH
#define OOVA_COMMON_CONFIGWALK_HH

#include <bit>
#include <concepts>
#include <cstdint>
#include <type_traits>

namespace oova
{

/** @p C is the config struct @p T, const or not. */
template <typename C, typename T>
concept ConfigOf = std::same_as<std::remove_const_t<C>, T>;

/** What a config walk states about one keyed member. */
struct ConfigField
{
    /** How sweepConfigKey() writes the member. */
    enum class Key : uint8_t
    {
        Value,     ///< the value as set
        Telemetry, ///< as the simulators apply it: set, or OOVA_TELEMETRY
    };
    Key key = Key::Value;

    // The validity rule, if `what` is set: min <= value <= max, and a
    // power of two when pow2 is set. It holds trivially where
    // `applies` is false (bank geometry on a cache, say).
    unsigned min = 0;
    unsigned max = ~0u;
    bool pow2 = false;
    bool applies = true;
    /** fatal() format for a value that breaks the rule: value, min. */
    const char *what = nullptr;

    constexpr bool
    holds(uint64_t v) const
    {
        return !what || !applies ||
               (v >= min && v <= max && (!pow2 || std::has_single_bit(v)));
    }
};

} // namespace oova

#endif // OOVA_COMMON_CONFIGWALK_HH
