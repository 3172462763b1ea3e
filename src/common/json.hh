/**
 * @file
 * The one JSON string quoter behind every JSON surface: result
 * records, --json figure output and the Perfetto trace.
 */

#ifndef OOVA_COMMON_JSON_HH
#define OOVA_COMMON_JSON_HH

#include <string>
#include <string_view>

namespace oova
{

/**
 * @p s as a quoted JSON string literal: quote and backslash escaped,
 * `\n` and `\t` as themselves, other control bytes as `\u00XX`.
 */
std::string jsonString(std::string_view s);

} // namespace oova

#endif // OOVA_COMMON_JSON_HH
