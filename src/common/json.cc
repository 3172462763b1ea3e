#include "common/json.hh"

#include "common/logging.hh"

namespace oova
{

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += csprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
    return out;
}

} // namespace oova
