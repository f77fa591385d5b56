#include "sim/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace anton2 {

namespace {

/** jsonNumber's text of @p x, written to @p buf; returns its end. */
char *
formatNumber(char (&buf)[40], double x)
{
    if (!std::isfinite(x))
        return std::copy_n("null", 4, buf);
    if (x == std::floor(x) && std::fabs(x) < 9.007199254740992e15) {
        // Exact integers print as "%.0f" prints them, -0 included.
        if (x == 0 && std::signbit(x))
            return std::copy_n("-0", 2, buf);
        return std::to_chars(buf, buf + sizeof(buf),
                             static_cast<std::int64_t>(x))
            .ptr;
    }
    return buf + std::snprintf(buf, sizeof(buf), "%.17g", x);
}

} // namespace

std::string
jsonNumber(double x)
{
    char buf[40];
    return std::string(buf, formatNumber(buf, x));
}

JsonWriter &
JsonWriter::number(double x)
{
    char buf[40];
    return raw(std::string_view(buf, formatNumber(buf, x)));
}

JsonWriter &
JsonWriter::string(std::string_view s)
{
    separate();
    out_ += '"';
    const auto plain = [](char c) {
        return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
    };
    // Most strings, every key among them, need no escape: copy them whole.
    if (std::all_of(s.begin(), s.end(), plain)) {
        out_ += s;
        out_ += '"';
        return *this;
    }
    for (const char c : s) {
        switch (c) {
          case '"': out_ += "\\\""; break;
          case '\\': out_ += "\\\\"; break;
          case '\n': out_ += "\\n"; break;
          case '\t': out_ += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out_ += buf;
            } else {
                out_ += c;
            }
        }
    }
    out_ += '"';
    return *this;
}

} // namespace anton2
