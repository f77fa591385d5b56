/**
 * @file
 * JsonWriter: the one streaming JSON writer behind every export (the
 * run report, the Chrome traces, the forensic snapshot, the bench
 * reports), and jsonNumber, the number format it shares with the CSVs.
 */
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace anton2 {

/** Format a double for JSON: NaN/Inf -> "null", integral values without
 * a fraction, everything else round-trippable via %.17g. */
std::string jsonNumber(double x);

/**
 * Streams one JSON document into a string, building no tree. Callers
 * name containers, keys and values; the writer alone places commas,
 * line breaks, indents and brackets, so an export adds fields, never
 * layout. A container has one of two styles:
 *  - Pretty: each member on its own line at (depth + 1) * indent
 *    spaces, the closer on its own line at depth * indent; an empty
 *    container prints `{}` or `[]`. Indent 0 still breaks lines.
 *  - Inline: `{"a": 1, "b": 2}` and `[1, 2]`.
 * Numbers are formatted per field: number() as jsonNumber (exact below
 * 2^53), integer() in full decimal as std::to_string. raw() splices a
 * value serialized elsewhere, keeping its own indentation.
 */
class JsonWriter
{
  public:
    enum Style : std::uint8_t { Pretty, Inline };

    /** @p depth: the nesting depth the document is spliced in at. */
    explicit JsonWriter(std::size_t indent = 2, std::size_t depth = 0)
        : indent_(indent), depth_(depth)
    {
    }

    JsonWriter &beginObject(Style s = Pretty) { return open("{", '}', s); }
    JsonWriter &beginArray(Style s = Pretty) { return open("[", ']', s); }

    /** Close the innermost open container. */
    JsonWriter &
    end()
    {
        const Frame f = open_.back();
        open_.pop_back();
        if (f.style == Pretty && !f.empty)
            newline();
        out_ += f.closer;
        return *this;
    }

    /** An object member's key; the value written next completes it. */
    JsonWriter &
    key(std::string_view k)
    {
        string(k).out_ += ": ";
        keyed_ = true;
        return *this;
    }

    /** @p s as an escaped, double-quoted string literal. */
    JsonWriter &string(std::string_view s);
    JsonWriter &number(double x);
    JsonWriter &boolean(bool b) { return raw(b ? "true" : "false"); }
    JsonWriter &null() { return raw("null"); }

    JsonWriter &
    integer(std::integral auto v)
    {
        char buf[24];
        return raw({ buf, std::to_chars(buf, buf + sizeof(buf), v).ptr });
    }

    /** Splice an already serialized value. */
    JsonWriter &
    raw(std::string_view json)
    {
        separate();
        out_ += json;
        return *this;
    }

    /** The document; complete once every container is closed. */
    std::string take() { return std::move(out_); }

  private:
    struct Frame
    {
        char closer;
        Style style;
        bool empty = true;
    };

    JsonWriter &
    open(std::string_view opener, char closer, Style style)
    {
        raw(opener);
        open_.push_back({ closer, style });
        return *this;
    }

    /** Nothing right after a key; else a comma after a sibling, and a
     * new line in a pretty container. */
    void
    separate()
    {
        if (std::exchange(keyed_, false) || open_.empty())
            return;
        Frame &f = open_.back();
        if (!std::exchange(f.empty, false))
            out_ += f.style == Pretty ? "," : ", ";
        if (f.style == Pretty)
            newline();
    }

    /** Break the line and indent to the open containers' depth. */
    void
    newline()
    {
        out_ += '\n';
        out_.append(indent_ * (depth_ + open_.size()), ' ');
    }

    std::string out_;
    std::vector<Frame> open_;
    std::size_t indent_;
    std::size_t depth_;
    bool keyed_ = false;
};

} // namespace anton2
