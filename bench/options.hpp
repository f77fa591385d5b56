/**
 * @file
 * Declarative command-line option registry for the experiment harnesses.
 *
 * Every bench declares its flags once - name, value placeholder, help
 * text, destination - and gets parsing, `--help` generation, and
 * unknown-flag diagnostics for free. This replaces the per-bench
 * copy-pasted `Args::flag(...)` scans: a flag that is not registered is
 * now an error instead of being silently ignored.
 *
 * Usage:
 *     long k = 8;
 *     const char *out = nullptr;
 *     bench::OptionRegistry reg("Figure N: what this bench reproduces");
 *     reg.add("--k", "N", "torus radix per dimension", &k, 2);
 *     reg.add("--out", "PATH", "write the output here", &out);
 *     if (!reg.parse(argc, argv))
 *         return 1;
 *
 * `--help`/`-h` prints the generated usage text and exits successfully.
 * A numeric flag may declare its valid range [lo, hi]; a value outside
 * it fails the parse with `error: --m must be >= 1` (or `in [lo, hi]`).
 * A flag the bench narrows to `int` declares hi = INT_MAX, and a value
 * beyond what `long` holds fails as out of range.
 */
#pragma once

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace anton2::bench {

/** True when @p v lies in [@p lo, @p hi]; otherwise prints
 * `error: NAME must be >= LO` (`must be in [LO, HI]` when bounded above)
 * and returns false. */
inline bool
checkRange(const char *name, long v, long lo, long hi)
{
    if (v >= lo && v <= hi)
        return true;
    if (hi == LONG_MAX)
        std::fprintf(stderr, "error: %s must be >= %ld\n", name, lo);
    else
        std::fprintf(stderr, "error: %s must be in [%ld, %ld]\n", name, lo,
                     hi);
    return false;
}

class OptionRegistry
{
  public:
    /** @param summary one-line description printed at the top of --help */
    explicit OptionRegistry(std::string summary)
        : summary_(std::move(summary))
    {
    }

    /** Integer-valued option: `--name <VALUE>`, valid in [lo, hi]. */
    void
    add(const char *name, const char *value_name, const char *help,
        long *out, long lo = LONG_MIN, long hi = LONG_MAX)
    {
        opts_.push_back(
            { name, value_name, help, Kind::Long, out, nullptr, lo, hi });
    }

    /** Real-valued option: `--name <VALUE>`. */
    void
    add(const char *name, const char *value_name, const char *help,
        double *out)
    {
        opts_.push_back({ name, value_name, help, Kind::Double, out });
    }

    /** String-valued option (stores a pointer into argv). */
    void
    add(const char *name, const char *value_name, const char *help,
        const char **out)
    {
        opts_.push_back({ name, value_name, help, Kind::String, out });
    }

    /** Valueless presence flag: `--name` sets *out to true. */
    void
    add(const char *name, const char *help, bool *out)
    {
        opts_.push_back({ name, nullptr, help, Kind::Flag, out });
    }

    /**
     * Presence flag with an optional attached value: `--name` sets
     * *present; `--name=VALUE` additionally stores the value (pointing
     * into argv). The value must be attached with `=` - a following
     * bare argument is not consumed, so `--name PATH` leaves *out
     * null and treats PATH as the next argument.
     */
    void
    addOptional(const char *name, const char *value_name,
                const char *help, bool *present, const char **out)
    {
        opts_.push_back(
            { name, value_name, help, Kind::OptionalString, present,
              out });
    }

    /** Accept one optional positional argument (stores argv pointer). */
    void
    addPositional(const char *value_name, const char *help,
                  const char **out)
    {
        positional_ = { "", value_name, help, Kind::String, out };
        has_positional_ = true;
    }

    /**
     * Parse argv against the registered options. Prints the generated
     * usage text and exits 0 on `--help`/`-h`; prints a diagnostic and
     * returns false on an unknown flag, a missing value, an unparseable
     * number, or a number outside its flag's range.
     */
    bool
    parse(int argc, char **argv)
    {
        const char *prog = argc > 0 ? argv[0] : "bench";
        bool got_positional = false;
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (std::strcmp(arg, "--help") == 0
                || std::strcmp(arg, "-h") == 0) {
                printHelp(prog);
                std::exit(0);
            }
            // `--name=value` attaches the value to the flag itself;
            // every kind accepts it, and it is the only way to give an
            // OptionalString flag its value.
            const char *eq = std::strncmp(arg, "--", 2) == 0
                                 ? std::strchr(arg, '=')
                                 : nullptr;
            std::string name_buf;
            const char *lookup = arg;
            if (eq != nullptr) {
                name_buf.assign(arg, eq);
                lookup = name_buf.c_str();
            }
            const Opt *opt = find(lookup);
            if (opt == nullptr) {
                if (has_positional_ && !got_positional
                    && std::strncmp(arg, "--", 2) != 0) {
                    *static_cast<const char **>(positional_.out) = arg;
                    got_positional = true;
                    continue;
                }
                std::fprintf(stderr,
                             "error: unknown option '%s' (try --help)\n",
                             lookup);
                return false;
            }
            if (opt->kind == Kind::OptionalString) {
                *static_cast<bool *>(opt->out) = true;
                if (eq != nullptr)
                    *static_cast<const char **>(opt->out2) = eq + 1;
                continue;
            }
            if (opt->kind == Kind::Flag) {
                if (eq != nullptr) {
                    std::fprintf(stderr,
                                 "error: %s does not take a value\n",
                                 lookup);
                    return false;
                }
                *static_cast<bool *>(opt->out) = true;
                continue;
            }
            const char *val = nullptr;
            if (eq != nullptr) {
                val = eq + 1;
            } else {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "error: %s requires a value\n",
                                 opt->name);
                    return false;
                }
                val = argv[++i];
            }
            if (!store(*opt, val))
                return false;
        }
        return true;
    }

    void
    printHelp(const char *prog) const
    {
        std::string usage = std::string("usage: ") + prog + " [options]";
        if (has_positional_) {
            usage += " [";
            usage += positional_.value_name;
            usage += "]";
        }
        std::printf("%s\n\n%s\n\noptions:\n", usage.c_str(),
                    summary_.c_str());
        for (const Opt &o : opts_)
            printRow(o);
        printRow({ "--help", nullptr, "print this message and exit",
                   Kind::Flag, nullptr });
        if (has_positional_) {
            std::printf("\npositional:\n");
            printRow(positional_);
        }
    }

  private:
    enum class Kind
    {
        Long,
        Double,
        String,
        Flag,
        OptionalString, ///< presence flag with optional `=VALUE`
    };

    struct Opt
    {
        const char *name;       ///< "--flag" (empty for the positional)
        const char *value_name; ///< placeholder in --help, null for flags
        const char *help;
        Kind kind;
        void *out;
        void *out2 = nullptr;   ///< OptionalString: the value slot
        long lo = LONG_MIN;     ///< Long: valid range
        long hi = LONG_MAX;
    };

    const Opt *
    find(const char *arg) const
    {
        for (const Opt &o : opts_) {
            if (std::strcmp(o.name, arg) == 0)
                return &o;
        }
        return nullptr;
    }

    /** Store a Long, Double or String option's value. */
    bool
    store(const Opt &opt, const char *val) const
    {
        if (opt.kind == Kind::String) {
            *static_cast<const char **>(opt.out) = val;
            return true;
        }
        char *end = nullptr;
        long n = 0;
        errno = 0;
        if (opt.kind == Kind::Long)
            *static_cast<long *>(opt.out) = n = std::strtol(val, &end, 10);
        else
            *static_cast<double *>(opt.out) = std::strtod(val, &end);
        if (end == val || *end != '\0') {
            std::fprintf(stderr, "error: %s expects a number, got '%s'\n",
                         opt.name, val);
            return false;
        }
        if (errno == ERANGE) {
            std::fprintf(stderr, "error: %s value '%s' is out of range\n",
                         opt.name, val);
            return false;
        }
        return opt.kind != Kind::Long
               || checkRange(opt.name, n, opt.lo, opt.hi);
    }

    static void
    printRow(const Opt &o)
    {
        std::string left = "  ";
        left += o.name;
        if (o.value_name != nullptr) {
            const bool optional = o.kind == Kind::OptionalString;
            left += optional ? "[=" : o.name[0] != '\0' ? " <" : "<";
            left += o.value_name;
            left += optional ? "]" : ">";
        }
        std::printf("%-26s %s\n", left.c_str(), o.help);
    }

    std::string summary_;
    std::vector<Opt> opts_;
    Opt positional_{ "", nullptr, nullptr, Kind::String, nullptr };
    bool has_positional_ = false;
};

} // namespace anton2::bench
