/**
 * @file
 * Small shared command-line option parser.
 *
 * Replaces the ad-hoc `--key value` pair scanner the CLI grew up
 * with, which silently dropped a trailing odd token and accepted any
 * unknown option. OptionParser requires options to be declared up
 * front, supports boolean flags and both `--key value` and
 * `--key=value` spellings, and reports unknown options, missing
 * values and malformed numbers as errors instead of guessing: a
 * numeric option declares its type and range, and parse() refuses,
 * by the option's name, any value outside them.
 *
 * Header-only; no dependencies beyond the standard library.
 */

#ifndef STATSCHED_BASE_CLI_HH
#define STATSCHED_BASE_CLI_HH

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>

namespace statsched
{
namespace base
{

/**
 * Parses all of `text` into `out` as one decimal Number, an integer
 * type or double. @return false on leading space, trailing text (such
 * as an exponent, for an integer type), a sign on an unsigned type, or
 * a value Number cannot hold or that is not finite.
 */
template <typename Number>
bool
parseNumber(const std::string &text, Number &out)
{
    const char *first = text.data();
    const char *const last = first + text.size();
    // strtol and strtod, which read these options before, took a '+'.
    if (std::is_signed_v<Number> && last - first > 1 && *first == '+' &&
        first[1] != '-')
        ++first;
    const auto [end, error] = std::from_chars(first, last, out);
    return error == std::errc() && end == last && std::isfinite(out);
}

/**
 * Declared-options command-line parser.
 *
 * Usage:
 *     OptionParser parser;
 *     parser.addInt("samples", "2000", "sample size", 1);
 *     parser.addFlag("no-memoize", "disable the measurement cache");
 *     if (!parser.parse(argc, argv, 2)) {
 *         fprintf(stderr, "%s\n", parser.error().c_str());
 *         return 2;
 *     }
 *     long n = parser.getInt("samples");
 */
class OptionParser
{
  public:
    /** Whether a real option's range includes its finite ends. */
    enum Ends { Closed, Open };

    /** A range end that bounds nothing (negate it for the lower). */
    static constexpr double kInfinity =
        std::numeric_limits<double>::infinity();

    /**
     * Declares a value-taking option that parse() takes as text.
     *
     * @param name     Option name without the leading "--".
     * @param fallback Value reported when the option is absent.
     * @param help     One-line description for usage text.
     */
    OptionParser &
    addOption(const std::string &name, const std::string &fallback,
              const std::string &help = "")
    {
        specs_[name] = Spec{Kind::Text, fallback, help};
        return *this;
    }

    /**
     * Declares a boolean flag: present means true, no value is
     * consumed (`--flag`, or `--flag=` one of 0, 1, true, false).
     */
    OptionParser &
    addFlag(const std::string &name, const std::string &help = "")
    {
        specs_[name] = Spec{Kind::Flag, "0", help};
        return *this;
    }

    /** Declares an option that takes an integer in [lo, hi]; a finite
     *  end must be an integer below 2^53, so it is exact. */
    OptionParser &
    addInt(const std::string &name, const std::string &fallback,
           const std::string &help, double lo = -kInfinity,
           double hi = kInfinity)
    {
        specs_[name] = Spec{Kind::Int, fallback, help, lo, hi};
        return *this;
    }

    /** Declares an option that takes a finite number between lo and
     *  hi, both ends included or neither. */
    OptionParser &
    addReal(const std::string &name, const std::string &fallback,
            const std::string &help, double lo, double hi = kInfinity,
            Ends ends = Closed)
    {
        specs_[name] = Spec{Kind::Real, fallback, help, lo, hi,
                            ends == Open};
        return *this;
    }

    /**
     * Parses argv[first..argc). On failure returns false and leaves
     * the reason, which names the option, in error().
     */
    bool
    parse(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            std::string token = argv[i];
            if (token.rfind("--", 0) != 0) {
                error_ = "expected --option, got '" + token + "'";
                return false;
            }
            token.erase(0, 2);

            std::string value = "1"; // what a bare --flag means
            bool has_inline = false;
            const auto eq = token.find('=');
            if (eq != std::string::npos) {
                value = token.substr(eq + 1);
                token.resize(eq);
                has_inline = true;
            }

            const auto spec = specs_.find(token);
            if (spec == specs_.end()) {
                error_ = "unknown option '--" + token + "'";
                return false;
            }
            const bool isFlag = spec->second.kind == Kind::Flag;
            if (!isFlag && !has_inline) {
                if (i + 1 >= argc) {
                    error_ = "missing value for '--" + token + "'";
                    return false;
                }
                value = argv[++i];
            }
            if (!isFlag && value.empty()) {
                error_ = "empty value for '--" + token + "'";
                return false;
            }
            if (!accepts(spec->second, value)) {
                error_ = "'--" + token + "' must be " +
                    accepted(spec->second) + " (got '" + value + "')";
                return false;
            }
            values_[token] = value;
        }
        return true;
    }

    /** @return the failure reason after parse() returned false. */
    const std::string &error() const { return error_; }

    /** @return true if the option appeared on the command line. */
    bool
    given(const std::string &name) const
    {
        return values_.count(name) != 0;
    }

    /** @return the option's value, or its declared fallback. */
    std::string
    get(const std::string &name) const
    {
        const auto it = values_.find(name);
        if (it != values_.end())
            return it->second;
        const auto spec = specs_.find(name);
        return spec == specs_.end() ? "" : spec->second.fallback;
    }

    /** @return a declared flag's state. */
    bool
    flag(const std::string &name) const
    {
        const std::string v = get(name);
        return v == "1" || v == "true";
    }

    /** @return the option parsed as a long (fallback on absence).
     *  @throws std::invalid_argument unless it is wholly one. */
    long
    getInt(const std::string &name) const
    {
        long value = 0;
        if (!parseNumber(get(name), value))
            throw std::invalid_argument(
                "'--" + name + "' is not an integer: " + get(name));
        return value;
    }

    /** @return the option parsed as a double (fallback on absence).
     *  @throws std::invalid_argument unless it is wholly one. */
    double
    getDouble(const std::string &name) const
    {
        double value = 0.0;
        if (!parseNumber(get(name), value))
            throw std::invalid_argument(
                "'--" + name + "' is not a finite number: " + get(name));
        return value;
    }

    /** @return "  --name <fallback>  help; accepted values" lines for
     *  usage text. */
    std::string
    usage() const
    {
        std::string text;
        for (const auto &[name, spec] : specs_) {
            text += "  --" + name;
            if (spec.kind != Kind::Flag)
                text += " <" + spec.fallback + ">";
            if (!spec.help.empty())
                text += "  " + spec.help;
            if (spec.kind == Kind::Int || spec.kind == Kind::Real)
                text += "; " + accepted(spec);
            text += "\n";
        }
        return text;
    }

  private:
    enum class Kind { Text, Flag, Int, Real };

    struct Spec
    {
        Kind kind = Kind::Text;
        std::string fallback;
        std::string help;
        double lo = 0.0;
        double hi = 0.0;
        bool open = false;
    };

    static bool
    accepts(const Spec &spec, const std::string &value)
    {
        if (spec.kind == Kind::Text)
            return true;
        if (spec.kind == Kind::Flag)
            return value == "0" || value == "1" || value == "true" ||
                value == "false";
        // An integer must also parse as a long: whole, and in range of it.
        long whole = 0;
        double number = 0.0;
        if ((spec.kind == Kind::Int && !parseNumber(value, whole)) ||
            !parseNumber(value, number))
            return false;
        return spec.open ? number > spec.lo && number < spec.hi
                         : number >= spec.lo && number <= spec.hi;
    }

    /** @return what a flag or numeric option takes. */
    static std::string
    accepted(const Spec &spec)
    {
        if (spec.kind == Kind::Flag)
            return "0, 1, true or false";
        char text[80];
        std::snprintf(text, sizeof text, "%s in %c%.10g, %.10g%c",
                      spec.kind == Kind::Int ? "an integer" : "a number",
                      spec.open || spec.lo == -kInfinity ? '(' : '[',
                      spec.lo, spec.hi,
                      spec.open || spec.hi == kInfinity ? ')' : ']');
        return text;
    }

    std::map<std::string, Spec> specs_;
    std::map<std::string, std::string> values_;
    std::string error_;
};

} // namespace base
} // namespace statsched

#endif // STATSCHED_BASE_CLI_HH
