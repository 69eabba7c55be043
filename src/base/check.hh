/**
 * @file
 * Design-by-contract macros for the statsched library.
 *
 * The statistical guarantees of the method rest on invariants that
 * plain C `assert` can neither name nor report: POT samples must stay
 * sorted, GPD parameters must stay in their admissible ranges, batch
 * spans must agree in size, engines must never observe a negative
 * retry budget. This header turns those conventions into an enforced
 * contract vocabulary:
 *
 *  - SCHED_REQUIRE(cond, msg)   — precondition on the caller. A
 *    violation means the *caller* passed arguments outside the
 *    documented domain.
 *  - SCHED_ENSURE(cond, msg)    — postcondition on the callee. A
 *    violation means *this* function failed to deliver what it
 *    promised.
 *  - SCHED_INVARIANT(cond, msg) — internal consistency condition that
 *    must hold at the annotated point regardless of inputs.
 *  - SCHED_UNREACHABLE(msg)     — control flow that must never be
 *    taken (exhaustive switches, closed enums).
 *
 * Every contract is checked in every build. A violation throws
 * ContractViolation, a structured error carrying the contract kind,
 * condition text, message and source location. The library contains
 * it where a failure is expected: measurement-path layers
 * (core::ResilientEngine, core::ParallelEngine) surface it as a
 * MeasureStatus::Errored outcome instead of aborting the whole
 * experiment, and the estimator degrades a round's estimate to the
 * best observed value.
 */

#ifndef STATSCHED_BASE_CHECK_HH
#define STATSCHED_BASE_CHECK_HH

#include <stdexcept>
#include <string>

namespace statsched
{

/** Which contract a violation broke. */
enum class ContractKind
{
    Require,     //!< precondition (caller's fault)
    Ensure,      //!< postcondition (callee's fault)
    Invariant,   //!< internal consistency condition
    Unreachable, //!< control flow that must never execute
};

/** @return the macro-style name of a contract kind ("REQUIRE"...). */
inline const char *
contractKindName(ContractKind kind)
{
    switch (kind) {
      case ContractKind::Require:     return "REQUIRE";
      case ContractKind::Ensure:      return "ENSURE";
      case ContractKind::Invariant:   return "INVARIANT";
      case ContractKind::Unreachable: return "UNREACHABLE";
    }
    return "CONTRACT";
}

/**
 * Structured report of a broken contract. The what() string carries
 * the full formatted report so even an uncaught violation terminates
 * with a useful message.
 */
class ContractViolation : public std::logic_error
{
  public:
    ContractViolation(ContractKind kind, const char *condition,
                      const std::string &message, const char *file,
                      int line)
        : std::logic_error(format(kind, condition, message, file,
                                  line)),
          kind_(kind), condition_(condition), message_(message),
          file_(file), line_(line)
    {}

    ContractKind kind() const { return kind_; }
    /** Stringified condition text ("batch.size() == out.size()"). */
    const char *condition() const { return condition_; }
    const std::string &message() const { return message_; }
    const char *file() const { return file_; }
    int line() const { return line_; }

  private:
    static std::string
    format(ContractKind kind, const char *condition,
           const std::string &message, const char *file, int line)
    {
        std::string text(contractKindName(kind));
        text += " violated: ";
        text += message;
        text += " [";
        text += condition;
        text += "] @ ";
        text += file;
        text += ":";
        text += std::to_string(line);
        return text;
    }

    ContractKind kind_;
    const char *condition_;
    std::string message_;
    const char *file_;
    int line_;
};

/** The failure path: raise the structured error. */
[[noreturn]] inline void
contractThrow(ContractKind kind, const char *condition,
              const std::string &message, const char *file, int line)
{
    throw ContractViolation(kind, condition, message, file, line);
}

} // namespace statsched

#define SCHED_CONTRACT_FAIL_(kind, cond_text, msg) \
    ::statsched::contractThrow((kind), (cond_text), (msg), __FILE__, \
                               __LINE__)

#define SCHED_CONTRACT_CHECK_(kind, cond, msg) \
    do { \
        if (!(cond)) \
            SCHED_CONTRACT_FAIL_((kind), #cond, (msg)); \
    } while (0)

/** Precondition: the caller must establish `cond`. */
#define SCHED_REQUIRE(cond, msg) \
    SCHED_CONTRACT_CHECK_(::statsched::ContractKind::Require, cond, \
                          (msg))

/** Postcondition: this function promises `cond` on exit. */
#define SCHED_ENSURE(cond, msg) \
    SCHED_CONTRACT_CHECK_(::statsched::ContractKind::Ensure, cond, \
                          (msg))

/** Internal consistency condition at this program point. */
#define SCHED_INVARIANT(cond, msg) \
    SCHED_CONTRACT_CHECK_(::statsched::ContractKind::Invariant, cond, \
                          (msg))

/** Control flow that must never execute. */
#define SCHED_UNREACHABLE(msg) \
    SCHED_CONTRACT_FAIL_(::statsched::ContractKind::Unreachable, \
                         "reached unreachable code", (msg))

#endif // STATSCHED_BASE_CHECK_HH
