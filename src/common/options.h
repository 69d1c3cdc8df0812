/**
 * @file
 * Declarative command-line options shared by every tool and bench.
 *
 * A program lists each flag once, as a row of an OptionTable; the
 * table parses argv and generates the usage text. Every mistake
 * (unknown flag, missing operand, malformed or out-of-range value)
 * prints "<tool>: <why>" plus the usage and exits 2. Numbers parse
 * strictly: strtoull base 0 (so "0x10" works) over the whole operand,
 * no sign, within the row's min/max and the destination's width.
 */

#ifndef CYCLOPS_COMMON_OPTIONS_H
#define CYCLOPS_COMMON_OPTIONS_H

#include <algorithm>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/types.h"

namespace cyclops
{

/** One row: flag, operand name in usage ("" = a switch), help, setter. */
struct Option
{
    std::string flag, metavar, help;
    /** Apply the operand (nullptr for a switch); "" or why not. */
    std::function<std::string(const char *)> set;
};

/** Parse @p text as a number in [min, max] into @p out; "" or why not. */
std::string parseU64(const char *text, u64 min, u64 max, u64 *out);

/** A switch storing @p value into @p dst. */
Option switchOpt(std::string flag, std::string help, bool &dst,
                 bool value = true);
/** An operand stored verbatim into @p dst. */
Option textOpt(std::string flag, std::string metavar, std::string help,
               std::string &dst);
/** A repeatable "N" appended to @p dst. */
Option listOpt(std::string flag, std::string help, std::vector<u32> &dst);

/** A number in [min, max] that also fits @p dst. */
template <typename T>
Option
numOpt(std::string flag, std::string metavar, std::string help, T &dst,
       u64 min = 0, u64 max = std::numeric_limits<T>::max())
{
    max = std::min<u64>(max, std::numeric_limits<T>::max());
    return {std::move(flag), std::move(metavar), std::move(help),
            [&dst, min, max](const char *text) {
                u64 v = 0;
                std::string err = parseU64(text, min, max, &v);
                if (err.empty())
                    dst = T(v);
                return err;
            }};
}

class OptionTable
{
  public:
    /**
     * @p tool prefixes diagnostics; @p positional names the one required
     * operand ("" = none); @p note ends the usage synopsis.
     */
    explicit OptionTable(std::string tool, std::string positional = "",
                         std::string note = "");

    /** Append a row; usage lists rows in this order. */
    OptionTable &add(Option opt);
    /** Run @p fn after every successful parse (cross-row defaults). */
    OptionTable &then(std::function<void()> fn);

    /** Parse argv[1..argc); "" on success, else the first mistake. */
    std::string parse(int argc, const char *const *argv,
                      std::string *positional = nullptr) const;
    /** parse(), reporting a mistake through fail(); the positional. */
    std::string parseOrExit(int argc, const char *const *argv) const;

    const std::vector<Option> &rows() const { return rows_; }
    /** Synopsis, then one help line per row. */
    std::string usage() const;
    /** Print "<tool>: <why>" and the usage to stderr; exit 2. */
    [[noreturn]] void fail(const std::string &why) const;

  private:
    const Option *find(const std::string &flag) const;

    std::string tool_, positional_, note_;
    std::vector<Option> rows_;
    std::vector<std::function<void()>> after_;
};

/**
 * The observability rows (--stats-*, --trace-*, --host-obs; @p full
 * adds --prof-* and --fabric-*) and the output defaults: a trace
 * output with no categories records all of them, a profile output
 * with no interval samples every 512 cycles.
 */
void addObsOptions(OptionTable &table, ObsConfig &obs, bool full);

/** The degraded-chip rows (--disable-*, --cache-ways, --watchdog). */
void addFaultOptions(OptionTable &table, FaultConfig &fault);

} // namespace cyclops

#endif // CYCLOPS_COMMON_OPTIONS_H
