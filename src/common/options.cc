#include "common/options.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/log.h"
#include "common/trace.h"

namespace cyclops
{

std::string
parseU64(const char *text, u64 min, u64 max, u64 *out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 0);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0')
        return strprintf("'%s' is not a nonnegative number", text);
    if (errno == ERANGE || v < min || v > max)
        return strprintf("'%s' is out of range %llu..%llu", text,
                         static_cast<unsigned long long>(min),
                         static_cast<unsigned long long>(max));
    *out = v;
    return "";
}

Option
switchOpt(std::string flag, std::string help, bool &dst, bool value)
{
    return {std::move(flag), "", std::move(help),
            [&dst, value](const char *) {
                dst = value;
                return std::string();
            }};
}

Option
textOpt(std::string flag, std::string metavar, std::string help,
        std::string &dst)
{
    return {std::move(flag), std::move(metavar), std::move(help),
            [&dst](const char *text) {
                dst = text;
                return std::string();
            }};
}

Option
listOpt(std::string flag, std::string help, std::vector<u32> &dst)
{
    return {std::move(flag), "N", help + " (repeatable)",
            [&dst](const char *text) {
                u64 v = 0;
                std::string err = parseU64(text, 0, ~u32(0), &v);
                if (err.empty())
                    dst.push_back(u32(v));
                return err;
            }};
}

OptionTable::OptionTable(std::string tool, std::string positional,
                         std::string note)
    : tool_(std::move(tool)), positional_(std::move(positional)),
      note_(std::move(note))
{}

OptionTable &
OptionTable::add(Option opt)
{
    if (find(opt.flag))
        panic("option %s listed twice", opt.flag.c_str());
    rows_.push_back(std::move(opt));
    return *this;
}

const Option *
OptionTable::find(const std::string &flag) const
{
    for (const Option &opt : rows_)
        if (opt.flag == flag)
            return &opt;
    return nullptr;
}

OptionTable &
OptionTable::then(std::function<void()> fn)
{
    after_.push_back(std::move(fn));
    return *this;
}

std::string
OptionTable::parse(int argc, const char *const *argv,
                   std::string *positional) const
{
    int operands = 0;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (const Option *opt = find(arg)) {
            const bool takesValue = !opt->metavar.empty();
            if (takesValue && i + 1 >= argc)
                return strprintf("%s needs %s", arg, opt->metavar.c_str());
            const std::string err =
                opt->set(takesValue ? argv[++i] : nullptr);
            if (!err.empty())
                return opt->flag + ": " + err;
        } else if (arg[0] == '-') {
            return strprintf("unknown argument '%s'", arg);
        } else if (positional_.empty()) {
            return strprintf("unexpected argument '%s'", arg);
        } else if (operands++ > 0) {
            return "more than one " + positional_;
        } else if (positional) {
            *positional = arg;
        }
    }
    if (!positional_.empty() && operands == 0)
        return "missing " + positional_;
    for (const auto &fn : after_)
        fn();
    return "";
}

std::string
OptionTable::parseOrExit(int argc, const char *const *argv) const
{
    std::string positional;
    if (const std::string err = parse(argc, argv, &positional);
        !err.empty())
        fail(err);
    return positional;
}

std::string
OptionTable::usage() const
{
    const std::string indent(7, ' '); // under "usage: "
    std::string out = "usage: " + tool_;
    size_t col = out.size();
    auto word = [&](const std::string &w) {
        const bool wrap = col + 1 + w.size() > 76;
        out += (wrap ? "\n" + indent : " ") + w;
        col = (wrap ? indent.size() : col + 1) + w.size();
    };
    for (const Option &opt : rows_)
        word("[" + opt.flag +
             (opt.metavar.empty() ? "" : " " + opt.metavar) + "]");
    if (!positional_.empty())
        word(positional_);
    if (!note_.empty())
        out += "\n" + indent + note_;
    out += "\n\n";
    // Help starts in column 26; a wider label puts it on the next line.
    for (const Option &opt : rows_) {
        std::string label = "  " + opt.flag;
        if (!opt.metavar.empty())
            label += " " + opt.metavar;
        label += label.size() > 24 ? "\n" + std::string(26, ' ')
                                   : std::string(26 - label.size(), ' ');
        out += label + opt.help + "\n";
    }
    return out;
}

void
OptionTable::fail(const std::string &why) const
{
    std::fprintf(stderr, "%s: %s\n%s", tool_.c_str(), why.c_str(),
                 usage().c_str());
    std::exit(2);
}

void
addObsOptions(OptionTable &table, ObsConfig &o, bool full)
{
    table.add(textOpt("--stats-json", "P", "final stats JSON", o.statsJson))
        .add(textOpt("--stats-csv", "P", "epoch stats CSV", o.statsCsv))
        .add(numOpt("--stats-interval", "N", "epoch period", o.statsInterval))
        .add(textOpt("--trace-out", "P", "Chrome-trace JSON", o.traceOut))
        .add({"--trace-cats", "LIST",
              "mem,cache,barrier,kernel,sched,host,net, all or none",
              [&o](const char *text) {
                  const std::optional<u8> cats = parseTraceCats(text);
                  if (!cats)
                      return strprintf("'%s' is not a category list", text);
                  o.traceCats = *cats;
                  return std::string();
              }})
        .add(numOpt("--trace-capacity", "N", "ring size, events",
                    o.traceCapacity));
    if (full)
        table.add(textOpt("--prof-out", "P",
                          "PC profile: P, P.folded, P.heatmap.csv", o.profOut))
            .add(numOpt("--prof-interval", "N",
                        "PC sample period (512 with --prof-out)",
                        o.profInterval))
            .add(textOpt("--fabric-stats", "P", "fabric stats JSON",
                         o.fabricStats))
            .add(textOpt("--fabric-heatmap", "P", "fabric heatmap CSV",
                         o.fabricHeatmap));
    table.add(switchOpt("--host-obs", "host-side telemetry", o.hostObs))
        .then([&o] {
            if (!o.traceOut.empty() && o.traceCats == 0)
                o.traceCats = kTraceAll;
            if (!o.profOut.empty() && o.profInterval == 0)
                o.profInterval = 512;
        });
}

void
addFaultOptions(OptionTable &table, FaultConfig &f)
{
    table.add(listOpt("--disable-tu", "fuse off a TU", f.disabledTus))
        .add(listOpt("--disable-quad", "fuse off a quad", f.disabledQuads))
        .add(listOpt("--disable-fpu", "fuse off an FPU", f.disabledFpus))
        .add(listOpt("--disable-dcache", "fuse off a D-cache",
                     f.disabledDcaches))
        .add(listOpt("--disable-icache", "fuse off an I-cache",
                     f.disabledIcaches))
        .add(listOpt("--disable-bank", "fail a bank", f.disabledBanks))
        .add(numOpt("--cache-ways", "N", "live D-cache ways (0 = all)",
                    f.cacheWays))
        .add(numOpt("--watchdog", "N", "deadlock window (0 = off)",
                    f.watchdogCycles));
}

} // namespace cyclops
