#include "common/cli.h"

#include <cstdlib>
#include <sstream>

#include "common/logging.h"

namespace hilos {

ArgParser::ArgParser(std::string program) : program_(std::move(program))
{
    addFlag("help", "show this help text");
}

ArgParser &
ArgParser::addOption(const std::string &name,
                     const std::string &default_value,
                     const std::string &help)
{
    HILOS_ASSERT(find(name) == nullptr, "duplicate option --", name);
    options_.emplace_back(name, Option{default_value, help, false});
    return *this;
}

ArgParser &
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    HILOS_ASSERT(find(name) == nullptr, "duplicate option --", name);
    options_.emplace_back(name, Option{"", help, true});
    return *this;
}

const ArgParser::Option *
ArgParser::find(const std::string &name) const
{
    for (const auto &[n, opt] : options_) {
        if (n == name)
            return &opt;
    }
    return nullptr;
}

bool
ArgParser::parse(int argc, const char *const *argv)
{
    error_.clear();
    values_.clear();
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            error_ = "unexpected positional argument: " + arg;
            return false;
        }
        arg = arg.substr(2);
        std::string value;
        bool has_inline_value = false;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_inline_value = true;
        }
        const Option *opt = find(arg);
        if (opt == nullptr) {
            error_ = "unknown option --" + arg;
            return false;
        }
        if (opt->is_flag) {
            if (has_inline_value) {
                error_ = "flag --" + arg + " takes no value";
                return false;
            }
            values_[arg] = "1";
            if (arg == "help")
                help_requested_ = true;
            continue;
        }
        if (!has_inline_value) {
            if (i + 1 >= argc) {
                error_ = "option --" + arg + " needs a value";
                return false;
            }
            value = argv[++i];
        }
        values_[arg] = value;
    }
    return true;
}

std::string
ArgParser::get(const std::string &name) const
{
    const Option *opt = find(name);
    HILOS_ASSERT(opt != nullptr, "undeclared option --", name);
    const auto it = values_.find(name);
    return it != values_.end() ? it->second : opt->default_value;
}

std::int64_t
ArgParser::getInt(const std::string &name) const
{
    const std::string v = get(name);
    char *end = nullptr;
    const long long parsed = std::strtoll(v.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
        // Leave callers an error signal without throwing mid-report.
        const_cast<ArgParser *>(this)->error_ =
            "option --" + name + " is not an integer: " + v;
        return 0;
    }
    return parsed;
}

std::uint64_t
ArgParser::getCount(const std::string &name) const
{
    const std::int64_t parsed = getInt(name);
    if (parsed < 0) {
        const_cast<ArgParser *>(this)->error_ =
            name + " " + std::to_string(parsed) + " must be >= 0";
        return 0;
    }
    return static_cast<std::uint64_t>(parsed);
}

double
ArgParser::getDouble(const std::string &name) const
{
    const std::string v = get(name);
    char *end = nullptr;
    const double parsed = std::strtod(v.c_str(), &end);
    if (end == nullptr || *end != '\0') {
        const_cast<ArgParser *>(this)->error_ =
            "option --" + name + " is not a number: " + v;
        return 0.0;
    }
    return parsed;
}

bool
ArgParser::getFlag(const std::string &name) const
{
    const Option *opt = find(name);
    HILOS_ASSERT(opt != nullptr && opt->is_flag, "undeclared flag --",
                 name);
    return values_.count(name) > 0;
}

std::string
ArgParser::usage() const
{
    std::ostringstream oss;
    oss << "usage: " << program_ << " [options]\n";
    for (const auto &[name, opt] : options_) {
        oss << "  --" << name;
        if (!opt.is_flag)
            oss << " <value, default: "
                << (opt.default_value.empty() ? "none"
                                              : opt.default_value)
                << ">";
        oss << "\n      " << opt.help << "\n";
    }
    return oss.str();
}

}  // namespace hilos
