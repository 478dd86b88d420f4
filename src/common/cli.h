/**
 * @file
 * Minimal command-line argument parser for the tools and examples:
 * `--key value`, `--key=value`, and boolean `--flag` forms, with typed
 * accessors, defaults, and generated usage text.
 */

#ifndef HILOS_COMMON_CLI_H_
#define HILOS_COMMON_CLI_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hilos {

/** Declarative option table + parsed values. */
class ArgParser
{
  public:
    /** @param program name shown in usage text */
    explicit ArgParser(std::string program);

    /** Declare a string option with a default. */
    ArgParser &addOption(const std::string &name,
                         const std::string &default_value,
                         const std::string &help);

    /** Declare a boolean flag (false unless present). */
    ArgParser &addFlag(const std::string &name, const std::string &help);

    /**
     * Parse argv. Unknown options or missing values set an error state
     * (see ok()/error()) rather than exiting, so callers and tests
     * decide what to do.
     */
    bool parse(int argc, const char *const *argv);

    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }

    /** True when --help was passed. */
    bool helpRequested() const { return help_requested_; }

    /** String value of an option (its default if not passed). */
    std::string get(const std::string &name) const;
    /** Integer value; error state if unparsable. */
    std::int64_t getInt(const std::string &name) const;
    /**
     * Non-negative integer value, for options that land in unsigned
     * fields where a negative would wrap to a huge count. Error state
     * ("<name> <value> must be >= 0") if negative or unparsable.
     */
    std::uint64_t getCount(const std::string &name) const;
    /** Double value; error state if unparsable. */
    double getDouble(const std::string &name) const;
    /** Boolean flag presence. */
    bool getFlag(const std::string &name) const;

    /** Generated usage text. */
    std::string usage() const;

  private:
    struct Option {
        std::string default_value;
        std::string help;
        bool is_flag = false;
    };

    std::string program_;
    std::vector<std::pair<std::string, Option>> options_;
    std::map<std::string, std::string> values_;
    std::string error_;
    bool help_requested_ = false;

    const Option *find(const std::string &name) const;
};

}  // namespace hilos

#endif  // HILOS_COMMON_CLI_H_
