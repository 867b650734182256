// Minimal command-line flag parsing for the example programs and bench
// drivers (no external dependency; flags are --name=value or --name value).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rfid::common {

class ArgParser {
 public:
  /// `program` and `about` are used by helpText().
  ArgParser(std::string program, std::string about);

  ArgParser& addInt(const std::string& name, std::int64_t defaultValue,
                    const std::string& help);
  ArgParser& addDouble(const std::string& name, double defaultValue,
                       const std::string& help);
  ArgParser& addString(const std::string& name, std::string defaultValue,
                       const std::string& help);
  ArgParser& addBool(const std::string& name, bool defaultValue,
                     const std::string& help);

  /// Parses argv. Returns false (after printing help) when --help was given.
  /// Throws PreconditionError on unknown flags or malformed values.
  bool parse(int argc, const char* const* argv);

  std::int64_t getInt(const std::string& name) const;
  double getDouble(const std::string& name) const;
  const std::string& getString(const std::string& name) const;
  bool getBool(const std::string& name) const;

  std::string helpText() const;

 private:
  enum class Kind { kInt, kDouble, kString, kBool };
  struct Option {
    Kind kind;
    std::string help;
    std::string value;  // canonical textual form
  };

  const Option& find(const std::string& name, Kind kind) const;
  void assign(const std::string& name, const std::string& value);

  std::string program_;
  std::string about_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;
};

/// Reads an unsigned integer from environment variable `name`, returning
/// `fallback` when unset or unparsable: empty, negative, trailing garbage,
/// or past 2^64-1. Used for RFID_ROUNDS overrides in bench binaries.
std::uint64_t envOr(const char* name, std::uint64_t fallback);

/// Reads a floating-point value from environment variable `name`, returning
/// `fallback` when unset or unparsable. Used for the RFID_BER override in
/// bench binaries. (Deliberately not an envOr overload: an integer-literal
/// fallback would make every existing envOr call ambiguous.)
double envOrDouble(const char* name, double fallback);

/// Reads environment variable `name` as a string, returning `fallback`
/// when unset. Used for the RFID_TRACE / RFID_JSON output-path conventions
/// in bench binaries.
std::string envOr(const char* name, const std::string& fallback);

}  // namespace rfid::common
