#include "common/cli.hpp"

#include <array>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/require.hpp"

namespace rfid::common {

namespace {

/// Shortest round-trip rendering of a double (std::to_chars): the stored
/// text parses back to exactly the same value. The former ostringstream
/// path used the default 6-significant-digit precision, so --c=0.123456789
/// was silently truncated to 0.123457 between assign() and getDouble().
std::string formatDouble(double value) {
  std::array<char, 32> buf{};
  const auto [ptr, ec] =
      std::to_chars(buf.data(), buf.data() + buf.size(), value);
  RFID_REQUIRE(ec == std::errc{}, "double value could not be formatted");
  return std::string(buf.data(), ptr);
}

bool parseBoolText(const std::string& text, bool& out) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    out = false;
    return true;
  }
  return false;
}

}  // namespace

ArgParser::ArgParser(std::string program, std::string about)
    : program_(std::move(program)), about_(std::move(about)) {}

ArgParser& ArgParser::addInt(const std::string& name, std::int64_t defaultValue,
                             const std::string& help) {
  options_[name] = Option{Kind::kInt, help, std::to_string(defaultValue)};
  order_.push_back(name);
  return *this;
}

ArgParser& ArgParser::addDouble(const std::string& name, double defaultValue,
                                const std::string& help) {
  options_[name] = Option{Kind::kDouble, help, formatDouble(defaultValue)};
  order_.push_back(name);
  return *this;
}

ArgParser& ArgParser::addString(const std::string& name,
                                std::string defaultValue,
                                const std::string& help) {
  options_[name] = Option{Kind::kString, help, std::move(defaultValue)};
  order_.push_back(name);
  return *this;
}

ArgParser& ArgParser::addBool(const std::string& name, bool defaultValue,
                              const std::string& help) {
  options_[name] = Option{Kind::kBool, help, defaultValue ? "true" : "false"};
  order_.push_back(name);
  return *this;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << helpText();
      return false;
    }
    RFID_REQUIRE(arg.rfind("--", 0) == 0, "flags must start with --");
    arg.erase(0, 2);
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.erase(eq);
    } else {
      const auto it = options_.find(arg);
      RFID_REQUIRE(it != options_.end(), "unknown flag");
      if (it->second.kind == Kind::kBool) {
        value = "true";  // bare boolean flag enables it
      } else {
        RFID_REQUIRE(i + 1 < argc, "flag is missing its value");
        value = argv[++i];
      }
    }
    assign(arg, value);
  }
  return true;
}

void ArgParser::assign(const std::string& name, const std::string& value) {
  const auto it = options_.find(name);
  RFID_REQUIRE(it != options_.end(), "unknown flag");
  Option& opt = it->second;
  switch (opt.kind) {
    case Kind::kInt: {
      std::int64_t parsed = 0;
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), parsed);
      RFID_REQUIRE(ec == std::errc{} && ptr == value.data() + value.size(),
                   "expected an integer value");
      opt.value = std::to_string(parsed);
      break;
    }
    case Kind::kDouble: {
      char* end = nullptr;
      const double parsed = std::strtod(value.c_str(), &end);
      RFID_REQUIRE(end == value.c_str() + value.size() && !value.empty(),
                   "expected a floating-point value");
      opt.value = formatDouble(parsed);
      break;
    }
    case Kind::kString:
      opt.value = value;
      break;
    case Kind::kBool: {
      bool parsed = false;
      RFID_REQUIRE(parseBoolText(value, parsed), "expected a boolean value");
      opt.value = parsed ? "true" : "false";
      break;
    }
  }
}

const ArgParser::Option& ArgParser::find(const std::string& name,
                                         Kind kind) const {
  const auto it = options_.find(name);
  RFID_REQUIRE(it != options_.end(), "flag was never declared");
  RFID_REQUIRE(it->second.kind == kind, "flag accessed with the wrong type");
  return it->second;
}

std::int64_t ArgParser::getInt(const std::string& name) const {
  return std::stoll(find(name, Kind::kInt).value);
}

double ArgParser::getDouble(const std::string& name) const {
  // std::from_chars, not std::stod: stod throws out_of_range whenever strtod
  // sets ERANGE, which rejects perfectly representable subnormals. from_chars
  // round-trips every finite double that formatDouble() stored.
  const std::string& text = find(name, Kind::kDouble).value;
  double parsed = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  RFID_REQUIRE(ec == std::errc{} && ptr == text.data() + text.size(),
               "stored flag value is not a floating-point number");
  return parsed;
}

const std::string& ArgParser::getString(const std::string& name) const {
  return find(name, Kind::kString).value;
}

bool ArgParser::getBool(const std::string& name) const {
  return find(name, Kind::kBool).value == "true";
}

std::string ArgParser::helpText() const {
  std::ostringstream os;
  os << program_ << " — " << about_ << "\n\nOptions:\n";
  for (const std::string& name : order_) {
    const Option& opt = options_.at(name);
    os << "  --" << name << " (default: " << opt.value << ")\n      "
       << opt.help << '\n';
  }
  os << "  --help\n      Show this message.\n";
  return os.str();
}

std::uint64_t envOr(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  // strtoull silently accepts a sign and wraps "-1" to 2^64-1; a negative
  // value can never be a valid round count / thread count, so reject it and
  // keep the fallback.
  const char* start = raw;
  while (std::isspace(static_cast<unsigned char>(*start)) != 0) ++start;
  if (*start == '-') return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(start, &end, 10);
  // Out of range, strtoull saturates at 2^64-1 and sets ERANGE; a count
  // that large is no more valid than a negative one.
  if (end == start || *end != '\0' || errno == ERANGE) return fallback;
  return parsed;
}

double envOrDouble(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(raw, &end);
  if (end == raw || *end != '\0') return fallback;
  return parsed;
}

std::string envOr(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  return raw == nullptr ? fallback : std::string(raw);
}

}  // namespace rfid::common
