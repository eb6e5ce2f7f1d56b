#include "util/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

#include "util/error.h"

namespace rcbr {
namespace {

// The whole of `text` as a double (range not checked yet).
double ParseFlagDouble(const char* text, const char* flag) {
  Require(*text != '\0', std::string(flag) + " expects a number");
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  Require(*end == '\0',
          std::string(flag) + ": '" + text + "' is not a number");
  Require(errno != ERANGE,
          std::string(flag) + ": '" + text + "' is out of range");
  return value;
}

}  // namespace

std::int64_t ParseFlagInt(const char* text, const char* flag,
                          std::int64_t max) {
  Require(*text != '\0',
          std::string(flag) + " expects an integer value");
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  Require(*end == '\0', std::string(flag) + ": '" + text +
                            "' is not an integer");
  Require(errno != ERANGE, std::string(flag) + ": '" + text +
                               "' is out of range");
  Require(value >= 0, std::string(flag) + " must be >= 0 (got " +
                          std::string(text) + ")");
  Require(value <= max, std::string(flag) + " must be <= " +
                            std::to_string(max) + " (got " + text + ")");
  return static_cast<std::int64_t>(value);
}

double ParseFlagPositiveDouble(const char* text, const char* flag) {
  const double value = ParseFlagDouble(text, flag);
  Require(std::isfinite(value) && value > 0,
          std::string(flag) + " must be a finite positive number (got " +
              std::string(text) + ")");
  return value;
}

double ParseFlagNonNegativeDouble(const char* text, const char* flag) {
  const double value = ParseFlagDouble(text, flag);
  Require(std::isfinite(value) && value >= 0,
          std::string(flag) + " must be a finite number >= 0 (got " +
              std::string(text) + ")");
  return value;
}

}  // namespace rcbr
