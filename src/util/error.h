// Error handling helpers.
//
// Library code signals contract violations and unsatisfiable requests with
// exceptions derived from rcbr::Error, so callers can distinguish library
// failures from standard-library ones.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace rcbr {

/// Base class for all exceptions thrown by this library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller violated a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A well-formed request has no feasible answer (e.g. a renegotiation
/// schedule under a buffer bound smaller than one frame).
class Infeasible : public Error {
 public:
  explicit Infeasible(const std::string& what) : Error(what) {}
};

/// Throws InvalidArgument with `message` unless `condition` holds. The
/// message is a view, so a check that passes builds no string.
inline void Require(bool condition, std::string_view message) {
  if (!condition) throw InvalidArgument(std::string(message));
}

}  // namespace rcbr
