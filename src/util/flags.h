// Strict command-line value parsing.
//
// The experiment harnesses (runtime/experiment.cc) and the daemon
// binaries (src/net/*_main.cc) share these parsers, so every flag in the
// tree rejects the same malformed input: a value must parse in full, fit
// its type, and lie in range. Each throws InvalidArgument with a message
// naming the flag; the entry points report it and exit 2.
#pragma once

#include <cstdint>
#include <limits>

namespace rcbr {

/// Strict base-10 integer in [0, max]: the whole value must parse and fit
/// (counts, seeds, ports, slot numbers).
std::int64_t ParseFlagInt(
    const char* text, const char* flag,
    std::int64_t max = std::numeric_limits<std::int64_t>::max());

/// Strict double: the whole value must parse and be a finite positive
/// number (window widths, capacities).
double ParseFlagPositiveDouble(const char* text, const char* flag);

/// As ParseFlagPositiveDouble, but 0 is allowed (slack values).
double ParseFlagNonNegativeDouble(const char* text, const char* flag);

}  // namespace rcbr
