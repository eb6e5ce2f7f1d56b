// FNV-1a, 64-bit: the stable fingerprint the pinned-output tests use to
// hold artifact bytes (session logs, traces, metric dumps, bench JSON).
#pragma once

#include <cstdint>
#include <string_view>

namespace rcbr::testutil {

inline std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace rcbr::testutil
