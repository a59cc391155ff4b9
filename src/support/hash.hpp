// FNV-1a (64-bit): the one content hash behind artifact keys, batch
// fingerprints and artifact-cache entry checksums. Their bytes are
// pinned by tests/golden/records.txt, so this must never change.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace cudanp {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// FNV-1a of `s`, continuing from `h`.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s,
                                            std::uint64_t h = kFnvOffset) {
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// fnv1a of one field of a multi-field key: `s` then a 0x1f separator,
/// so "ab" + "c" hashes differently from "a" + "bc".
[[nodiscard]] constexpr std::uint64_t fnv1a_field(std::string_view s,
                                                  std::uint64_t h) {
  return fnv1a("\x1f", fnv1a(s, h));
}

/// `h` as 16 lowercase hex digits.
[[nodiscard]] inline std::string hex16(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace cudanp
