// Count parsing shared by the command-line tools (pverify_cli,
// pverify_serve).
#ifndef PVERIFY_TOOLS_PARSE_SIZE_H_
#define PVERIFY_TOOLS_PARSE_SIZE_H_

#include <cctype>
#include <cerrno>
#include <cstddef>
#include <cstdlib>

namespace pverify {

/// Parses a non-negative decimal integer into *out. Digits only: strtoull
/// alone would wrap a leading '-' to a huge value, and a floating-point
/// parse would let "nan", "2.7" or "1e20" through.
inline bool ParseSize(const char* s, size_t* out) {
  if (!std::isdigit(static_cast<unsigned char>(*s))) return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = static_cast<size_t>(v);
  return true;
}

}  // namespace pverify

#endif  // PVERIFY_TOOLS_PARSE_SIZE_H_
