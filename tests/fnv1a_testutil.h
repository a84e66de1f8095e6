// 64-bit FNV-1a over ids and the raw bit patterns of doubles, shared by the
// bit-identity pins (golden_answers_test, knn_pin_test).
#ifndef PVERIFY_TESTS_FNV1A_TESTUTIL_H_
#define PVERIFY_TESTS_FNV1A_TESTUTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/types.h"

namespace pverify {
namespace testutil {

class Fnv1a {
 public:
  void Add(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (v >> (8 * b)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  void Add(const ProbabilityBound& b) {
    Add(b.lower);
    Add(b.upper);
  }
  void AddIds(const std::vector<ObjectId>& ids) {
    Add(static_cast<uint64_t>(ids.size()));
    for (ObjectId id : ids) Add(static_cast<uint64_t>(id));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

inline std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace testutil
}  // namespace pverify

#endif  // PVERIFY_TESTS_FNV1A_TESTUTIL_H_
