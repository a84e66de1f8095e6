#include "core/simd.h"

namespace pverify {

const char* ActiveKernelFlavorName() { return "baseline"; }

}  // namespace pverify
