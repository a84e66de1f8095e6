// Kernel-flavor name reported in telemetry.
//
// The verifier numerics have one implementation: the scalar loops of
// verifier_{common,lsr,usr}.cc, subregion.cc, refine.cc and knn.cc. The
// name below is what benches and stats record as the active flavor.
#ifndef PVERIFY_CORE_SIMD_H_
#define PVERIFY_CORE_SIMD_H_

namespace pverify {

/// Name of the verifier kernel flavor this binary runs: always "baseline".
const char* ActiveKernelFlavorName();

}  // namespace pverify

#endif  // PVERIFY_CORE_SIMD_H_
