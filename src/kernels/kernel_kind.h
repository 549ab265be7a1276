#ifndef KBT_KERNELS_KERNEL_KIND_H_
#define KBT_KERNELS_KERNEL_KIND_H_

#include <cstdint>
#include <string_view>

namespace kbt::kernels {

/// Which program the EM model layers run their inner loops with. Both kinds
/// compute the same float values — the tallies share one 4-lane program
/// (see kernels.h), and every staged value is the reference's inline
/// expression on the same inputs — so their outputs are bit-for-bit
/// identical; the parity suite in tests/kernels/ enforces that. The scalar
/// reference is the oracle: a straightforward transcription of the paper's
/// equations.
enum class Kind : uint8_t {
  /// Naive per-slot loops: a vote per slot, the value grouping rediscovered
  /// per item and per iteration, one exp per slot. The testing oracle.
  kScalarReference = 0,
  /// Structure-of-arrays staging in cache-sized blocks, per-source vote
  /// memoization, per-group net votes and the precompiled value index. The
  /// loops are portable C++ left to the compiler's auto-vectorizer.
  /// Bit-for-bit equal to kScalarReference.
  kVectorized = 1,
};

/// The build-selected default (-DKBT_KERNELS=scalar_reference flips it to
/// the oracle so a CI leg runs the whole suite on the reference path).
Kind DefaultKind();

/// Stable display name: "scalar_reference" / "vectorized".
std::string_view KindName(Kind kind);

}  // namespace kbt::kernels

#endif  // KBT_KERNELS_KERNEL_KIND_H_
