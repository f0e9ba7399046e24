// PCLMULQDQ kernels for GF(2^64) (this translation unit alone is
// compiled with -mpclmul -msse4.1; see src/crypto/CMakeLists.txt).
//
// gf64_mul mirrors the portable reduction exactly: the 128-bit carry-less
// product is folded twice with the reduction constant 0x1b
// (x^64 ≡ x^4 + x^3 + x + 1), the second fold absorbing the ≤4-bit spill
// of the first. Three PCLMULQDQs replace a 64-iteration schoolbook loop.
//
// hash_chunk applies the same two folds once to an XOR of nine
// independent products (aggregated reduction): the fold is linear, so
// reducing the sum equals summing the reduced products, and the products
// issue back to back instead of as a chain of dependent multiplies.
#include "crypto/crypto_backend.h"
#include "crypto/cpu_features.h"

#if defined(SECMEM_HAVE_PCLMUL)
#include <smmintrin.h>
#include <wmmintrin.h>

namespace secmem {

namespace {

Clmul128 clmul_hw(std::uint64_t a, std::uint64_t b) {
  const __m128i p = _mm_clmulepi64_si128(
      _mm_cvtsi64_si128(static_cast<long long>(a)),
      _mm_cvtsi64_si128(static_cast<long long>(b)), 0x00);
  return {static_cast<std::uint64_t>(_mm_cvtsi128_si64(p)),
          static_cast<std::uint64_t>(_mm_extract_epi64(p, 1))};
}

/// Low word of p reduced modulo x^64 + x^4 + x^3 + x + 1.
std::uint64_t reduce(__m128i p) {
  const __m128i poly = _mm_cvtsi64_si128(0x1b);
  const __m128i fold1 = _mm_clmulepi64_si128(p, poly, 0x01);
  const __m128i fold2 = _mm_clmulepi64_si128(fold1, poly, 0x01);
  const __m128i r = _mm_xor_si128(p, _mm_xor_si128(fold1, fold2));
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(r));
}

std::uint64_t mul_hw(std::uint64_t a, std::uint64_t b) {
  return reduce(_mm_clmulepi64_si128(
      _mm_cvtsi64_si128(static_cast<long long>(a)),
      _mm_cvtsi64_si128(static_cast<long long>(b)), 0x00));
}

std::uint64_t hash_chunk_hw(std::uint64_t acc, std::uint64_t acc_coeff,
                            const std::uint8_t* chunk,
                            const std::uint64_t* coeffs) {
  __m128i sum = _mm_clmulepi64_si128(
      _mm_cvtsi64_si128(static_cast<long long>(acc)),
      _mm_cvtsi64_si128(static_cast<long long>(acc_coeff)), 0x00);
  // Word pair (m_2p, m_2p+1) against (coeffs[2p], coeffs[2p+1]): selector
  // 0x00 multiplies the low halves, 0x11 the high halves.
  for (int p = 0; p < 4; ++p) {
    const __m128i m = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(chunk + 16 * p));
    const __m128i c = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(coeffs + 2 * p));
    sum = _mm_xor_si128(sum, _mm_xor_si128(_mm_clmulepi64_si128(m, c, 0x00),
                                           _mm_clmulepi64_si128(m, c, 0x11)));
  }
  return reduce(sum);
}

constexpr Gf64Ops kClmulOps = {"pclmul", clmul_hw, mul_hw, hash_chunk_hw};

}  // namespace

const Gf64Ops* gf64_ops_accelerated() noexcept {
  const CpuFeatures& cpu = cpu_features();
  return cpu.pclmul && cpu.sse41 ? &kClmulOps : nullptr;
}

}  // namespace secmem

#else  // !SECMEM_HAVE_PCLMUL: built without PCLMULQDQ support

namespace secmem {

const Gf64Ops* gf64_ops_accelerated() noexcept { return nullptr; }

}  // namespace secmem

#endif
