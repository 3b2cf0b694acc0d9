#include "dd/simd_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace cfpm::dd::simd {

// 512-bit sweep: eight mask words per instruction — one full kPackedGroups
// row per load when the layout stride is 8. Same per-function target
// attribute scheme as sweep_avx2; only handed out after cpuid confirms
// AVX-512F.
__attribute__((target("avx512f"))) void sweep_avx512(
    const SweepCtx& ctx, const std::uint64_t* bits, std::size_t bits_stride,
    const std::uint64_t* all, double* out, std::uint64_t* reach,
    std::size_t W) {
  for (std::size_t w = 0; w < W; ++w) reach[W * ctx.root + w] = all[w];
  const CompiledDd::Node* const nodes = ctx.nodes;
  for (std::uint32_t i = 0; i < ctx.first_terminal; ++i) {
    const CompiledDd::Node& n = nodes[i];
    const __m512i keep_hi = _mm512_set1_epi64(
        static_cast<long long>(static_cast<std::uint64_t>(n.hi >> 31) - 1));
    const __m512i keep_lo = _mm512_set1_epi64(
        static_cast<long long>(static_cast<std::uint64_t>(n.lo >> 31) - 1));
    const std::uint64_t* const m = reach + W * i;
    std::uint64_t* const hi = reach + W * (n.hi & CompiledDd::kIndexMask);
    std::uint64_t* const lo = reach + W * (n.lo & CompiledDd::kIndexMask);
    const std::uint64_t* const bv = bits + bits_stride * n.var;
    for (std::size_t w = 0; w < W; w += 8) {
      const __m512i mw = _mm512_loadu_si512(m + w);
      const __m512i bw = _mm512_loadu_si512(bv + w);
      const __m512i h = _mm512_loadu_si512(hi + w);
      const __m512i l = _mm512_loadu_si512(lo + w);
      // The hi store is spelled as and/or (the compiler fuses it into
      // vpternlogq on its own). The lo store names its ternlog directly,
      // 0xF4 = a | (b & ~c): GCC 12 misreports _mm512_andnot_si512 as
      // maybe-uninitialized, which a -Werror build cannot take.
      _mm512_storeu_si512(hi + w,
                          _mm512_or_si512(_mm512_and_si512(h, keep_hi),
                                          _mm512_and_si512(mw, bw)));
      _mm512_storeu_si512(
          lo + w, _mm512_ternarylogic_epi64(_mm512_and_si512(l, keep_lo), mw,
                                            bw, 0xF4));
    }
  }
  gather_terminals(ctx, reach, out, W);
}

}  // namespace cfpm::dd::simd

#else  // non-x86: dispatch never selects this kernel; keep the symbol.

namespace cfpm::dd::simd {

void sweep_avx512(const SweepCtx& ctx, const std::uint64_t* bits,
                  std::size_t bits_stride, const std::uint64_t* all,
                  double* out, std::uint64_t* reach, std::size_t W) {
  sweep_scalar(ctx, bits, bits_stride, all, out, reach, W);
}

}  // namespace cfpm::dd::simd

#endif
