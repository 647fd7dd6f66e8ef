// SIMD primitives backing the vectorized execution policies.
//
// Every primitive here has three implementations — scalar, AVX2, AVX-512 —
// selected at runtime via common/cpu_features.h, and all three are
// *bitwise-identical* on every input: the AVX2 64x64->low64 multiply is
// emulated from 32-bit vpmuludq products exactly so Mix64x8 matches the
// scalar Mix64 lane for lane.  Callers therefore never branch on ISA for
// correctness, only the kernels do for speed.
//
// Intrinsics are confined to non-template free functions carrying
// function-level target attributes, so the translation unit — and the whole
// build — needs no global -mavx2 and stays runnable on any x86-64 host
// (the attributed functions are only *called* after cpuid says they are
// safe).  With AMAC_DISABLE_SIMD (or off x86) only the scalar paths exist.
#pragma once

#include <cstdint>

#include "common/cpu_features.h"
#include "common/hash.h"
#include "common/macros.h"

#if AMAC_SIMD_X86
#include <immintrin.h>
#define AMAC_TARGET_AVX2 __attribute__((target("avx2")))
#define AMAC_TARGET_AVX512 __attribute__((target("avx512f,avx512dq")))
#endif

namespace amac {

/// Lane width of the vectorized kernels: 8 x 64-bit keys (one AVX-512
/// vector, two AVX2 vectors, or an unrolled scalar loop).
inline constexpr uint32_t kSimdLanes = 8;

#if AMAC_SIMD_X86
namespace simd_detail {

/// Lane mask for a 4-wide half from the low 4 bits of `nibble`: lane i is
/// all-ones iff bit i is set (the form AVX2 masked gathers consume).
AMAC_TARGET_AVX2 inline __m256i LaneMask4(uint32_t nibble) {
  const __m256i bits = _mm256_set_epi64x(8, 4, 2, 1);
  const __m256i v = _mm256_set1_epi64x(static_cast<long long>(nibble));
  return _mm256_cmpeq_epi64(_mm256_and_si256(v, bits), bits);
}

/// Masked 64-bit gather treating the index lanes as absolute addresses
/// (base nullptr, scale 1).  Masked-off lanes touch no memory, so inactive
/// lanes may hold stale/null addresses safely.
AMAC_TARGET_AVX2 inline __m256i MaskGather64(__m256i addrs, __m256i mask) {
  return _mm256_mask_i64gather_epi64(_mm256_setzero_si256(),
                                     reinterpret_cast<const long long*>(0),
                                     addrs, mask, 1);
}

/// Low 64 bits of a*b per lane, emulated from 32-bit products (AVX2 has no
/// 64-bit multiply): lo*lo + ((lo*hi + hi*lo) << 32), bitwise-exact.
AMAC_TARGET_AVX2 inline __m256i MulLo64(__m256i a, uint64_t b) {
  const __m256i vb = _mm256_set1_epi64x(static_cast<long long>(b));
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(vb, 32);
  const __m256i lo_lo = _mm256_mul_epu32(a, vb);
  const __m256i lo_hi = _mm256_mul_epu32(a, b_hi);
  const __m256i hi_lo = _mm256_mul_epu32(a_hi, vb);
  const __m256i cross = _mm256_add_epi64(lo_hi, hi_lo);
  return _mm256_add_epi64(lo_lo, _mm256_slli_epi64(cross, 32));
}

AMAC_TARGET_AVX2 inline __m256i Mix64x4(__m256i k) {
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  k = MulLo64(k, 0xff51afd7ed558ccdull);
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  k = MulLo64(k, 0xc4ceb9fe1a85ec53ull);
  k = _mm256_xor_si256(k, _mm256_srli_epi64(k, 33));
  return k;
}

AMAC_TARGET_AVX2 inline void Mix64x8Avx2(const uint64_t* in, uint64_t* out) {
  const __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in));
  const __m256i hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + 4));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), Mix64x4(lo));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4), Mix64x4(hi));
}

AMAC_TARGET_AVX512 inline void Mix64x8Avx512(const uint64_t* in,
                                             uint64_t* out) {
  // Shifts are the all-lanes zero-masked form: _mm512_srli_epi64 merges
  // into an intentionally undefined vector, which gcc 12 reports as
  // maybe-uninitialized once inlined.  Same result on every lane.
  constexpr __mmask8 kAll = 0xff;
  __m512i k = _mm512_loadu_si512(in);
  k = _mm512_xor_si512(k, _mm512_maskz_srli_epi64(kAll, k, 33));
  k = _mm512_mullo_epi64(
      k, _mm512_set1_epi64(static_cast<long long>(0xff51afd7ed558ccdull)));
  k = _mm512_xor_si512(k, _mm512_maskz_srli_epi64(kAll, k, 33));
  k = _mm512_mullo_epi64(
      k, _mm512_set1_epi64(static_cast<long long>(0xc4ceb9fe1a85ec53ull)));
  k = _mm512_xor_si512(k, _mm512_maskz_srli_epi64(kAll, k, 33));
  _mm512_storeu_si512(out, k);
}

AMAC_TARGET_AVX2 inline void Gather64x8Avx2(const uint64_t* const* addrs,
                                            uint64_t* out) {
  const __m256i a0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(addrs));
  const __m256i a1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(addrs + 4));
  const __m256i v0 = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(0), a0, 1);
  const __m256i v1 = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(0), a1, 1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), v0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4), v1);
}

/// Count of sorted keys[i] (i < count) satisfying keys[i] <= key (le) or
/// keys[i] < key (lt), via 4-wide masked compares.  Reads ceil(count/4)*4
/// slots — see the contract on the public wrapper.
AMAC_TARGET_AVX2 inline uint32_t CountSortedAvx2(const int64_t* keys,
                                                 uint32_t count, int64_t key,
                                                 bool less_eq) {
  const __m256i vkey = _mm256_set1_epi64x(key);
  uint32_t matched = 0;
  for (uint32_t base = 0; base < count; base += 4) {
    const __m256i vk =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + base));
    // less_eq: keys[i] <= key  ==  !(keys[i] > key); lt: key > keys[i].
    const __m256i pred = less_eq ? _mm256_cmpgt_epi64(vk, vkey)
                                 : _mm256_cmpgt_epi64(vkey, vk);
    uint32_t bits =
        static_cast<uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(pred)));
    if (less_eq) bits = (~bits) & 0xf;
    const uint32_t in_range =
        count - base >= 4 ? 0xf : ((1u << (count - base)) - 1);
    matched += static_cast<uint32_t>(__builtin_popcount(bits & in_range));
  }
  return matched;
}

}  // namespace simd_detail
#endif  // AMAC_SIMD_X86

/// MurmurHash3 finalizer over 8 lanes, bitwise-equal to Mix64 per lane.
inline void Mix64x8(const uint64_t in[kSimdLanes], uint64_t out[kSimdLanes]) {
#if AMAC_SIMD_X86
  const SimdLevel level = CurrentSimdLevel();
  if (level == SimdLevel::kAvx512) {
    simd_detail::Mix64x8Avx512(in, out);
    return;
  }
  if (level == SimdLevel::kAvx2) {
    simd_detail::Mix64x8Avx2(in, out);
    return;
  }
#endif
  for (uint32_t i = 0; i < kSimdLanes; ++i) out[i] = Mix64(in[i]);
}

/// 8-lane HashToBucket (common/hash.h) with the HashKind resolved at
/// runtime, as the table stores it.
///
/// Deliberately scalar inside: the Murmur finalizer is three 64-bit
/// multiplies, and eight *independent* scalar imuls pipeline at ~3
/// cycles/key, while the SIMD finalizer pays the AVX2 emulated 64x64
/// multiply (six vpmuludq + shifts per step) or AVX-512's multi-uop
/// vpmullq — measured 2-4x slower per key than the scalar loop on the
/// machines this targets (see micro_primitives BM_ScalarHash8 /
/// BM_VectorHash8).  The vector policies' win lives in the gather/compare
/// kernels, not the hash; Mix64x8 above remains for tests and benches.
inline void HashToBucket8(HashKind kind, const int64_t keys[kSimdLanes],
                          uint64_t bucket_mask, uint64_t out[kSimdLanes]) {
  if (kind == HashKind::kRadix) {
    for (uint32_t i = 0; i < kSimdLanes; ++i) {
      out[i] = static_cast<uint64_t>(keys[i]) & bucket_mask;
    }
    return;
  }
  for (uint32_t i = 0; i < kSimdLanes; ++i) {
    out[i] = Mix64(static_cast<uint64_t>(keys[i])) & bucket_mask;
  }
}

/// Gather one 64-bit word from each of 8 addresses (all must be valid).
/// Exists for the gather-vs-scalar-load microbench and kernel tests; the
/// probe/BST kernels use masked in-register gathers directly.
inline void Gather64x8(const uint64_t* const addrs[kSimdLanes],
                       uint64_t out[kSimdLanes]) {
#if AMAC_SIMD_X86
  if (CurrentSimdLevel() >= SimdLevel::kAvx2) {
    simd_detail::Gather64x8Avx2(addrs, out);
    return;
  }
#endif
  for (uint32_t i = 0; i < kSimdLanes; ++i) out[i] = *addrs[i];
}

/// Number of entries in the sorted array `keys[0..count)` that are <= key.
/// Equivalent to the B+-tree inner-node routing scan
/// (`while (i < count && key >= keys[i]) ++i`).  SIMD contract: the array
/// must be readable through index RoundUp(count, 4) - 1 (BTreeNode
/// satisfies this — keys[15] is followed in-struct by the child/payload
/// union).  count must be <= 16.
inline uint32_t CountSortedLessEq(const int64_t* keys, uint32_t count,
                                  int64_t key) {
  AMAC_DCHECK(count <= 16);
#if AMAC_SIMD_X86
  if (CurrentSimdLevel() >= SimdLevel::kAvx2) {
    return simd_detail::CountSortedAvx2(keys, count, key, /*less_eq=*/true);
  }
#endif
  uint32_t i = 0;
  while (i < count && key >= keys[i]) ++i;
  return i;
}

/// Number of entries in the sorted array `keys[0..count)` that are < key —
/// BTreeNode::LowerBound.  Same readability contract as CountSortedLessEq.
inline uint32_t CountSortedLess(const int64_t* keys, uint32_t count,
                                int64_t key) {
  AMAC_DCHECK(count <= 16);
#if AMAC_SIMD_X86
  if (CurrentSimdLevel() >= SimdLevel::kAvx2) {
    return simd_detail::CountSortedAvx2(keys, count, key, /*less_eq=*/false);
  }
#endif
  uint32_t i = 0;
  while (i < count && keys[i] < key) ++i;
  return i;
}

}  // namespace amac
