// Runtime SIMD dispatch for the batch slot kernel.
//
// QCD's packed inspect (core::QcdPreamble::inspectPacked) ships two
// implementations: a portable uint64_t word-level fallback and an AVX2
// specialization compiled with a per-function target attribute. Dispatch
// is decided once per process: the AVX2 path runs only when it was
// compiled in, the CPU advertises AVX2, and RFID_SIMD does not force the
// portable kernel. Both implementations are bit-identical by construction
// (pure integer compare — no floating point), which
// tests/test_batch_kernel.cpp checks by running the same batch under both
// modes.
#pragma once

namespace rfid::common::simd {

// AVX2 kernels are compiled on x86-64 with GCC/Clang (per-function
// `target("avx2")` attributes); other targets build the portable kernels
// only and dispatch trivially.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RFID_SIMD_AVX2_COMPILED 1
inline constexpr bool kAvx2Compiled = true;
#else
#define RFID_SIMD_AVX2_COMPILED 0
inline constexpr bool kAvx2Compiled = false;
#endif

/// How the batch kernels dispatch. kAuto honours the CPU and the RFID_SIMD
/// environment variable; kForcePortable pins the uint64_t fallback (used by
/// the differential tests to compare both implementations in one process).
enum class SimdMode { kAuto, kForcePortable };

/// Overrides dispatch at runtime (test hook; thread-safe).
void setSimdMode(SimdMode mode) noexcept;
SimdMode simdMode() noexcept;

/// True when the AVX2 kernels should run: compiled in, supported by the
/// CPU, not disabled via RFID_SIMD=scalar, and not forced off by
/// setSimdMode. CPU/environment detection is cached after the first call.
bool avx2Enabled() noexcept;

}  // namespace rfid::common::simd
