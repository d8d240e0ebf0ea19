#ifndef CAME_TENSOR_GEMM_H_
#define CAME_TENSOR_GEMM_H_

#include <cstdint>
#include <string>

namespace came::tensor::gemm {

// ---------------------------------------------------------------------------
// Single-precision GEMM: C (m x n, row-major) = op(A) * op(B) [+ C].
//
// Two schedules, chosen by shape alone (see DESIGN.md "GEMM subsystem"):
//  - unpacked: a product with fewer rows than the active microkernel's
//    tile height MR, or with fewer than 32^3 multiply-adds, runs serially
//    on vector lanes over the columns of C, one register chain per row,
//    reading B in place (a transposed B passes through registers a
//    lanes x lanes block at a time). Nothing is packed.
//  - blocked: everything else is a cache-blocked, packed-panel SGEMM with
//    a register-tiled microkernel, distributed over the ParallelFor pool
//    with a partition that depends only on the shape.
// Both read operands through their transpose flags, so no transposed copy
// is materialized, and both compute each C element in the same chain, so
// results are bitwise-identical on either path and at every
// CAME_NUM_THREADS setting.
// ---------------------------------------------------------------------------

/// op(A) is m x k, op(B) is k x n, C is m x n, all dense row-major.
/// A is m x k (trans_a=false) or k x m (trans_a=true); B is k x n
/// (trans_b=false) or n x k (trans_b=true). `accumulate=false` overwrites
/// C; `accumulate=true` adds to it.
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool trans_a, bool trans_b, bool accumulate);

/// The tests' bitwise oracle and the benches' baseline; Gemm never calls
/// it. A plain serial loop that computes each C element in the chain both
/// Gemm schedules use: per 256-deep pass a sequential multiply-add over p
/// (fused on FMA builds) from zero, then one add into C. So for a given
/// build no output bit of Gemm depends on m, n, the kernel, or which
/// schedule a shape takes.
void ReferenceGemm(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n, bool trans_a, bool trans_b,
                   bool accumulate);

// ---------------------------------------------------------------------------
// Microkernel dispatch
// ---------------------------------------------------------------------------

/// Available microkernel implementations, best-first. Which ones exist in
/// the binary depends on the compile-time ISA (-march); which one runs is
/// decided at startup from cpuid, overridable via the CAME_GEMM_KERNEL
/// environment variable ("avx512" | "avx2" | "scalar" | "auto") or
/// SetKernel below.
enum class Kernel {
  kAuto,    ///< pick the best kernel the CPU and binary support
  kScalar,  ///< portable blocked C++ (still compiler-autovectorizable)
  kAvx2,    ///< AVX2 + FMA 6x16 microkernel
  kAvx512,  ///< AVX-512F 12x32 microkernel
};

/// The kernel Gemm will actually run (never kAuto). Resolved on first use
/// from CAME_GEMM_KERNEL, then cpuid; an unavailable request falls back to
/// the best available kernel with a warning.
Kernel ActiveKernel();

/// Forces the microkernel at runtime (tests / benches). kAuto restores
/// cpuid-based selection. Requests for kernels the CPU or binary cannot
/// run fall back to the best available one.
void SetKernel(Kernel k);

/// Human-readable name ("avx512", "avx2", "scalar", "auto").
std::string KernelName(Kernel k);

}  // namespace came::tensor::gemm

#endif  // CAME_TENSOR_GEMM_H_
