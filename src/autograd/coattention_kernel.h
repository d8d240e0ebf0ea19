#ifndef CAME_AUTOGRAD_COATTENTION_KERNEL_H_
#define CAME_AUTOGRAD_COATTENTION_KERNEL_H_

#include <cstdint>

namespace came::ag::coattention {

// Row kernels of ag::CoAttentionApply (the TCA inner loop). For one batch
// row of x, a, b (length d) and the scalar u = 1/tau:
//
//   S[i][j] = softmax over i of a[i] * (b[j] * u)
//   out[j]  = sum_i x[i] * S[i][j]
//
// The arithmetic is defined, not left to the compiler: this translation
// unit is built with -ffp-contract=off, and every reduction runs in
// sequential index order inside one vector lane. So each output is
// bitwise equal to the plain scalar loop
//
//   m = max_i(a[i]*bj); e_i = FastExp(a[i]*bj - m); denom = sum_i e_i;
//   S = e_i * (1/denom); out[j] = sum_i x[i]*S
//
// compiled without contraction, for every d (tails run through the same
// vector body with zero-padded lanes). Neither kernel stores the [d, d]
// softmax; the backward recomputes it with the forward's arithmetic.

/// Floats of scratch one call of ForwardRow or BackwardRow needs. A caller
/// running many rows allocates it once and reuses it across rows.
int64_t ScratchFloats(int64_t d);

/// Rows per ParallelFor chunk for a [batch, d] call: about the same work
/// per chunk at every d, and a function of d alone, so the chunk grid
/// depends only on (batch, d).
int64_t RowsPerChunk(int64_t d);

/// Floats of scratch ForwardRows needs for a [batch, d] call: one
/// BlockScratchFloats(RowsPerChunk(d), d) block per chunk.
int64_t ForwardRowsScratchFloats(int64_t batch, int64_t d);

/// ForwardBlock over every row of [batch, d] inputs, chunks of
/// RowsPerChunk(d) rows on the worker pool. `scratch` holds
/// ForwardRowsScratchFloats(batch, d) floats and needs no initialisation.
void ForwardRows(const float* x, const float* a, const float* b, float u,
                 int64_t batch, int64_t d, float* out, float* scratch);

/// Floats of scratch one ForwardBlock call over `rows` rows needs. It
/// grows with rows no faster than linearly: rows * BlockScratchFloats(1, d)
/// always suffices.
int64_t BlockScratchFloats(int64_t rows, int64_t d);

/// The forward of `rows` rows whose inputs start at x + r * x_stride,
/// a + r * a_stride and b + r * b_stride (a stride of 0 reads one row for
/// all), into out [rows, d]. The 16-column blocks of all rows run a few at
/// a time in one interleaved pass, each lane in ForwardRow's order. Serial.
/// The one forward body: the eager op (through ForwardRows) and the query
/// plan's replay both run it. `scratch` holds BlockScratchFloats(rows, d)
/// floats and needs no initialisation.
void ForwardBlock(const float* x, int64_t x_stride, const float* a,
                  int64_t a_stride, const float* b, int64_t b_stride, float u,
                  int64_t rows, int64_t d, float* out, float* scratch);

/// out[0..d) = the co-attention output of one row, one column block at a
/// time: the plain reference ForwardBlock is tested against (no production
/// caller). Lanes run over the column j. `scratch` holds ScratchFloats(d)
/// floats and needs no initialisation.
void ForwardRow(const float* x, const float* a, const float* b, float u,
                int64_t d, float* out, float* scratch);

/// Gradients of one row for the upstream gradient g and the forward output
/// o. Every non-null output is overwritten:
///   dx[i] = sum_j g[j] * S[i][j]                             (sequential j)
///   da[i] = sum_j (dM[i][j] * b[j]) * u                      (sequential j)
///   dsum[j] = sum_i dM[i][j] * a[i]                          (sequential i)
///   db[j] = dsum[j] * u
/// with dM[i][j] = S[i][j] * g[j] * (x[i] - o[j]). The du term of the row
/// is sum_j dsum[j] * b[j]; the caller reduces it across rows. dx and da
/// run lanes over i on the recomputed transposed softmax; dsum runs lanes
/// over j. `scratch` holds ScratchFloats(d) floats.
void BackwardRow(const float* x, const float* a, const float* b, float u,
                 const float* o, const float* g, int64_t d, float* dx,
                 float* da, float* db, float* dsum, float* scratch);

}  // namespace came::ag::coattention

#endif  // CAME_AUTOGRAD_COATTENTION_KERNEL_H_
