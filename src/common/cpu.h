// The one runtime CPU-feature probe. Kernels compiled twice (a baseline
// translation unit and an -mavx2 one) ask it which build the running CPU
// can execute: the serving engine's dot kernels (src/serve/dot_block.h)
// and the matrix tile kernels (src/matrix/tile_gemm.h).
#pragma once

namespace pane {

/// True when the running CPU reports AVX2 (x86-64 only; false elsewhere).
/// Resolved once, thread-safe.
bool CpuHasAvx2();

}  // namespace pane
