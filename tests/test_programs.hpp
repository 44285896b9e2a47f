#pragma once

// Shared DSL sources used across the test suite.

#include <string>

namespace artemis::testing {

/// Listing 1 of the paper: 3D 7-point Jacobi from HPGMG, with the iterate
/// extension used for time-iterated execution.
inline const char* kJacobiDsl = R"(
parameter L=16, M=16, N=16;
iterator k, j, i;
double in[L,M,N], out[L,M,N], a, b, h2inv;
copyin out, in, h2inv, a, b;
#pragma stream k block (32,16) unroll j=2
stencil jacobi (B, A, h2inv, a, b) {
  double c = b * h2inv;
  B[k][j][i] = a*A[k][j][i] - c*(A[k][j][i+1]
    + A[k][j][i-1] + A[k][j+1][i] + A[k][j-1][i] +
    A[k+1][j][i] + A[k-1][j][i] - A[k][j][i]*6.0);
}
jacobi (out, in, h2inv, a, b);
copyout out;
)";

/// Iterative variant: 4 ping-pong time steps. Note that `out` is NOT
/// copied in: the scratch buffer starts zeroed, so overlapped time tiling
/// (whose intermediates are zero-initialized) matches the ping-pong
/// reference exactly, boundaries included.
inline const char* kJacobiIterativeDsl = R"(
parameter L=12, M=12, N=12;
iterator k, j, i;
double in[L,M,N], out[L,M,N], a, b, h2inv;
copyin in, h2inv, a, b;
stencil jacobi (B, A, h2inv, a, b) {
  double c = b * h2inv;
  B[k][j][i] = a*A[k][j][i] - c*(A[k][j][i+1]
    + A[k][j][i-1] + A[k][j+1][i] + A[k][j-1][i] +
    A[k+1][j][i] + A[k-1][j][i] - A[k][j][i]*6.0);
}
iterate 4 {
  jacobi (out, in, h2inv, a, b);
  swap (out, in);
}
copyout in;
)";

/// A two-stage stencil DAG with a 1D coefficient array and #assign clauses,
/// exercising mixed dimensionality and resource directives.
inline const char* kDagDsl = R"(
parameter L=10, M=10, N=10;
iterator k, j, i;
double u[L,M,N], tmp[L,M,N], out[L,M,N], w[N], alpha;
copyin u, w, alpha;
#pragma block (16,8)
stencil blurx (T, U, W) {
  #assign shmem (U), gmem (W)
  T[k][j][i] = W[i] * (U[k][j][i-1] + U[k][j][i] + U[k][j][i+1]);
}
stencil blury (O, T, alpha) {
  O[k][j][i] = alpha * (T[k][j-1][i] + T[k][j][i] + T[k][j+1][i]);
}
blurx (tmp, u, w);
blury (out, tmp, alpha);
copyout out;
)";

/// A stage the native lowering refuses: the transposed read of the
/// pending write to B depends on the point order (the pending-alias rule),
/// so native execution falls back to the bytecode engine for it.
inline const char* kTransposeDsl = R"(
parameter L=8, M=8, N=8;
iterator k, j, i;
double in[L,M,N], out[L,M,N];
copyin in;
stencil transpose (B, A) {
  B[k][j][i] = A[k][j][i];
  B[k][j][i] = B[j][k][i] + 1.0;
}
transpose (out, in);
copyout out;
)";

/// A 2D five-point Laplacian.
inline const char* kLaplace2dDsl = R"(
parameter M=20, N=24;
iterator j, i;
double in[M,N], out[M,N];
copyin in;
stencil lap (B, A) {
  B[j][i] = A[j][i+1] + A[j][i-1] + A[j+1][i] + A[j-1][i] - 4.0*A[j][i];
}
lap (out, in);
copyout out;
)";

/// kDagDsl with `tmp` copied out as well, so a fused plan keeps it as a
/// materialized internal: scratch written back to global memory.
inline std::string dag_materialized_dsl() {
  std::string src = kDagDsl;
  const std::string copyout = "copyout out;";
  src.replace(src.find(copyout), copyout.size(), "copyout out, tmp;");
  return src;
}

}  // namespace artemis::testing
