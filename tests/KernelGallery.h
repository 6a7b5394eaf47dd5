//===- tests/KernelGallery.h - Classic dense kernels as DSL -----*- C++ -*-===//
///
/// \file
/// The kernel gallery: classic dense kernels as DSL programs, shared by
/// KernelGalleryTest (what the framework finds on each) and
/// SimulatorEquivalenceTest (the simulator costs each exactly as the
/// reference oracle does).
///
//===----------------------------------------------------------------------===//

#ifndef ALP_TESTS_KERNELGALLERY_H
#define ALP_TESTS_KERNELGALLERY_H

#include <utility>

namespace alp {
namespace gallery {

inline constexpr const char *Jacobi = R"(
program jacobi;
param N = 255, T = 4;
array A[N + 1, N + 1], B[N + 1, N + 1];
for t = 1 to T {
  forall i = 1 to N - 1 {
    forall j = 1 to N - 1 {
      B[i, j] = f(A[i - 1, j], A[i + 1, j], A[i, j - 1], A[i, j + 1])
        @cost(10);
    }
  }
  forall i = 1 to N - 1 {
    forall j = 1 to N - 1 {
      A[i, j] = B[i, j] @cost(4);
    }
  }
}
)";

inline constexpr const char *GaussSeidel = R"(
program seidel;
param N = 255;
array A[N + 1, N + 1];
for i = 1 to N - 1 {
  for j = 1 to N - 1 {
    A[i, j] = f(A[i - 1, j], A[i, j - 1], A[i, j]) @cost(10);
  }
}
)";

inline constexpr const char *Matmul = R"(
program matmul;
param N = 127;
array A[N + 1, N + 1], B[N + 1, N + 1], C[N + 1, N + 1];
forall i = 0 to N {
  forall j = 0 to N {
    for k = 0 to N {
      C[i, j] += A[i, k] * B[k, j] @cost(2);
    }
  }
}
)";

inline constexpr const char *Lu = R"(
program lu;
param N = 63;
array A[N + 1, N + 1];
for k = 0 to N - 1 {
  forall i = k + 1 to N {
    A[i, k] = A[i, k] / A[k, k];
  }
  forall i = k + 1 to N {
    forall j = k + 1 to N {
      A[i, j] = A[i, j] - A[i, k] * A[k, j];
    }
  }
}
)";

inline constexpr const char *FloydWarshall = R"(
program fw;
param N = 63;
array D[N + 1, N + 1];
for k = 0 to N {
  forall i = 0 to N {
    forall j = 0 to N {
      D[i, j] = f(D[i, j], D[i, k], D[k, j]);
    }
  }
}
)";

inline constexpr const char *TriangularSolve = R"(
program trisolve;
param N = 127;
array L[N + 1, N + 1], X[N + 1, N + 1], B[N + 1, N + 1];
forall r = 0 to N {
  for i = 0 to N {
    for j = 0 to i - 1 {
      B[r, i] = B[r, i] - L[i, j] * X[r, j] @cost(4);
    }
    X[r, i] = B[r, i] / L[i, i] @cost(4);
  }
}
)";

inline constexpr const char *TransposeCopy = R"(
program transpose;
param N = 255;
array A[N + 1, N + 1], B[N + 1, N + 1];
forall i = 0 to N { forall j = 0 to N { B[i, j] = A[i, j] @cost(8); } }
forall i = 0 to N { forall j = 0 to N { A[j, i] = B[i, j] @cost(8); } }
)";

/// Every kernel with its name.
inline constexpr std::pair<const char *, const char *> All[] = {
    {"Jacobi", Jacobi},
    {"GaussSeidel", GaussSeidel},
    {"Matmul", Matmul},
    {"Lu", Lu},
    {"FloydWarshall", FloydWarshall},
    {"TriangularSolve", TriangularSolve},
    {"TransposeCopy", TransposeCopy},
};

} // namespace gallery
} // namespace alp

#endif // ALP_TESTS_KERNELGALLERY_H
