"""BLAS object-code kernels (levels 1 and 2, plus SGEMM).

Kernel variants are generated programmatically over precisions and
operational parameters — the cross-product that Section 6.2 argues makes
per-kernel hand-scheduling unmanageable.  The *object code* here is the naive
textbook loop nest; all performance comes from the scheduling libraries in
:mod:`repro.blas.level1` / ``level2`` / ``level3``.

``nrm2`` and ``iamax`` are excluded exactly as in the paper (the object
language has no value-dependent control flow).
"""

from __future__ import annotations

from typing import Dict, List

from ..frontend.decorators import proc_from_source

__all__ = [
    "LEVEL1_KERNELS",
    "LEVEL2_KERNELS",
    "SGEMM",
    "all_level1_names",
    "all_level2_names",
]


_PRECISIONS = {"s": "f32", "d": "f64"}


# ---------------------------------------------------------------------------
# Level 1
# ---------------------------------------------------------------------------


def _level1_sources(prec_char: str, T: str) -> Dict[str, str]:
    p = prec_char
    return {
        f"{p}asum": f"""
def {p}asum(n: size, x: {T}[n] @ DRAM, result: {T}[1] @ DRAM):
    for i in seq(0, n):
        result[0] += fabs(x[i])
""",
        f"{p}axpy": f"""
def {p}axpy(n: size, alpha: {T}, x: {T}[n] @ DRAM, y: {T}[n] @ DRAM):
    for i in seq(0, n):
        y[i] += alpha * x[i]
""",
        f"{p}dot": f"""
def {p}dot(n: size, x: {T}[n] @ DRAM, y: {T}[n] @ DRAM, result: {T}[1] @ DRAM):
    for i in seq(0, n):
        result[0] += x[i] * y[i]
""",
        f"{p}scal": f"""
def {p}scal(n: size, alpha: {T}, x: {T}[n] @ DRAM):
    for i in seq(0, n):
        x[i] = alpha * x[i]
""",
        f"{p}copy": f"""
def {p}copy(n: size, x: {T}[n] @ DRAM, y: {T}[n] @ DRAM):
    for i in seq(0, n):
        y[i] = x[i]
""",
        f"{p}swap": f"""
def {p}swap(n: size, x: {T}[n] @ DRAM, y: {T}[n] @ DRAM):
    for i in seq(0, n):
        tmp: {T} @ DRAM
        tmp = x[i]
        x[i] = y[i]
        y[i] = tmp
""",
        f"{p}rot": f"""
def {p}rot(n: size, c: {T}, s: {T}, x: {T}[n] @ DRAM, y: {T}[n] @ DRAM):
    for i in seq(0, n):
        xi: {T} @ DRAM
        xi = x[i]
        x[i] = c * xi + s * y[i]
        y[i] = c * y[i] - s * xi
""",
        f"{p}rotm": f"""
def {p}rotm(n: size, h11: {T}, h12: {T}, h21: {T}, h22: {T}, x: {T}[n] @ DRAM, y: {T}[n] @ DRAM):
    for i in seq(0, n):
        xi: {T} @ DRAM
        xi = x[i]
        x[i] = h11 * xi + h12 * y[i]
        y[i] = h21 * xi + h22 * y[i]
""",
    }


def _build_level1() -> Dict[str, object]:
    out: Dict[str, object] = {}
    for p, T in _PRECISIONS.items():
        for name, src in _level1_sources(p, T).items():
            out[name] = proc_from_source(src)
    # dsdot: single-precision inputs accumulated in double precision
    out["sdsdot"] = proc_from_source(
        """
def sdsdot(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM, result: f64[1] @ DRAM):
    for i in seq(0, n):
        result[0] += x[i] * y[i]
"""
    )
    out["dsdot"] = proc_from_source(
        """
def dsdot(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM, result: f64[1] @ DRAM):
    for i in seq(0, n):
        result[0] += x[i] * y[i]
"""
    )
    return out


# ---------------------------------------------------------------------------
# Level 2
# ---------------------------------------------------------------------------


def _level2_sources(p: str, T: str) -> Dict[str, str]:
    out = {
        f"{p}gemv_n": f"""
def {p}gemv_n(M: size, N: size, alpha: {T}, A: {T}[M, N] @ DRAM, x: {T}[N] @ DRAM, y: {T}[M] @ DRAM):
    for i in seq(0, M):
        for j in seq(0, N):
            y[i] += alpha * (A[i, j] * x[j])
""",
        f"{p}gemv_t": f"""
def {p}gemv_t(M: size, N: size, alpha: {T}, A: {T}[M, N] @ DRAM, x: {T}[M] @ DRAM, y: {T}[N] @ DRAM):
    for i in seq(0, M):
        for j in seq(0, N):
            y[j] += alpha * (A[i, j] * x[i])
""",
        f"{p}ger": f"""
def {p}ger(M: size, N: size, alpha: {T}, x: {T}[M] @ DRAM, y: {T}[N] @ DRAM, A: {T}[M, N] @ DRAM):
    for i in seq(0, M):
        for j in seq(0, N):
            A[i, j] += alpha * (x[i] * y[j])
""",
        f"{p}symv_l": f"""
def {p}symv_l(N: size, alpha: {T}, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM, y: {T}[N] @ DRAM):
    for i in seq(0, N):
        for j in seq(0, i + 1):
            y[i] += alpha * (A[i, j] * x[j])
        for j in seq(i + 1, N):
            y[i] += alpha * (A[j, i] * x[j])
""",
        f"{p}symv_u": f"""
def {p}symv_u(N: size, alpha: {T}, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM, y: {T}[N] @ DRAM):
    for i in seq(0, N):
        for j in seq(0, i):
            y[i] += alpha * (A[j, i] * x[j])
        for j in seq(i, N):
            y[i] += alpha * (A[i, j] * x[j])
""",
        f"{p}syr_l": f"""
def {p}syr_l(N: size, alpha: {T}, x: {T}[N] @ DRAM, A: {T}[N, N] @ DRAM):
    for i in seq(0, N):
        for j in seq(0, i + 1):
            A[i, j] += alpha * (x[i] * x[j])
""",
        f"{p}syr_u": f"""
def {p}syr_u(N: size, alpha: {T}, x: {T}[N] @ DRAM, A: {T}[N, N] @ DRAM):
    for i in seq(0, N):
        for j in seq(i, N):
            A[i, j] += alpha * (x[i] * x[j])
""",
        f"{p}syr2_l": f"""
def {p}syr2_l(N: size, alpha: {T}, x: {T}[N] @ DRAM, y: {T}[N] @ DRAM, A: {T}[N, N] @ DRAM):
    for i in seq(0, N):
        for j in seq(0, i + 1):
            A[i, j] += alpha * (x[i] * y[j]) + alpha * (y[i] * x[j])
""",
        f"{p}syr2_u": f"""
def {p}syr2_u(N: size, alpha: {T}, x: {T}[N] @ DRAM, y: {T}[N] @ DRAM, A: {T}[N, N] @ DRAM):
    for i in seq(0, N):
        for j in seq(i, N):
            A[i, j] += alpha * (x[i] * y[j]) + alpha * (y[i] * x[j])
""",
    }
    # triangular matrix-vector products: lower/upper × {non,unit}-diagonal
    for uplo in ("l", "u"):
        for diag in ("n", "u"):
            name = f"{p}trmv_{uplo}n{diag}"
            rng = "seq(0, i)" if uplo == "l" else "seq(i + 1, N)"
            diag_term = "x[i]" if diag == "u" else "A[i, i] * x[i]"
            out[name] = f"""
def {name}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM, y: {T}[N] @ DRAM):
    for i in seq(0, N):
        for j in {rng}:
            y[i] += A[i, j] * x[j]
        y[i] += {diag_term}
"""
            # transposed variants
            tname = f"{p}trmv_{uplo}t{diag}"
            trng = "seq(i + 1, N)" if uplo == "l" else "seq(0, i)"
            tdiag = "x[i]" if diag == "u" else "A[i, i] * x[i]"
            out[tname] = f"""
def {tname}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM, y: {T}[N] @ DRAM):
    for i in seq(0, N):
        for j in {trng}:
            y[i] += A[j, i] * x[j]
        y[i] += {tdiag}
"""
    return out


def _build_level2() -> Dict[str, object]:
    out: Dict[str, object] = {}
    for p, T in _PRECISIONS.items():
        for name, src in _level2_sources(p, T).items():
            out[name] = proc_from_source(src)
    return out


LEVEL1_KERNELS: Dict[str, object] = _build_level1()
LEVEL2_KERNELS: Dict[str, object] = _build_level2()


SGEMM = proc_from_source(
    """
def sgemm(M: size, N: size, K: size, A: f32[M, K] @ DRAM, B: f32[K, N] @ DRAM, C: f32[M, N] @ DRAM):
    for k in seq(0, K):
        for i in seq(0, M):
            for j in seq(0, N):
                C[i, j] += A[i, k] * B[k, j]
"""
)


def all_level1_names() -> List[str]:
    return sorted(LEVEL1_KERNELS.keys())


def all_level2_names() -> List[str]:
    return sorted(LEVEL2_KERNELS.keys())
