"""Radial sine eigenbasis on the unit ball.

Eigenfunctions e_n(x) = sin(n pi |x|)/|x| with Dirichlet boundary, their
L^p norms, the quartic correlation tensor c(n,n1,n2,n3) = int_B e_n e_n1
e_n2 e_n3 dx with its near-resonant truncated view, the diagonal sigma
sums, and lattice-point counting on circles.

All integrals over the ball reduce to 4*pi * int_0^1 f(r) r^2 dr for
radial f.  Integrands with 1/r factors are always evaluated through their
regular sinc form, never by dividing near r = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np
from scipy.special import sici

from .errors import DomainError, ResolutionError

__all__ = [
    "QuadratureRule",
    "CorrelationTensor",
    "TruncatedTensorView",
    "gauss_legendre_rule",
    "rule_for_modes",
    "eigenfunction_value",
    "eval_matrix",
    "nodal_modulus_sq",
    "trapezoid_weights",
    "eigenfunction_lp_norm",
    "inner_product",
    "correlation",
    "correlation_quadrature",
    "build_tensor",
    "cubic_term",
    "quartic_form",
    "sigma_sum",
    "count_circle_representations",
    "max_circle_count",
]

# L2 norm squared of every eigenfunction: 4*pi*int_0^1 sin^2(n*pi*r) dr = 2*pi.
EIGEN_NORM_SQ = 2.0 * np.pi


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for int_0^1 f(r) dr, plus a resolution tag.

    ``order`` is the total node count; the default constructors place at
    least 8 nodes per half-oscillation of the highest requested mode.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise DomainError("nodes and weights must be matching 1-d arrays")
        if np.any(np.diff(nodes) <= 0):
            raise DomainError("quadrature nodes must be strictly increasing")
        if nodes[0] <= 0 or nodes[-1] > 1:
            raise DomainError("quadrature nodes must lie in (0, 1]")
        if np.any(weights <= 0):
            raise DomainError("quadrature weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-14:
            raise DomainError("rule does not reproduce int_0^1 1 dr")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def integrate(self, values: np.ndarray) -> float | np.ndarray:
        """Integrate sampled values f(nodes) over [0, 1]."""
        return np.asarray(values) @ self.weights


def gauss_legendre_rule(panels: int, degree: int = 8) -> QuadratureRule:
    """Composite Gauss-Legendre rule on [0, 1] with `panels` x `degree` nodes."""
    if panels < 1 or degree < 2:
        raise DomainError("need panels >= 1 and degree >= 2")
    x, w = np.polynomial.legendre.leggauss(degree)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (half[:, None] * x[None, :] + mid[:, None]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return QuadratureRule(nodes, weights, order=nodes.size)


def rule_for_modes(n_top: int) -> QuadratureRule:
    """Rule resolving products of modes up to n_top.

    sin(n_top*pi*r) has n_top half-oscillations on [0,1]; we place 8 nodes
    on each.
    """
    if n_top < 1:
        raise DomainError("n_top must be >= 1")
    total = max(32, 8 * n_top)
    degree = 8
    panels = max(4, math.ceil(total / degree))
    return gauss_legendre_rule(panels, degree)


def _check_index(n: int, name: str = "n") -> int:
    n = int(n)
    if n < 1:
        raise DomainError(f"{name} must be a positive integer, got {n}")
    return n


def eigenfunction_value(n: int, r):
    """Evaluate e_n(r) = sin(n pi r)/r, with the limit n*pi at r = 0."""
    n = _check_index(n)
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0) or np.any(r_arr > 1):
        raise DomainError("radius must lie in [0, 1]")
    # sin(n pi r)/r = n pi sinc(n r), regular at the origin.
    vals = n * np.pi * np.sinc(n * r_arr)
    return float(vals) if np.isscalar(r) else vals


def eval_matrix(N: int, nodes: np.ndarray) -> np.ndarray:
    """(N, len(nodes)) matrix E[n-1, j] = e_n(r_j), so u(nodes) = a @ E."""
    n = np.arange(1, N + 1, dtype=float)[:, None]
    return n * np.pi * np.sinc(n * nodes[None, :])


def nodal_modulus_sq(A: np.ndarray, E: np.ndarray):
    """Yield (rows, |A[rows] @ E|^2) over row chunks of ~2^19 nodal values.

    The chunks (4 MB; 256 rows at N = 64 on rule_for_modes(4 N)) keep the
    GEMM output and its temporaries cache-sized.  E is real, so two real
    GEMMs replace the complex one numpy would run on E promoted to complex,
    and no square root is taken.  The strided .real/.imag views are copied,
    or matmul bypasses BLAS.

    The yielded array is one buffer, reused for every chunk: the caller may
    overwrite it but must not keep it.  Fresh 4 MB arrays per chunk came
    from newly mapped pages and cost ~1 ms each in page faults.
    """
    step = max(1, min(A.shape[0], 2**19 // E.shape[1]))
    u2_buf = np.empty((step, E.shape[1]))
    im_buf = np.empty_like(u2_buf)
    for lo in range(0, A.shape[0], step):
        a = A[lo : lo + step]
        u2 = np.matmul(np.ascontiguousarray(a.real), E, out=u2_buf[: len(a)])
        u2 *= u2
        im = np.matmul(np.ascontiguousarray(a.imag), E, out=im_buf[: len(a)])
        im *= im
        u2 += im
        yield slice(lo, lo + step), u2


def trapezoid_weights(count: int, dt: float) -> np.ndarray:
    """Trapezoid-rule weights for `count` samples spaced dt apart in time."""
    tw = np.full(count, dt)
    tw[0] = tw[-1] = dt / 2.0
    return tw


def eigenfunction_lp_norm(n: int, p: float, rule: QuadratureRule) -> float:
    """(4 pi int_0^1 |e_n(r)|^p r^2 dr)^(1/p) via the rule."""
    n = _check_index(n)
    if p < 1:
        raise DomainError("p must be >= 1")
    if rule.order < 8 * n:
        raise ResolutionError(
            f"rule with {rule.order} nodes under-resolves mode {n}; "
            f"need >= {8 * n}"
        )
    vals = np.abs(eigenfunction_value(n, rule.nodes)) ** p * rule.nodes**2
    return float((4.0 * np.pi * rule.integrate(vals)) ** (1.0 / p))


def inner_product(m: int, n: int) -> float:
    """<e_m, e_n>_{L^2(B)} = 2 pi delta_{mn}, analytically."""
    m = _check_index(m, "m")
    n = _check_index(n, "n")
    return EIGEN_NORM_SQ if m == n else 0.0


def correlation(n: int, n1: int, n2: int, n3: int) -> float:
    """c(n,n1,n2,n3) = 4 pi int_0^1 prod sin(n_i pi r) / r^2 dr, closed form.

    Product-to-sum expansion into eight cosines (coefficient sum zero),
    then int_0^1 (cos(q r) - 1)/r^2 dr = (1 - cos q) - q Si(q) termwise.
    """
    index = [_check_index(v) for v in (n, n1, n2, n3)]
    return float(_correlation_batch(np.array([index]))[0])


def correlation_quadrature(n: int, n1: int, n2: int, n3: int) -> float:
    """Independent adaptive-quadrature path for c(n,n1,n2,n3).

    Integrates prod e_{n_i}(r) * r^2 = prod sin(n_i pi r) / r^2, zero at
    r = 0, in math-module scalars (~50x faster inside quad than numpy on
    scalars), to 1e-12 absolute and relative.  Serves as the oracle for
    the sine-integral closed form.
    """
    # imported here: scipy.integrate pulls in scipy.optimize, linalg and
    # sparse, ~0.5 s of every CLI start for a function only tests call
    from scipy.integrate import quad

    n, n1, n2, n3 = (_check_index(v) for v in (n, n1, n2, n3))
    k, k1, k2, k3 = (math.pi * v for v in (n, n1, n2, n3))

    def integrand(r):
        s = math.sin(k * r) * math.sin(k1 * r) * math.sin(k2 * r) * math.sin(k3 * r)
        return s / (r * r) if r else 0.0

    limit = max(200, 4 * (n + n1 + n2 + n3))
    val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=limit)
    return float(4.0 * np.pi * val)


def _correlation_batch(tuples: np.ndarray) -> np.ndarray:
    """Vectorized closed form over an (M, 4) integer index array.

    Each entry is a signed sum of F(|k|) = (1 - cos |k| pi) - |k| pi Si(|k| pi)
    over eight sums k = n +- n1 +- n2 +- n3.  Only the |k| up to the
    largest sum occur, so F is tabulated once per |k| and gathered.
    """
    n, n1, n2, n3 = np.asarray(tuples, dtype=np.int64).T
    s1, s2 = n - n1, n + n1
    s3, s4 = n2 - n3, n2 + n3
    ks = np.abs(
        np.stack(
            [s1 - s3, s1 + s3, s1 - s4, s1 + s4, s2 - s3, s2 + s3, s2 - s4, s2 + s4],
            axis=1,
        )
    )
    q = np.arange(ks.max() + 1) * np.pi
    F = (1.0 - np.cos(q)) - q * sici(q)[0]
    eps = np.array([1, 1, -1, -1, -1, -1, 1, 1], dtype=float)
    return 4.0 * np.pi * ((eps * F[ks]).sum(axis=1)) / 8.0


def _canonical_tuples(n_max: int) -> np.ndarray:
    """Sorted index tuples a <= b <= c <= d <= n_max in lexicographic order.

    That is the order of combinations_with_replacement(range(1, n_max+1), 4):
    pairs (a, b) and (c, d) in row-major triangle order, joined where b <= c.
    """
    a, b = np.triu_indices(n_max)
    i, j = np.nonzero(b[:, None] <= a[None, :])
    return np.stack([a[i], b[i], a[j], b[j]], axis=1) + 1


@dataclass(frozen=True)
class CorrelationTensor:
    """Fully symmetric quartic tensor c(n,n1,n2,n3), indices <= n_max.

    ``values`` holds one float64 per canonical (sorted) tuple, in the order
    of _canonical_tuples(n_max), which is the cache order.  The one array
    kept per N is the contraction matrix; a tensor made by
    dataclasses.replace starts with none.
    """

    n_max: int
    values: np.ndarray = field(repr=False)
    _matrices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def value(self, n: int, n1: int, n2: int, n3: int) -> float:
        key = tuple(sorted((int(n), int(n1), int(n2), int(n3))))
        if key[-1] > self.n_max:
            raise ResolutionError(
                f"index {key[-1]} exceeds tensor cutoff n_max={self.n_max}"
            )
        if key[0] < 1:
            raise DomainError("indices must be >= 1")
        # (a-1, b, c+1, d+2) is a 4-subset of {0, ..., n+2}; its rank among
        # the lexicographically ordered subsets has this closed form
        a, b, c, d = key
        n = self.n_max
        rank = (
            math.comb(n + 3, 4) - 1 - math.comb(n + 3 - a, 4)
            - math.comb(n + 2 - b, 3) - math.comb(n + 1 - c, 2) - (n - d)
        )
        return float(self.values[rank])

    def dense(self, N: int | None = None) -> np.ndarray:
        """Read-only (N,N,N,N) view C[n-1,n1-1,n2-1,n3-1] of the real part
        of contraction_matrix(N)."""
        N = self.n_max if N is None else int(N)
        C = self.contraction_matrix(N).real.reshape(N, N, N, N)
        C.flags.writeable = False
        return C

    def contraction_matrix(self, N: int) -> np.ndarray:
        """C reshaped to (n*n1, n2*n3), equal to (n1*n2, n*n3) by symmetry,
        so cubic terms become two GEMMs.

        Stored complex, the dtype every caller multiplies it in, so numpy
        does not up-cast the N^4 matrix on each call.
        """
        N = int(N)
        if N > self.n_max:
            raise ResolutionError(f"N={N} exceeds tensor cutoff {self.n_max}")
        if N not in self._matrices:
            keys = _canonical_tuples(self.n_max)
            inside = keys[:, 3] <= N
            idx = np.ascontiguousarray(keys[inside].T) - 1
            vals = self.values[inside]
            M1 = np.zeros((N * N, N * N), dtype=complex)
            # scatter through flat indices: tuple indexing of the 4-d array
            # took twice as long at N = 64
            flat = M1.reshape(-1).real
            for i, j, k, l in permutations(idx):
                flat[((i * N + j) * N + k) * N + l] = vals
            self._matrices[N] = M1
        return self._matrices[N]


@dataclass(frozen=True)
class TruncatedTensorView:
    """c_K: entries vanish when |n^2 - n1^2 + n2^2 - n3^2| >= 10 K."""

    base: CorrelationTensor
    K: float

    def __post_init__(self):
        if self.K <= 0:
            raise DomainError("truncation threshold K must be positive")

    @property
    def n_max(self) -> int:
        return self.base.n_max

    def value(self, n: int, n1: int, n2: int, n3: int) -> float:
        if abs(n**2 - n1**2 + n2**2 - n3**2) >= 10.0 * self.K:
            # still validate the cutoff like the base tensor would
            if max(n, n1, n2, n3) > self.base.n_max:
                raise ResolutionError("index exceeds tensor cutoff")
            return 0.0
        return self.base.value(n, n1, n2, n3)

    def dense(self, N: int | None = None) -> np.ndarray:
        N = self.base.n_max if N is None else int(N)
        C = self.base.dense(N).copy()
        sq = (np.arange(1, N + 1) ** 2).astype(float)
        res = (
            sq[:, None, None, None]
            - sq[None, :, None, None]
            + sq[None, None, :, None]
            - sq[None, None, None, :]
        )
        C[np.abs(res) >= 10.0 * self.K] = 0.0
        return C


def build_tensor(n_max: int) -> CorrelationTensor:
    """Populate all canonical tuples with entries <= n_max.

    The closed-form sine-integral path fills the tensor (the dual-path
    cross-check against correlation_quadrature lives in the test suite).
    """
    n_max = _check_index(n_max, "n_max")
    values = _correlation_batch(_canonical_tuples(n_max))
    return CorrelationTensor(n_max=n_max, values=values)


def cubic_term(A: np.ndarray, M1: np.ndarray) -> np.ndarray:
    """w_n = sum c(n,n1,n2,n3) a_n1 conj(a_n2) a_n3 for a (samples, N) batch.

    M1 is ``CorrelationTensor.contraction_matrix(N)``; the sum is two GEMMs.
    """
    S, N = A.shape
    D = (A[:, :, None] * np.conj(A)[:, None, :]).reshape(S, N * N)
    F = (D @ M1).reshape(S, N, N)
    return np.einsum("snc,sc->sn", F, A)


def quartic_form(
    coeffs: np.ndarray, tensor: CorrelationTensor
) -> float | np.ndarray:
    """int_B |u|^4 dx = Re sum conj(a_n) w_n(a), by exact tensor contraction.

    A float for one coefficient vector, one value per row of a matrix.  Each
    is real and non-negative up to a 1e-10 relative imaginary residue, which
    is checked and discarded.
    """
    a = np.asarray(coeffs, dtype=complex)
    A = np.atleast_2d(a)
    W = cubic_term(A, tensor.contraction_matrix(A.shape[1]))
    q = np.einsum("sn,sn->s", np.conj(A), W)
    bad = np.abs(q.imag) > 1e-10 * np.maximum(np.abs(q), 1.0)
    if bad.any():
        residue = q.imag[np.argmax(bad)]
        raise FloatingPointError(f"quartic form has imaginary residue {residue:.3e}")
    out = np.maximum(q.real, 0.0)
    return float(out[0]) if a.ndim == 1 else out


def sigma_sum(n: int, N2: int, tensor: CorrelationTensor) -> float:
    """sigma_{n,N2} = sum_{N2 <= n2 < 2 N2} c(n,n,n2,n2) / n2^2."""
    n = _check_index(n)
    N2 = _check_index(N2, "N2")
    if 2 * N2 - 1 > tensor.n_max or n > tensor.n_max:
        raise ResolutionError(
            f"sigma sum needs indices up to {max(2 * N2 - 1, n)}, "
            f"tensor cutoff is {tensor.n_max}"
        )
    return float(
        sum(tensor.value(n, n, n2, n2) / n2**2 for n2 in range(N2, 2 * N2))
    )


def count_circle_representations(l: int, N: int) -> int:
    """|{(n,n') in [0,N]^2 : n^2 + n'^2 = l}| by direct enumeration."""
    l = int(l)
    N = int(N)
    if l < 0:
        raise DomainError("l must be non-negative")
    if N < 0:
        raise DomainError("N must be non-negative")
    count = 0
    for n in range(0, min(N, math.isqrt(l)) + 1):
        rem = l - n * n
        m = math.isqrt(rem)
        if m * m == rem and m <= N:
            count += 1
    return count


def max_circle_count(N: int, l_max: int | None = None) -> tuple[int, int]:
    """(max count, argmax l) over all l <= l_max (default 2 N^2)."""
    N = int(N)
    if N < 0:
        raise DomainError("N must be non-negative")
    l_max = 2 * N * N if l_max is None else int(l_max)
    n = np.arange(N + 1, dtype=np.int64)
    sums = (n[:, None] ** 2 + n[None, :] ** 2).ravel()
    sums = sums[sums <= l_max]
    counts = np.bincount(sums)
    return int(counts.max()), int(np.argmax(counts))
