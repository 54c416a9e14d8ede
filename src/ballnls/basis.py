"""Radial sine eigenbasis on the unit ball.

Eigenfunctions e_n(x) = sin(n pi |x|)/|x| with Dirichlet boundary, their
L^p norms, the exact grid forms of the cubic term and the quartic, the
quartic correlation tensor c(n,n1,n2,n3) = int_B e_n e_n1 e_n2 e_n3 dx,
the diagonal sigma sums, and lattice-point counting on circles.

All integrals over the ball reduce to 4*pi * int_0^1 f(r) r^2 dr for
radial f.  Integrands with 1/r factors are always evaluated through their
regular sinc form, never by dividing near r = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import numpy.fft  # noqa: F401  (loaded at import, not inside a command)
import numpy.polynomial.legendre  # noqa: F401  (loaded at import, not inside a command)

from .errors import DomainError, ResolutionError

__all__ = [
    "QuadratureRule",
    "CorrelationTensor",
    "gauss_legendre_rule",
    "rule_for_modes",
    "eigenfunction_value",
    "eval_matrix",
    "nodal_modulus_sq",
    "sine_samples",
    "sine_back",
    "quartic_grid",
    "cubic_grid",
    "trapezoid_weights",
    "eigenfunction_lp_norm",
    "inner_product",
    "correlation",
    "correlation_quadrature",
    "build_tensor",
    "CubicBuffers",
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
    """Nodes/weights for int_0^1 f(r) dr; ``order`` is the node count.

    The default constructors place at least 8 nodes per half-oscillation
    of the highest requested mode.
    """

    nodes: np.ndarray
    weights: np.ndarray

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

    @property
    def order(self) -> int:
        return self.nodes.size

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
    return QuadratureRule(nodes, weights)


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


def nodal_modulus_sq(A: np.ndarray, E: np.ndarray, rows: int | None = None):
    """Yield (rows, |A[rows] @ E|^2) over row chunks.

    A chunk holds ``rows`` rows, by default as many as make ~2^19 nodal
    values (4 MB): 256 rows at N = 64 on rule_for_modes(4 N), which keep
    the GEMM output and its temporaries cache-sized.  E is real, so the
    chunk's real parts stacked over its imaginary parts go through one real
    GEMM, not the complex one numpy would run on E promoted to complex, and
    no square root is taken.  A lone row is two rows of that GEMM, so it
    never takes numpy's one-row gemv path, whose bits differ from gemm's.

    The yielded array is one buffer, reused for every chunk: the caller may
    overwrite it but must not keep it.  Fresh 4 MB arrays per chunk came
    from newly mapped pages and cost ~1 ms each in page faults.
    """
    step = 2**19 // E.shape[1] if rows is None else rows
    step = max(1, min(A.shape[0], step))
    parts_buf = np.empty((2 * step, A.shape[1]))
    u2_buf = np.empty((2 * step, E.shape[1]))
    for lo in range(0, A.shape[0], step):
        a = A[lo : lo + step]
        n = len(a)
        parts = parts_buf[: 2 * n]
        np.copyto(parts[:n], a.real)
        np.copyto(parts[n:], a.imag)
        u2 = np.matmul(parts, E, out=u2_buf[: 2 * n])
        u2 *= u2
        yield slice(lo, lo + step), np.add(u2[:n], u2[n:], out=u2[:n])


def _dtt_transpose(X: np.ndarray, M: int, sine: bool) -> np.ndarray:
    """D^T X in long double, D the inverse DCT-I or DST-I on r_j = j/M.

    D[k, j] = (2/M) cos(k pi j/M) for k = 0..M with rows 0 and M halved
    (DCT-I), or (2/M) sin(k pi j/M) for k = 1..M - 1 (DST-I); the rows of
    X run over the same k, and j = 1..M - 1.  Row j of D^T X is then bin j
    of the FFT along k of X's even extension to 2M rows (its real part
    over M) or of its odd extension (its imaginary part over -M): Martucci
    1994.  numpy's FFT computes in long double from numpy 2.0 on.
    """
    zero = np.zeros_like(X[:1])
    parts = [zero, X, zero, -X[::-1]] if sine else [X, X[-2:0:-1]]
    # the extension is a temporary, freed as soon as the FFT returns
    Y = np.fft.rfft(np.concatenate(parts), axis=0)[1:M]
    return Y.imag / -M if sine else Y.real / M


@functools.cache
def sine_samples(N: int, M: int) -> np.ndarray:
    """Read-only S[n-1, j-1] = sin(n pi j/M), (N, M - 1): v = a @ S holds
    v(r) = r u(r) at r_j = j/M.  quartic_grid (M = 2N), cubic_grid and the
    Strang step (M = 3N + 1) share it."""
    n = np.arange(1, _check_index(N, "N") + 1)[:, None]
    j = np.arange(1, M)
    # the angles are reduced mod 2 pi exactly, on the integers n j
    S = np.sin(np.pi * ((n * j) % (2 * M)) / M)
    S.flags.writeable = False
    return S


@functools.cache
def sine_back(N: int, M: int) -> np.ndarray:
    """Read-only, C-contiguous (2/M) S^T, S = sine_samples(N, M): the DST-I,
    so a = v @ sine_back(N, M) undoes v = a @ S (for the Strang step)."""
    B = np.ascontiguousarray(sine_samples(N, M).T) * (2.0 / M)
    B.flags.writeable = False
    return B


@functools.cache
def quartic_grid(N: int) -> tuple[np.ndarray, np.ndarray]:
    """(S, H) with int_B |u|^4 dx = s^T H s exactly, s = |a @ S|^2.

    v(r) = r u(r) = sum a_n sin(n pi r), so ||u||_{L^4}^4 = 4 pi int_0^1
    |v|^4 r^-2 dr.  |v|^2 = sum_{k <= 2N} g_k cos(k pi r) is fixed by its
    samples at r_j = j/2N (DCT-I, Martucci 1994), of which the two ends
    are 0: S[n-1, j-1] = sin(n pi j/2N) gives the 2N - 1 interior ones, and
    g = D s.  As sum g_k = |v(0)|^2 = 0, the integral is g^T H0 g with
    H0[k, l] = 2 pi [F(k + l) + F(|k - l|)], F as in _f_table, so
    H = D^T H0 D, (2N - 1)^2 values.

    H is formed in long double, by two FFTs (_dtt_transpose), and then
    rounded: formed in float64, its rounding error grew with N, to 1.2e-13
    relative in the quartic at N = 256 against 8e-15 this way (platforms
    whose long double is float64 get the former).  Both arrays are
    read-only and shared by every caller.
    """
    N = _check_index(N, "N")
    M = 2 * N
    k = np.arange(M + 1)[:, None]
    pi = np.arccos(np.longdouble(-1.0))
    F = _f_table(2 * M).astype(np.longdouble)
    H0 = 2 * pi * (F[k + k.T] + F[abs(k - k.T)])
    # H^T = D^T (D^T H0)^T, two transforms
    H = _dtt_transpose(_dtt_transpose(H0, M, False).T, M, False)
    H = H.T.astype(float, order="C")
    H.flags.writeable = False
    return sine_samples(N, M), H


@functools.cache
def cubic_grid(N: int) -> tuple[np.ndarray, np.ndarray]:
    """(S, Q) with w = (|V|^2 V) @ Q exactly, V = a @ S, for cubic_term.

    v(r) = r u(r) = sum a_n sin(n pi r), and w_n = 4 pi int_0^1 |u|^2 u
    e_n r^2 dr = 4 pi int_0^1 |v|^2 v sin(n pi r) r^-2 dr.  |v|^2 v =
    sum_{k <= 3N} h_k sin(k pi r) is fixed by its samples at r_j = j/M,
    j = 1..M - 1 with M = 3N + 1 (DST-I, Martucci 1994): S[n-1, j-1] =
    sin(n pi j/M), and h = D f.  Termwise, sin(k pi r) sin(n pi r) =
    (cos((k - n) pi r) - cos((k + n) pi r))/2 gives w = h K3 with K3[k, n]
    = 2 pi [F(|k - n|) - F(k + n)], F as in _f_table, so Q = D^T K3,
    (3N, N).

    Q is formed in long double by FFT and then rounded, as quartic_grid's
    H is: formed in float64, w differed from the tensor contraction by up
    to 6.0e-14 of a row's largest coefficient over N <= 64, against
    2.6e-14 this way.  Both arrays are read-only and shared by every caller.
    """
    N = _check_index(N, "N")
    M = 3 * N + 1
    n = np.arange(1, N + 1)
    pi = np.arccos(np.longdouble(-1.0))
    k = np.arange(1, M)[:, None]
    F = _f_table(M - 1 + N).astype(np.longdouble)
    K3 = 2 * pi * (F[abs(k - n)] - F[k + n])
    Q = _dtt_transpose(K3, M, True).astype(float)
    Q.flags.writeable = False
    return sine_samples(N, M), Q


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

    Product-to-sum expansion into eight cosines cos(k pi r) (coefficient
    sum zero), then int_0^1 (cos(k pi r) - 1)/r^2 dr = F(|k|) termwise,
    F(k) = (1 - cos k pi) - k pi Si(k pi) from the numpy-only _f_table.
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
    # imported here, the package's one use of scipy: scipy.integrate pulls
    # in scipy.optimize, linalg and sparse, ~0.5 s of every CLI start for a
    # function only tests call
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

    Each entry is a signed sum of F(|k|) over eight sums k = n +- n1 +-
    n2 +- n3.  Only the |k| up to the largest sum occur, so F is
    tabulated once, by _f_table (numpy alone, within 1 ulp), and gathered.
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
    F = _f_table(ks.max())
    eps = np.array([1, 1, -1, -1, -1, -1, 1, 1], dtype=float)
    return 4.0 * np.pi * ((eps * F[ks]).sum(axis=1)) / 8.0


# F(0..15), correctly rounded from 40-digit values of (1 - cos k pi) -
# k pi Si(k pi)
_F_SMALL = (
    0.0, -3.8180318374188547, -8.910509146510103, -13.784258092564817,
    -18.75105097707073, -23.66625978370322, -28.614266047470636,
    -33.53957672439261, -38.4815263728654, -43.41075427992125,
    -48.35002450061938, -53.28116589974282, -58.21902200477598,
    -63.15123801618323, -68.08825838039795, -73.02113717810879,
)
# pi^2/2 = head + tail, head with 26 significant bits, so that k * head and
# 1 - k * head are exact for k < 2^27
_HALF_PI_SQ_HEAD = 4.934802174568176
_HALF_PI_SQ_TAIL = 2.5976503039885996e-08
# terms of the asymptotic series summed for k >= 16: the 25th is its
# smallest at k = 16, ~2.6e-21, and the remainder is below the first
# omitted term
_F_TERMS = 25


def _f_table(k_max: int) -> np.ndarray:
    """F(k) = int_0^1 (cos(k pi r) - 1) r^-2 dr = (1 - cos k pi) - k pi Si(k pi)
    for k = 0..k_max, within 1 ulp, in numpy alone.

    At x = k pi, sin x = 0 and cos x = (-1)^k, so Si(x) = pi/2 - (-1)^k f(x)
    with f the auxiliary function of Abramowitz & Stegun 5.2.8, and F(k) =
    1 - k pi^2/2 + (-1)^k eps(x), eps(x) = x f(x) - 1 = sum_{n >= 1} (-1)^n
    (2n)!/x^(2n) (A&S 5.2.34), summed by Horner's rule up to its smallest
    term at k = 16.  F(0..15) are tabulated constants.  Against 40-digit
    values, every k <= 20000 is correctly rounded.
    """
    F = np.empty(k_max + 1)
    small = min(k_max + 1, len(_F_SMALL))
    F[:small] = _F_SMALL[:small]
    k = np.arange(small, k_max + 1)
    y = 1.0 / (k * np.pi) ** 2
    p = np.ones_like(y)
    for n in range(_F_TERMS, 1, -1):
        p = 1.0 - (2 * n) * (2 * n - 1) * y * p
    # (-1)^k eps(x), eps(x) = -2 y p
    eps = np.where(k % 2 == 1, 2.0, -2.0) * y * p
    F[small:] = (1.0 - k * _HALF_PI_SQ_HEAD) + (eps - k * _HALF_PI_SQ_TAIL)
    return F


def _canonical_tuples(n_max: int) -> np.ndarray:
    """Sorted index tuples a <= b <= c <= d <= n_max in lexicographic order.

    That is the order of combinations_with_replacement(range(1, n_max+1), 4):
    pairs (a, b) and (c, d) in row-major triangle order, joined where b <= c.
    """
    a, b = np.triu_indices(n_max)
    i, j = np.nonzero(b[:, None] <= a[None, :])
    return np.stack([a[i], b[i], a[j], b[j]], axis=1) + 1


@functools.cache
def _pairs(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(iu, ju, pair, w) for the m = N(N+1)/2 index pairs p <= q.

    Pair P = (iu[P], ju[P]) in row-major triangle order; pair[p, q] =
    pair[q, p] is the rank of (min, max), and the weight w[P] is 2 off the
    diagonal and 1 on it, so that a sum over p <= q counts both (p, q) and
    (q, p).  All four are read-only.
    """
    iu, ju = np.triu_indices(N)
    pair = np.empty((N, N), dtype=np.intp)
    pair[iu, ju] = pair[ju, iu] = np.arange(iu.size)
    w = np.where(iu == ju, 1.0, 2.0)
    for arr in (iu, ju, pair, w):
        arr.flags.writeable = False
    return iu, ju, pair, w


@dataclass(frozen=True)
class CorrelationTensor:
    """Fully symmetric quartic tensor c(n,n1,n2,n3), indices <= n_max.

    ``values`` holds one float64 per canonical (sorted) tuple, in the order
    of _canonical_tuples(n_max), which is the cache order.  The one array
    kept per N is the real pair-packed contraction matrix, 8 m^2 bytes with
    m = N(N+1)/2; a tensor made by dataclasses.replace starts with none.
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
        """Read-only (N,N,N,N) array C[n-1,n1-1,n2-1,n3-1], gathered afresh
        from contraction_matrix(N) on each call.

        C[n,n1,n2,n3] = K[pair(n,n1), pair(n2,n3)] / w_pair(n,n1): one N^4
        allocation; dividing by the pair weights 1 and 2 is exact.
        """
        N = self.n_max if N is None else int(N)
        K = self.contraction_matrix(N)
        _, _, pair, w = _pairs(N)
        P = pair.ravel()
        C = K[P[:, None], P]
        C /= w[P, None]
        C.flags.writeable = False
        return C.reshape(N, N, N, N)

    def contraction_matrix(self, N: int) -> np.ndarray:
        """Real (m, m) matrix K[P, Q] = w_P c(p,q,n,c), m = N(N+1)/2.

        Rows P = (p <= q) and columns Q = (n <= c) run over the index pairs
        of _pairs(N), which also gives the weights w.  quartic_form
        contracts with it in one real GEMM.
        """
        N = int(N)
        if N > self.n_max:
            raise ResolutionError(f"N={N} exceeds tensor cutoff {self.n_max}")
        if N not in self._matrices:
            keys = _canonical_tuples(self.n_max)
            inside = keys[:, 3] <= N
            a, b, c, d = np.ascontiguousarray(keys[inside].T) - 1
            vals = self.values[inside]
            _, _, pair, w = _pairs(N)
            K = np.zeros((w.size, w.size))
            # a sorted tuple splits into two sorted pairs in three ways, and
            # either pair can be the row: the six cells its 24 permutations
            # reach
            for P, Q in ((pair[a, b], pair[c, d]), (pair[a, c], pair[b, d]),
                         (pair[a, d], pair[b, c])):
                K[P, Q] = w[P] * vals
                K[Q, P] = w[Q] * vals
            self._matrices[N] = K
        return self._matrices[N]


def build_tensor(n_max: int) -> CorrelationTensor:
    """Populate all canonical tuples with entries <= n_max.

    The closed-form sine-integral path fills the tensor (the dual-path
    cross-check against correlation_quadrature lives in the test suite).
    """
    n_max = _check_index(n_max, "n_max")
    values = _correlation_batch(_canonical_tuples(n_max))
    return CorrelationTensor(n_max=n_max, values=values)


class CubicBuffers:
    """cubic_term's work arrays for one (samples, N) batch shape.

    A caller that evaluates the cubic term of many same-shaped batches
    passes one of these, so that no call allocates: fresh arrays per call
    came from newly mapped pages and made a buffer-less RK4 slower than
    the tensor contraction it replaced.
    """

    def __init__(self, samples: int, N: int):
        self.parts = np.empty((2 * samples, N))
        self.V, self.V2 = (np.empty((2 * samples, 3 * N)) for _ in range(2))
        self.WW = np.empty((2 * samples, N))
        self.W = np.empty((samples, N), dtype=complex)


def cubic_term(A: np.ndarray, buffers: CubicBuffers | None = None) -> np.ndarray:
    """w_n = sum c(n,n1,n2,n3) a_n1 conj(a_n2) a_n3 for a (samples, N) batch.

    Exact up to rounding, on the 3N-sample grid of cubic_grid(N): the real
    parts of A stacked over its imaginary parts give V = [Re; Im] (v at
    r_j) in one real GEMM with S, both halves are scaled by |v|^2 = Re^2 +
    Im^2, and one real GEMM with Q gives [Re w; Im w]: 12 N^2
    multiply-adds per row and no tensor.  A lone row is two rows of each
    GEMM, so it never takes numpy's one-row gemv path, whose bits differ
    from gemm's.

    Every step writes into ``buffers`` (fresh ones when None), and the
    result is buffers.W, which the next call with them overwrites.
    """
    S, N = A.shape
    grid, Q = cubic_grid(N)
    b = CubicBuffers(S, N) if buffers is None else buffers
    V, V2 = b.V, b.V2
    np.copyto(b.parts[:S], A.real)
    np.copyto(b.parts[S:], A.imag)
    np.matmul(b.parts, grid, out=V)
    np.square(V, out=V2)
    v2 = np.add(V2[:S], V2[S:], out=V2[:S])
    V[:S] *= v2
    V[S:] *= v2
    np.matmul(V, Q, out=b.WW)
    b.W.real = b.WW[:S]
    b.W.imag = b.WW[S:]
    return b.W


def quartic_form(
    coeffs: np.ndarray, tensor: CorrelationTensor
) -> float | np.ndarray:
    """int_B |u|^4 dx = sum c(n,n1,n2,n3) conj(a_n) a_n1 conj(a_n2) a_n3,
    by exact tensor contraction.

    c is symmetric, so only R_pq = Re(a_p conj(a_q)) survives on either
    pair of indices, and the sum is the quadratic form sum_{P,Q} R_P
    K[P, Q] w_Q R_Q in the pair-packed K = contraction_matrix(N) (pairs
    and weights of _pairs): one GEMM, independent of the grid kernels it
    is an oracle for.  A float for one coefficient vector, one value per
    row of a matrix, clipped at 0 against rounding.
    """
    a = np.asarray(coeffs, dtype=complex)
    A = np.atleast_2d(a)
    N = A.shape[1]
    iu, ju, _, w = _pairs(N)
    x, y = A.real, A.imag
    R = x[:, iu] * x[:, ju] + y[:, iu] * y[:, ju]
    q = np.einsum("sp,sp->s", R @ tensor.contraction_matrix(N), w * R)
    out = np.maximum(q, 0.0)
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
