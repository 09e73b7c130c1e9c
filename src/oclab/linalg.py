"""Exact-rational linear algebra kernels.

Vectors hold :class:`fractions.Fraction` coordinates and nothing else:
the norm belongs to the space, so every norm is asked for by its tag (L1,
L2, Linf).  Ranks, determinants, nullspaces, projection distances and
L1/Linf norms are computed without rounding, and every rank elimination
emits a pivot log that an independent replayer can verify.  There is
deliberately no float arithmetic here: a tolerance-dependent rank is not
a certificate, and a quantity that is irrational in general, such as an
L2 norm, raises :class:`~oclab.errors.ModeError`; use the squared form.

Every rank question is decided in integers by one fraction-free step,
:func:`_extend`.  It carries the integer complement of a list of integer
vectors (the integer vectors orthogonal to all of them) and extends it
by one more vector with a Bareiss step, so every entry stays a minor and
every division is exact, which it checks.  :func:`rank_exact` and
:func:`det_exact` feed it the columns of the row-scaled matrix, one at a
time: its pivots are the Bareiss pivots of the pivot log, which plain
rational elimination can replay.  The d-subset rank tests of the
fd-dense construction and of its subset sweep feed it the rows along a
depth-first walk over the combinations (:func:`_singular_subsets`), which
shares each prefix's complement among the subsets that extend it and
reaches at every (d-1)-fold prefix its cofactor normal: the Hodge dual of
the rows' wedge (exterior product).  Each completing row then costs one
dot product with that normal.

Only nullspaces and projection distances use rational Gauss-Jordan
elimination (:func:`_gauss_jordan`).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import CertificationError, DomainError, ModeError

__all__ = [
    "NormTag",
    "DUAL_TAG",
    "Vector",
    "Matrix",
    "exact_vector",
    "unit_vector",
    "zero_vector",
    "pairing",
    "norm",
    "norm_squared",
    "PivotLog",
    "RankResult",
    "rank_exact",
    "det_exact",
    "nullspace_exact",
    "vandermonde_det",
    "projection_distance_sq",
    "scaled_int_coords",
]


class NormTag(str, Enum):
    L1 = "L1"
    L2 = "L2"
    LINF = "Linf"


#: Dual norm of each tag, used when a vector acts as a functional.
DUAL_TAG = {NormTag.L1: NormTag.LINF, NormTag.L2: NormTag.L2, NormTag.LINF: NormTag.L1}


def _coerce_exact(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) or isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        raise ModeError("float coordinate in an exact vector; convert explicitly")
    raise ModeError(f"cannot use {type(x).__name__} as an exact coordinate")


@dataclass(frozen=True)
class Vector:
    """A finite exact coordinate vector; equal coordinates, equal vectors.

    Coordinates are coerced to :class:`fractions.Fraction`; a float
    coordinate raises :class:`~oclab.errors.ModeError` rather than being
    converted silently.
    """

    coords: tuple

    def __post_init__(self):
        coords = tuple(_coerce_exact(c) for c in self.coords)
        if not coords:
            raise DomainError("vector dimension must be positive")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def restrict(self, a: int, b: int) -> "Vector":
        """Zero every coordinate outside the index window [a, b)."""
        zero = Fraction(0)
        return Vector(tuple(c if a <= i < b else zero for i, c in enumerate(self.coords)))

    def support(self) -> tuple:
        return tuple(i for i, c in enumerate(self.coords) if c != 0)

    def _compatible(self, other: "Vector"):
        if self.dim != other.dim:
            raise DomainError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "Vector") -> "Vector":
        self._compatible(other)
        return Vector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Vector") -> "Vector":
        self._compatible(other)
        return Vector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Vector":
        return self.scale(-1)

    def scale(self, c) -> "Vector":
        c = _coerce_exact(c)
        return Vector(tuple(c * x for x in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def exact_vector(coords: Iterable) -> Vector:
    return Vector(tuple(coords))


def unit_vector(i: int, dim: int) -> Vector:
    if not 0 <= i < dim:
        raise DomainError(f"unit index {i} outside dimension {dim}")
    one, zero = Fraction(1), Fraction(0)
    return Vector(tuple(one if j == i else zero for j in range(dim)))


def zero_vector(dim: int) -> Vector:
    return Vector((Fraction(0),) * dim)


@dataclass(frozen=True)
class Matrix:
    """A rectangular stack of equal-dimension row vectors."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(self.rows)
        if not rows:
            raise DomainError("matrix needs at least one row")
        dim = rows[0].dim
        if any(r.dim != dim for r in rows[1:]):
            raise DomainError("ragged rows in matrix")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Vector]) -> "Matrix":
        return cls(tuple(rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self.rows[0].dim


def pairing(f: Vector, v: Vector) -> Fraction:
    """Exact inner product <f, v> of a functional with a vector."""
    f._compatible(v)
    return sum((a * b for a, b in zip(f.coords, v.coords)), Fraction(0))


def norm(v: Vector, tag: NormTag) -> Fraction:
    """p-norm of ``v`` under ``tag``.

    The L2 norm is irrational in general, so requesting it raises; use
    :func:`norm_squared` for the flagged squared variant.
    """
    tag = NormTag(tag)
    if tag is NormTag.L1:
        return sum((abs(c) for c in v.coords), Fraction(0))
    if tag is NormTag.LINF:
        return max(abs(c) for c in v.coords)
    raise ModeError("exact L2 norm is irrational in general; use norm_squared")


def norm_squared(v: Vector) -> Fraction:
    """Squared L2 norm, exactly (the flagged L2 variant)."""
    return sum((c * c for c in v.coords), Fraction(0))


def dual_norm(f: Vector, tag: NormTag) -> Fraction:
    """Norm of ``f`` acting as a functional on a ``tag``-normed space."""
    return norm(f, DUAL_TAG[NormTag(tag)])


# ---------------------------------------------------------------------------
# fraction-free elimination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PivotLog:
    """Replayable elimination trace.

    ``row_scales[i]`` is the positive integer that clears row i's
    denominators; ``steps`` records, in order, (source row, column,
    pivot value) where the pivot value is the Bareiss pivot of the
    scaled integer matrix.  Pivot rows are always chosen as the lowest
    *original* row index with a nonzero entry in the scan column.
    """

    shape: tuple
    row_scales: tuple
    steps: tuple


@dataclass(frozen=True)
class RankResult:
    """Rank and pivot log; ``det`` is the determinant when the matrix is
    square (zero when singular) and None otherwise."""

    rank: int
    log: PivotLog
    det: Optional[Fraction] = None


def _lcm_denominator(values: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators (1 for no values)."""
    return math.lcm(*(c.denominator for c in values))


def scaled_int_coords(v: Vector) -> tuple:
    """Integer coordinates of an exact vector after clearing denominators.

    The scaling is per-vector, so ranks and zero-patterns are preserved.
    """
    den = _lcm_denominator(v.coords)
    return tuple(c.numerator * (den // c.denominator) for c in v.coords)


def _scaled_rows(M: Matrix):
    scales = tuple(_lcm_denominator(r.coords) for r in M.rows)
    rows = [
        [c.numerator * (den // c.denominator) for c in r.coords]
        for r, den in zip(M.rows, scales)
    ]
    return rows, scales


def rank_exact(M: Matrix) -> RankResult:
    """Rank of an exact matrix by fraction-free elimination, with pivot log.

    The columns of the row-scaled integer matrix extend, one at a time,
    the complement of the columns before them (:func:`_extend`, whose
    coordinates are the rows).  A column's pivot is its lowest
    unprocessed row with a nonzero reduced entry, the new complement's
    pivot is the Bareiss minor that gets logged, and a dependent column
    is skipped.  A square matrix also gets its determinant: the last
    pivot is the minor of the rows in pivot order.
    """
    m, n = M.nrows, M.ncols
    rows, scales = _scaled_rows(M)
    state = _complement(m)
    steps = []
    for col, column in enumerate(zip(*rows)):
        if len(steps) == m:
            break
        grown = _extend(state, column)
        if grown is not None:
            state = grown
            steps.append((state[1][-1], col, state[0]))
    det = None
    if n == m:
        det = Fraction(0)
        if len(steps) == m:
            order = state[1]
            odd = sum(a > b for a, b in itertools.combinations(order, 2)) % 2
            det = Fraction(-state[0] if odd else state[0], math.prod(scales))
    return RankResult(len(steps), PivotLog((m, n), scales, tuple(steps)), det)


def det_exact(M: Matrix) -> Fraction:
    """Exact determinant of a square exact matrix via :func:`rank_exact`."""
    if M.ncols != M.nrows:
        raise DomainError("determinant of a non-square matrix")
    return rank_exact(M).det


def _gauss_jordan(rows: list, ncols: int) -> list:
    """Reduce rational rows in place to reduced row echelon form on their
    first ``ncols`` columns; returns the pivot columns in order.

    The pivot of each column is the first row at or below the current
    one with a nonzero entry there, so the result is fixed by row order.
    """
    m = len(rows)
    piv_cols = []
    r = 0
    for col in range(ncols):
        if r == m:
            break
        piv_i = -1
        for i in range(r, m):
            if rows[i][col] != 0:
                piv_i = i
                break
        if piv_i < 0:
            continue
        rows[r], rows[piv_i] = rows[piv_i], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_cols.append(col)
        r += 1
    return piv_cols


def nullspace_exact(M: Matrix) -> list:
    """Basis of {f : <row, f> = 0 for every row of M}, exactly.

    Empty iff the rank equals the column count.  The basis vectors act
    as functionals on the row space; measure them with :func:`dual_norm`.
    """
    n = M.ncols
    rows = [list(r.coords) for r in M.rows]
    piv_cols = _gauss_jordan(rows, n)
    basis = []
    piv_set = set(piv_cols)
    for free in range(n):
        if free in piv_set:
            continue
        coords = [Fraction(0)] * n
        coords[free] = Fraction(1)
        for i, pc in enumerate(piv_cols):
            coords[pc] = -rows[i][free]
        basis.append(Vector(tuple(coords)))
    return basis


# ---------------------------------------------------------------------------
# the fraction-free complement step and the subset walk built on it
# ---------------------------------------------------------------------------


def _complement(d: int) -> tuple:
    """The complement state of the empty prefix in R^d: the identity."""
    return 1, [], [(i, []) for i in range(d)]


def _extend(state: tuple, v):
    """Extend a prefix's integer complement by the integer vector ``v``.

    ``state`` is (pivot, cols, rest): ``cols`` lists the prefix's pivot
    coordinates and ``rest`` pairs each other coordinate i with m_i, so
    that the vectors pivot * e_i + sum_t m_i[t] * e_cols[t] span the
    integer vectors orthogonal to every prefix vector.  ``v``'s pivot is
    its lowest remaining coordinate with a nonzero reduced entry (its
    pairing with that coordinate's vector).  One step is a Bareiss step
    on the prefix transposed beside the identity, so every entry stays a
    minor of the prefix and every division is exact; a nonzero remainder
    means the state is broken and raises
    :class:`~oclab.errors.CertificationError`.  At d-1 prefix vectors the
    one vector left is their cofactor normal, up to sign.  It costs
    O(d * len(cols)).  Returns the state of the prefix with ``v``, or
    ``None`` when ``v`` lies in the span of the prefix.
    """
    pivot, cols, rest = state
    vc = [v[q] for q in cols]
    dots = [pivot * v[i] + sum(map(operator.mul, m, vc)) for i, m in rest]
    for p, piv in enumerate(dots):
        if piv:
            break
    else:
        return None
    i_p, m_p = rest[p]
    grown = []
    for k, ((i, m), c) in enumerate(zip(rest, dots)):
        if k == p:
            continue
        row = []
        for x, y in zip(m, m_p):
            q, r = divmod(piv * x - c * y, pivot)
            if r:
                raise CertificationError("fraction-free elimination lost exactness")
            row.append(q)
        row.append(-c)
        grown.append((i, row))
    return piv, cols + [i_p], grown


def _singular_subsets(rows: Sequence, d: int, head=None):
    """Yield the singular d-subsets of integer rows in R^d, depth first.

    Subsets come as index tuples in ``itertools.combinations`` order.  The
    walk carries each prefix's complement (:func:`_extend`), so a
    prefix's work is shared by every subset that extends it; at d-1 rows
    the complement is the prefix's cofactor normal, and each completing
    row costs one dot product with it.  A dependent prefix makes every
    extension singular, and those are yielded without more work.  Given a
    ``head`` row, the walk yields the (d-1)-subsets T of ``rows`` for
    which head and T are singular together.  Nothing is stored beyond the
    current chain of prefix complements.
    """
    n = len(rows)
    size = d if head is None else d - 1
    state = _complement(d) if head is None else _extend(_complement(d), head)

    def walk(state, lo, prefix):
        k = len(prefix)
        if state is None:  # a dependent prefix
            for rest in itertools.combinations(range(lo, n), size - k):
                yield prefix + rest
        elif k == size - 1:
            pivot, cols, ((f, m),) = state
            normal = [0] * d
            normal[f] = pivot
            for q, x in zip(cols, m):
                normal[q] = x
            for j in range(lo, n):
                if not sum(map(operator.mul, normal, rows[j])):
                    yield prefix + (j,)
        elif k < size:
            for i in range(lo, n - size + k + 1):
                yield from walk(_extend(state, rows[i]), i + 1, prefix + (i,))

    yield from walk(state, 0, ())


def vandermonde_det(lambdas: Sequence[Fraction]) -> Fraction:
    """Product formula det = prod_{i<j} (l_j - l_i) for the matrix whose
    i-th row is (1, l_i, l_i^2, ..., l_i^{k-1}).

    A singleton gives 1 (empty product); a repeated node gives 0.
    """
    lams = [Fraction(x) for x in lambdas]
    if not lams:
        raise DomainError("vandermonde_det needs at least one node")
    out = Fraction(1)
    for j in range(len(lams)):
        for i in range(j):
            out *= lams[j] - lams[i]
    return out


def projection_distance_sq(x: Vector, basis: Sequence[Vector]) -> Fraction:
    """Exact squared Euclidean distance from ``x`` to span(basis).

    Solves the normal equations over the rationals; a linearly dependent
    basis is fine because every solution yields the same projection.
    """
    k = len(basis)
    xx = sum((c * c for c in x.coords), Fraction(0))
    if k == 0:
        return xx
    G = [[pairing(basis[i], basis[j]) for j in range(k)] + [pairing(basis[i], x)] for i in range(k)]
    piv_cols = _gauss_jordan(G, k)
    coeffs = [Fraction(0)] * k
    for i, pc in enumerate(piv_cols):
        coeffs[pc] = G[i][k]
    proj = sum((coeffs[j] * pairing(basis[j], x) for j in range(k)), Fraction(0))
    return xx - proj
