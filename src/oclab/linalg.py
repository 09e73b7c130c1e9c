"""Exact-rational linear algebra kernels.

Vectors hold :class:`fractions.Fraction` coordinates and nothing else:
the norm belongs to the space, so every norm is asked for by its tag (L1,
L2, Linf).  Vectors are built from coordinates and have no arithmetic: a
difference is read in integers off two vectors' scalings
(:func:`_int_difference`).  Ranks, determinants, nullspaces and L1/Linf
norms are computed without rounding, and every rank elimination emits a
pivot log that an independent replayer can verify.  There is deliberately no
float arithmetic here: a tolerance-dependent rank is not a certificate,
and a quantity that is irrational in general, such as an L2 norm,
raises :class:`~oclab.errors.ModeError`; use the squared form.

Every rank question is decided in integers by one fraction-free step,
:func:`_extend`.  It carries the integer complement of a list of integer
vectors (the integer vectors orthogonal to all of them) and extends it
by one more vector with a Bareiss step, so every entry stays a minor and
every division is exact, which it checks.  :func:`rank_exact` and
:func:`det_exact` feed it the columns of the row-scaled matrix, one at a
time: its pivots are the Bareiss pivots of the pivot log, which plain
rational elimination can replay.  A vector scales itself to integers
once (:attr:`Vector._ints`), so every kernel that reads it, and every
matrix that holds it as a row, shares that scaling.  A Vandermonde
determinant is one integer product of node differences
(:func:`_vandermonde_int`), which the klee runner also takes per subset
over nodes scaled once.

One walk over subsets of a list of rows (:func:`_prefix_walk`) folds a
step over each subset's rows, keeping the states of the longest prefix
it shares with the subset before it, so in combinations order each
prefix is stepped once.  It has three readers.  The fd-dense
construction, outside its packed forms' dimensions, steps with
:func:`_extend` to the two vectors spanning each (d-2)-fold prefix's
complement (:func:`_complement_vectors`), the plane its quotient
projects onto.  :func:`oclab.certify.density_certificates`
steps with :func:`_diagonal_step`: while row t pivots on coordinate t,
the pivots are the leading minors, which are the pivot log
:func:`rank_exact` gives that subset.  The reference sweep
:func:`oclab.certify.all_subsets_full_rank` steps every d-subset with
:func:`_extend`, and a subset is singular when its last state is
``None``.

Inside its packed forms' dimensions (4 <= d <= 8) the fd-dense
construction decides every (d-1)-subset of its picks against a
candidate at once.  Each exterior form keeps one integer per component,
packing that component's value for every subset of the picks into
byte-aligned signed slots (Kronecker substitution), so an interior
product with an integer vector (:func:`_interior`, over the terms of
:func:`_interior_terms`) is a few big-integer products, and one SWAR
test (:func:`_has_zero_slot`) tells whether any slot is zero.  Slots
that grow too narrow are re-packed wider (:func:`_repack`).

:func:`null_vector`, which the annihilators of the incomplete and
cover-escape runs and of dependent subsets come from, finds the pivot
columns and rows mod the prime 2^61 - 1, one column at a time up to the
last pivot, and solves only the square pivot block exactly
(:func:`_block_solve`).  It scales the block's columns, not its rows, to
integers, which keeps entries and determinant small when denominators
grow along the columns (as in the incomplete model), and solves it with
one forward Bareiss pass and exact back-substitution
(:func:`_bareiss_solve`).  It then checks every row exactly: a pivot row
that fails is a solver fault and raises, and another row that fails
means the prime hid part of the rank, so the same block solve runs again
on the exact pivots, found on the column-scaled integers
(:func:`_exact_pivots`).  :func:`nullspace_exact` solves on those exact
pivots too, once per free column, 1 there and 0 at the other free
columns.  A complement state's free coordinates are the reduced row
echelon form's, so the same null vector can be read off a prefix's
carried state (:func:`_state_null_vector`): each Riesz step's dual
witness comes from there, the separated builder carrying its members'
state from step to step, so no step eliminates the prefix again.  Exact
sums (:func:`pairing`, the L1 norm, :func:`norm_squared`) add a vector's
cached integer numerators and build one Fraction at the end, the same
canonical Fraction as a per-term sum.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
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
    "null_vector",
    "vandermonde_det",
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
    converted silently.  The integer form every exact kernel reads,
    :attr:`_ints`, is computed once per vector and cached; it is not a
    field, so ``==``, ``hash`` and the report bytes see only ``coords``.
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

    @cached_property
    def _ints(self) -> tuple:
        """The numerators over the lcm of the denominators, and that lcm."""
        return _int_numerators(self.coords)

    def support(self) -> tuple:
        return tuple(i for i, c in enumerate(self.coords) if c != 0)

    def _compatible(self, other: "Vector"):
        if self.dim != other.dim:
            raise DomainError(f"dimension mismatch: {self.dim} vs {other.dim}")


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
    """A rectangular stack of equal-dimension row vectors, each of which
    caches its own integer form (:attr:`Vector._ints`)."""

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


def _int_difference(u: Vector, v: Vector) -> tuple:
    """u - v as integers over du * dv, and that denominator, read from the
    two cached integer forms (:attr:`Vector._ints`)."""
    u._compatible(v)
    us, du = u._ints
    vs, dv = v._ints
    return [a * dv - b * du for a, b in zip(us, vs)], du * dv


def pairing(f: Vector, v: Vector) -> Fraction:
    """Exact inner product <f, v> of a functional with a vector."""
    f._compatible(v)
    fs, df = f._ints
    vs, dv = v._ints
    return Fraction(sum(map(operator.mul, fs, vs)), df * dv)


def norm(v: Vector, tag: NormTag) -> Fraction:
    """p-norm of ``v`` under ``tag``.

    The L2 norm is irrational in general, so requesting it raises; use
    :func:`norm_squared` for the flagged squared variant.
    """
    tag = NormTag(tag)
    if tag is NormTag.L1:
        xs, den = v._ints
        return Fraction(sum(map(abs, xs)), den)
    if tag is NormTag.LINF:
        return max(abs(c) for c in v.coords)
    raise ModeError("exact L2 norm is irrational in general; use norm_squared")


def norm_squared(v: Vector) -> Fraction:
    """Squared L2 norm, exactly (the flagged L2 variant)."""
    xs, den = v._ints
    return Fraction(sum(x * x for x in xs), den * den)


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


def _int_numerators(coords: Sequence[Fraction]) -> tuple:
    """The numerators of ``coords`` over the lcm of their denominators (1
    for no values), and that lcm, so that sums run in integers."""
    den = math.lcm(*(c.denominator for c in coords))
    return tuple(c.numerator * (den // c.denominator) for c in coords), den


def scaled_int_coords(v: Vector) -> tuple:
    """Integer coordinates of an exact vector after clearing denominators.

    The scaling is per-vector (:attr:`Vector._ints`), so ranks and
    zero-patterns are preserved.
    """
    return v._ints[0]


def rank_exact(M: Matrix) -> RankResult:
    """Rank of an exact matrix by fraction-free elimination, with pivot log.

    Each row is read in its cached integer form (:attr:`Vector._ints`),
    and the elimination itself is :func:`_rank_int`.
    """
    ints, scales = zip(*(r._ints for r in M.rows))
    return _rank_int(ints, scales)


def _rank_int(rows: Sequence, scales: tuple) -> RankResult:
    """Rank of the integer ``rows`` (rational rows times their ``scales``),
    with pivot log.

    The columns extend, one at a time, the complement of the columns
    before them (:func:`_extend`, whose coordinates are the rows).  A
    column's pivot is its lowest unprocessed row with a nonzero reduced
    entry, the new complement's pivot is the Bareiss minor that gets
    logged, and a dependent column is skipped.  A square matrix also
    gets the determinant of the rational rows: the last pivot is the
    minor of the rows in pivot order.
    """
    m, n = len(rows), len(rows[0])
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


#: The fixed prime of the pivot search in :func:`null_vector`.
_PRIME = (1 << 61) - 1


def _pivots_mod_p(rows: list, ncols: int) -> tuple:
    """Pivot columns and pivot rows of integer rows, eliminated mod
    :data:`_PRIME`; also the rows left over.

    Columns are scanned in order and each pivot row is the lowest-index
    unused row with a nonzero reduced entry.  Only the scanned column is
    reduced, by replaying each earlier pivot step's row and factors, so
    no column past the last pivot is read.  Over GF(p) the rank can only
    be lower than over Q, never higher.
    """
    pivots, pivot_rows, steps = [], [], []
    rest = list(range(len(rows)))
    for col in range(ncols):
        if not rest:
            break
        red = [row[col] % _PRIME for row in rows]
        for i_p, factors in steps:
            y = red[i_p]
            if y:
                for i, f in factors:
                    red[i] = (red[i] - f * y) % _PRIME
        k = next((k for k, i in enumerate(rest) if red[i]), None)
        if k is None:
            continue
        i_p = rest.pop(k)
        inv = pow(red[i_p], -1, _PRIME)
        steps.append((i_p, [(i, red[i] * inv % _PRIME) for i in rest if red[i]]))
        pivots.append(col)
        pivot_rows.append(i_p)
    return pivots, pivot_rows, rest


def _bareiss_solve(block: list, b: list) -> tuple:
    """Solve the square integer system ``block`` z = ``b`` fraction-free.

    One forward Bareiss pass over the rows augmented by b: column k
    pivots on the lowest remaining row with a nonzero entry, and every
    update divides exactly by the pivot before it, so every entry stays a
    minor.  Back-substitution then gives (det, sol) with det * z = sol in
    integers, det being the last pivot (the block's determinant up to
    sign); each step divides exactly, since det * z_i is a Cramer minor.
    A singular block raises :class:`~oclab.errors.CertificationError`.
    """
    r = len(block)
    rows = [[*row, x] for row, x in zip(block, b)]
    prev = 1
    for k in range(r):
        p = next((i for i in range(k, r) if rows[i][k]), None)
        if p is None:
            raise CertificationError("the pivot block is singular over Q")
        rows[k], rows[p] = rows[p], rows[k]
        prow = rows[k]
        piv, tail = prow[k], prow[k + 1 :]
        for i in range(k + 1, r):
            row = rows[i]
            c = row[k]
            rows[i] = row[: k + 1] + [(piv * x - c * y) // prev for x, y in zip(row[k + 1 :], tail)]
        prev = piv
    det = prev
    sol = [0] * r
    for i in reversed(range(r)):
        row = rows[i]
        sol[i] = (det * row[r] - sum(map(operator.mul, row[i + 1 : r], sol[i + 1 :]))) // row[i]
    return det, sol


def _block_solve(M: Matrix, pivots: list, pivot_rows: list, weights: Sequence[Fraction]) -> Vector:
    """The null vector of the pivot rows of M whose free coordinates (the
    columns outside ``pivots``, ascending) are ``weights``, missing ones
    counting as 0.

    It solves A[R,P] x_P = -A[R,F] x_F with the block's columns scaled to
    integers: column j times c_j, the lcm of its denominators over the
    pivot rows R (:func:`_int_numerators`).  The right-hand side is put
    over one common denominator D, and one forward Bareiss pass and exact
    back-substitution (:func:`_bareiss_solve`) give det and sol, so x_j
    is sol_j * c_j / (det * D * s) for the lcm s of the weights'
    denominators.
    """
    n = M.ncols
    free = [j for j in range(n) if j not in pivots]
    picked = [M.rows[i] for i in pivot_rows]
    columns = [_int_numerators([r.coords[j] for r in picked]) for j in pivots]
    block = list(zip(*(ints for ints, _ in columns)))
    ws, scale = _int_numerators(weights)
    rhs = [Fraction(-sum(ints[j] * x for j, x in zip(free, ws)), s) for ints, s in (r._ints for r in picked)]
    b, den = _int_numerators(rhs)
    det, sol = _bareiss_solve(block, b)
    coords = [Fraction(0)] * n
    for j, x in zip(free, weights):
        coords[j] = x
    den *= det * scale
    for j, (_, c), x in zip(pivots, columns, sol):
        coords[j] = Fraction(x * c, den)
    return Vector(tuple(coords))


def _exact_pivots(M: Matrix) -> tuple:
    """The pivot columns (the reduced row echelon form's) and pivot rows
    of :func:`rank_exact`'s log, found on the column-scaled integers,
    which stay small: positive row and column scalings move no pivot."""
    columns = [_int_numerators(c)[0] for c in zip(*(r.coords for r in M.rows))]
    steps = _rank_int(list(zip(*columns)), (1,) * M.nrows).log.steps
    return [j for _, j, _ in steps], [i for i, _, _ in steps]


def nullspace_exact(M: Matrix) -> list:
    """Basis of {f : <row, f> = 0 for every row of M}, exactly.

    Empty iff the rank equals the column count.  The basis vectors act
    as functionals on the row space; measure them with :func:`dual_norm`.
    Basis vector i is 1 at the i-th free column and 0 at the other free
    ones, the reduced row echelon form's basis: one block solve
    (:func:`_block_solve`) per free column, on the exact pivots.
    """
    pivots, pivot_rows = _exact_pivots(M)
    free = range(M.ncols - len(pivots))
    return [_block_solve(M, pivots, pivot_rows, [Fraction(int(i == k)) for i in free]) for k in free]


def null_vector(M: Matrix, weights: Sequence) -> Optional[Vector]:
    """The null vector of M whose i-th free coordinate is ``weights[i]``.

    Free columns count in ascending order.  Entries of ``weights`` past
    the nullity are ignored and missing ones count as 0; ``None`` means
    the nullity is 0.  With the pivot columns of the reduced row echelon
    form this is ``sum(w * b for w, b in zip(weights, nullspace_exact(M)))``,
    found without the basis:

    1. eliminate the row-scaled integer rows mod the prime 2^61 - 1,
       one column at a time and reducing only that column, for the
       pivot columns P and pivot rows R; no column past the last pivot
       is read (milliseconds);
    2. solve the square system on the block A[R,P] with x_F = weights on
       the free columns F (:func:`_block_solve`, which scales the block's
       columns to integers).  A block that is nonsingular mod p is
       nonsingular over Q;
    3. check every row exactly with :func:`pairing`: a row in R that
       fails is a solver fault and raises
       :class:`~oclab.errors.CertificationError`;
    4. if a row outside R fails, the rank mod p was below the rank over
       Q: take the exact pivots from :func:`rank_exact`'s log and solve
       again.  So do zero weights, whose zero vector passes every check
       whatever the rank.  With exact pivots every row must hold, so one
       that fails raises.

    Scaling columns rather than rows keeps the block small: on the
    incomplete K=28 matrix its entries fall from 1,150 bits to 131 and
    its determinant from 10,219 bits to 1,264.

    When p divides a pivot minor without lowering the rank, the pivot
    columns mod p can differ from the exact ones.  The vector returned
    is then another null vector: still exact, and the same one for the
    same matrix and weights every time.  A weight vector of zeros gives
    the zero vector only when the nullity is positive.
    """
    n = M.ncols

    def solve(pivots, pivot_rows):
        w = [_coerce_exact(x) for x in weights[: n - len(pivots)]]
        v = _block_solve(M, pivots, pivot_rows, w)
        if any(pairing(M.rows[i], v) for i in pivot_rows):
            raise CertificationError("the pivot block's solution fails a pivot row")
        return v

    pivots, pivot_rows, rest = _pivots_mod_p([r._ints[0] for r in M.rows], n)
    if len(pivots) == n:
        return None
    v = solve(pivots, pivot_rows)
    if any(v.coords) and not any(pairing(M.rows[i], v) for i in rest):
        return v
    pivots, pivot_rows = _exact_pivots(M)
    if len(pivots) == n:
        return None
    v = solve(pivots, pivot_rows)
    if any(pairing(r, v) for r in M.rows):
        raise CertificationError("the exact pivot block's solution fails a row")
    return v


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


def _complement_vectors(state: tuple) -> tuple:
    """The integer vectors a complement state spans, one per remaining
    coordinate: pivot * e_i + sum_t m_i[t] * e_cols[t], as tuples.  At d-2
    prefix vectors the two span the plane their quotient projects onto."""
    pivot, cols, rest = state
    d = len(cols) + len(rest)
    out = []
    for i, m in rest:
        u = [0] * d
        u[i] = pivot
        for q, x in zip(cols, m):
            u[q] = x
        out.append(tuple(u))
    return tuple(out)


def _state_null_vector(state: tuple, weights: Sequence) -> Vector:
    """The null vector of a complement state's prefix whose i-th free
    coordinate is ``weights[i]``: :func:`null_vector`'s vector for the
    prefix's rows, read off the state without eliminating.

    ``rest`` lists the free coordinates of the prefix's reduced row
    echelon form in ascending order, since a new row pivots on its lowest
    remaining coordinate with a nonzero reduced entry, as reduction does,
    and each remaining vector is pivot times the reduced form's basis
    vector for its coordinate.  So coordinate rest[j] is ``weights[j]``
    and coordinate cols[t] is sum_j weights[j] * m_j[t] / pivot.  Entries
    of ``weights`` past the nullity are ignored and missing ones count
    as 0.
    """
    pivot, cols, rest = state
    coords = [0] * (len(cols) + len(rest))
    for (i, _), w in zip(rest, weights):
        coords[i] = w
    # column t of the m_j, one per pivot coordinate
    for q, column in zip(cols, zip(*(m for _, m in rest))):
        coords[q] = Fraction(sum(map(operator.mul, column, weights)), pivot)
    return Vector(tuple(coords))


def _diagonal_step(state: tuple, v):
    """:func:`_extend`, or ``None`` unless ``v`` pivots on the next
    coordinate, so that a state reached from :func:`_complement` by this
    step has pivoted row t on coordinate t and its pivots are leading
    minors."""
    grown = _extend(state, v)
    return grown if grown is not None and grown[1][-1] == len(state[1]) else None


def _prefix_walk(rows: Sequence, subsets: Iterable, state, step):
    """Yield each index tuple of ``subsets`` with its list of prefix states.

    ``states[t]`` is ``state`` folded by ``step`` over the subset's first
    t rows, and ``None`` from the first step that returns ``None`` on.
    The states of the longest prefix a subset shares with the one before
    it are kept, so in ``itertools.combinations`` order each prefix is
    stepped once.  The list is the walk's own: it changes at the next
    subset.
    """
    prev, states = (), [state]
    for subset in subsets:
        k = 0
        for a, b in zip(prev, subset):
            if a != b:
                break
            k += 1
        del states[k + 1 :]
        for i in subset[k:]:
            last = states[-1]
            states.append(None if last is None else step(last, rows[i]))
        prev = subset
        yield subset, states


# ---------------------------------------------------------------------------
# packed exterior forms
# ---------------------------------------------------------------------------


def _interior_terms(d: int) -> list:
    """The interior product's terms in R^d, by the degree p of the form.

    A p-form w has one component w_J per p-subset J of the coordinates,
    in ``itertools.combinations`` order, and takes p vectors to the sum
    of w_J times their minor on the columns J.  ``terms[p]`` lists, for
    each (p-1)-subset I in that order, the (i, odd, k) with i outside I
    and k the index of I + {i}: the interior product of v with w has
    component I equal to the sum of (-1)^odd * v[i] * w[k], odd being the
    parity of the members of I below i (:func:`_interior`).
    """
    terms = [[]]  # a 0-form has no interior product
    for p in range(1, d + 1):
        index = {J: k for k, J in enumerate(itertools.combinations(range(d), p))}
        level = []
        for I in itertools.combinations(range(d), p - 1):
            row, below = [], 0
            for i in range(d):
                if below < len(I) and I[below] == i:
                    below += 1
                else:
                    row.append((i, below % 2, index[I[:below] + (i,) + I[below:]]))
            level.append(row)
        terms.append(level)
    return terms


def _interior(form: Sequence[int], v: Sequence[int], terms: list) -> list:
    """The interior product of the integer vector ``v`` with ``form``, whose
    components may be packed: each is linear in ``form``'s, so a component
    packing one value per slot gives the packed components, slot by slot."""
    signed = (v, [-x for x in v])
    return [sum(signed[odd][i] * form[k] for i, odd, k in row) for row in terms]


def _slot_masks(width: int, count: int) -> tuple:
    """1 and 2^(width-1) in each of ``count`` slots of ``width`` bits, as
    two integers.

    A packed integer holds the signed values v_s as sum_s v_s * 2^(width*s);
    while every |v_s| < 2^(width-1), adding the second mask makes each
    slot v_s + 2^(width-1), in [1, 2^width), with no carry between slots.
    """
    ones = ((1 << (width * count)) - 1) // ((1 << width) - 1)
    return ones, ones << (width - 1)


def _has_zero_slot(packed: int, masks: tuple) -> bool:
    """Whether a slot of ``packed`` holds 0, every slot holding less than
    2^(width-1) in absolute value, with ``masks`` from :func:`_slot_masks`.

    z = (packed + high) ^ high holds each v_s in width-bit two's complement,
    and (z - ones) & ~z & high is nonzero exactly when some slot of z is 0:
    below the lowest zero slot no borrow runs, and a nonzero slot x has
    the top bit of x - 1 only if x has it too (Warren, *Hacker's Delight*,
    ch. 6).
    """
    ones, high = masks
    z = (packed + high) ^ high
    return bool((z - ones) & ~z & high)


def _repack(packed: int, width: int, wider: int, count: int) -> int:
    """``packed``'s ``count`` slots of ``width`` bits, re-packed at ``wider``
    bits; both widths are whole bytes.

    Each slot, offset by 2^(width-1) as in :func:`_slot_masks`, is one run
    of bytes; the runs are padded with zero bytes to the wider slot, and
    the offset is taken back at the wider spacing.
    """
    step = width // 8
    raw = (packed + _slot_masks(width, count)[1]).to_bytes(count * step, "little")
    pad = bytes((wider - width) // 8)
    spread = int.from_bytes(b"".join(raw[i : i + step] + pad for i in range(0, len(raw), step)), "little")
    return spread - (_slot_masks(wider, count)[0] << (width - 1))


def vandermonde_det(lambdas: Sequence[Fraction]) -> Fraction:
    """Product formula det = prod_{i<j} (l_j - l_i) for the matrix whose
    i-th row is (1, l_i, l_i^2, ..., l_i^{k-1}).

    The nodes are written as integers over the lcm D of their
    denominators, so the product of the k(k-1)/2 integer differences over
    D^(k(k-1)/2) is the determinant, built as one Fraction at the end.
    A singleton gives 1 (empty product); a repeated node gives 0; a float
    node raises :class:`~oclab.errors.ModeError`, as in a :class:`Vector`.
    """
    lams = [_coerce_exact(x) for x in lambdas]
    if not lams:
        raise DomainError("vandermonde_det needs at least one node")
    xs, den = _int_numerators(lams)
    return Fraction(_vandermonde_int(xs), den ** math.comb(len(xs), 2))


def _vandermonde_int(xs: Sequence[int]) -> int:
    """The product of the differences x_j - x_i over i < j of integer nodes."""
    return math.prod(xj - xi for j, xj in enumerate(xs) for xi in xs[:j])
