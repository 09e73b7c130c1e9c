"""Constructions of overcomplete families in finite-truncation models.

Each builder here emits exact data plus enough structure for the certify
module to re-check every claimed property independently: geometric node
families, hyperplane-avoiding sequences in R^d, Riesz-step separated
families, the convergent sequences living in an incomplete-model ambient
space, and the sliding-hump extraction over a finite index range.

Index ranges [0, L) stand in for ordinal ranges; cut ordinals become
integer cut indices.  Everything order-theoretic in the source arguments
survives that truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    ConstructionError,
    DomainError,
    ExtractionError,
    ModeError,
    PreconditionError,
    ScheduleError,
)
from .linalg import (
    Matrix,
    NormTag,
    Vector,
    exact_vector,
    norm,
    norm_squared,
    nullspace_exact,
    pairing,
    rank_exact,
    scaled_int_coords,
    unit_vector,
    zero_vector,
    _complement,
    _extend,
    _singular_subsets,
)
from .rng import rng_for, split_seed

__all__ = [
    "GeometricFamily",
    "OpenBall",
    "IncompleteModel",
    "GeometricSchedule",
    "SlidingHumpData",
    "PropertyFlags",
    "BiorthSystem",
    "RieszStep",
    "SeparatedFamily",
    "klee_vectors",
    "fd_overcomplete",
    "riesz_step",
    "separated_overcomplete_fd",
    "incomplete_space_sequence",
    "convergence_gaps",
    "verify_schedule",
    "geometric_variant_sequence",
    "sliding_hump_extract",
]


# ---------------------------------------------------------------------------
# geometric node families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometricFamily:
    """Truncated geometric vectors (1, l, l^2, ..., l^{d-1}), one per node."""

    lambdas: tuple
    dim: int
    vectors: tuple


def klee_vectors(lambdas: Sequence, d: int) -> GeometricFamily:
    """Exact geometric vectors for distinct nodes strictly inside (0, 1/2).

    Any d of them form a nonsingular node matrix, which is what makes
    every equinumerous subfamily linearly dense at truncation scale.
    """
    if d < 1:
        raise DomainError("truncation dimension must be positive")
    lams = tuple(Fraction(x) for x in lambdas)
    if not lams:
        raise DomainError("need at least one node")
    half = Fraction(1, 2)
    for lam in lams:
        if not (0 < lam < half):
            raise DomainError(f"node {lam} outside the open interval (0, 1/2)")
    if len(set(lams)) != len(lams):
        raise DomainError("nodes must be pairwise distinct")
    vectors = tuple(
        exact_vector(lam ** i for i in range(d)) for lam in lams
    )
    return GeometricFamily(lams, d, vectors)


# ---------------------------------------------------------------------------
# hyperplane-avoiding sequences in R^d
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpenBall:
    """Open metric ball under the given norm tag; radius strictly positive."""

    center: Vector
    radius: Fraction
    norm_tag: NormTag

    def __post_init__(self):
        object.__setattr__(self, "radius", Fraction(self.radius))
        object.__setattr__(self, "norm_tag", NormTag(self.norm_tag))
        if self.radius <= 0:
            raise DomainError("ball radius must be positive")

    def contains(self, v: Vector) -> bool:
        """Exact membership test (strict inequality: the ball is open)."""
        if v.dim != self.center.dim:
            raise DomainError("dimension mismatch in ball membership")
        diff = tuple(a - b for a, b in zip(v.coords, self.center.coords))
        if self.norm_tag is NormTag.L1:
            return sum(map(abs, diff)) < self.radius
        if self.norm_tag is NormTag.LINF:
            return max(map(abs, diff)) < self.radius
        return sum(d * d for d in diff) < self.radius ** 2


def fd_overcomplete(
    d: int,
    n: int,
    targets: Optional[Sequence[OpenBall]] = None,
    seed: int = 0,
) -> list:
    """n exact vectors in R^d, every d of which have exact rank d.

    Runs the inductive construction: at each step, sample a rational
    candidate inside the current target ball (unit ball when no targets)
    and accept it once it lies outside span(T) for every subset T of the
    previous picks with |T| = min(#picks, d-1): the inductive
    hyperplane-avoidance step, strengthened below d-1 picks so that the
    early picks stay independent (and nonzero).  Both are certified in
    integer arithmetic by the complement kernel that
    :func:`~oclab.certify.all_subsets_full_rank` also uses.  Up to d-1
    picks, the one such T is all the picks: their complement is carried
    from step to step, and the candidate must extend it (one O(d^2) call
    of :func:`~oclab.linalg._extend`).  From d picks on, the depth-first
    walk :func:`~oclab.linalg._singular_subsets` runs with the candidate
    as head, ends each (d-1)-subset in one dot product with its cofactor
    normal, and stops at the first singular one.  The dyadic grid is
    refined on retry, so avoidance is certified, never assumed.
    """
    if d < 1:
        raise DomainError("ambient dimension must be positive")
    if n < d:
        raise DomainError(f"need at least d={d} vectors, got n={n}")
    if targets is not None:
        targets = list(targets)
        if len(targets) != n:
            raise DomainError(f"expected {n} target balls, got {len(targets)}")
        for ball in targets:
            if ball.center.dim != d:
                raise DomainError("target ball dimension mismatch")
    rng = rng_for(seed, "fd-overcomplete")
    chosen: list = []
    int_rows: list = []
    complement = _complement(d)  # of the picks, carried while they number below d
    for k in range(n):
        if targets is not None:
            ball = targets[k]
        else:
            ball = OpenBall(zero_vector(d), Fraction(1), NormTag.L2)
        # offsets of sup-norm at most radius/(2d) keep the candidate inside
        # the open ball under all three norms
        step = ball.radius / (2 * d)
        accepted = None
        for attempt in range(64):
            bits = 10 + 2 * attempt
            span = 1 << bits
            delta = tuple(
                Fraction(rng.randrange(-span + 1, span), span) * step for _ in range(d)
            )
            cand = Vector(tuple(c + dl for c, dl in zip(ball.center.coords, delta)))
            if not ball.contains(cand):
                continue
            cand_row = scaled_int_coords(cand)
            if len(int_rows) < d:
                grown = _extend(complement, cand_row)
                avoids = grown is not None
            else:
                avoids = next(_singular_subsets(int_rows, d, head=cand_row), None) is None
            if avoids:
                accepted = (cand, cand_row)
                break
        if accepted is None:
            raise ConstructionError(
                f"candidate budget exhausted at step {k} after 64 grid refinements"
            )
        if len(int_rows) < d:
            complement = grown  # as tested above, now with the accepted candidate
        chosen.append(accepted[0])
        int_rows.append(accepted[1])
    return chosen


# ---------------------------------------------------------------------------
# Riesz-step separated families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RieszStep:
    """A near-unit vector plus the dual witness certifying its distance
    from a proper subspace: the functional annihilates the subspace
    exactly, has dual norm at most one, and pairs with the vector to at
    least 1 - eps, so dist(x, span Y) >= pairing without any minimization.
    """

    x: Vector
    functional: Vector
    pairing: Fraction
    tag: NormTag

    def __iter__(self):
        """Unpack as the bare pair (x, dual witness)."""
        return iter((self.x, self.functional))


def _unit_isqrt_scale(s2: Fraction, floor: Fraction) -> Fraction:
    """Rational r with r^2 * s2 <= 1 and r^2 * s2 >= floor, from below."""
    m = 1 << 80
    while True:
        num = math.isqrt((s2.denominator * m * m) // s2.numerator)
        r = Fraction(num, m)
        if r * r * s2 > 1:  # guard; floor rounding should prevent this
            r = Fraction(num - 1, m)
        if r * r * s2 >= floor:
            return r
        m <<= 16
        if m > 1 << 512:
            raise ConstructionError("unit-scale refinement did not converge")


def riesz_step(
    Y_basis: Sequence[Vector],
    eps: Fraction,
    tag: NormTag,
    seed: int = 0,
    dim: Optional[int] = None,
) -> RieszStep:
    """One separation step against the span of ``Y_basis``.

    Returns a unit vector (exact for L1/Linf; within 1e-12 of unit for
    L2, kept exact with a certified squared norm) together with its dual
    witness.  The witness makes the distance claim checkable by three
    exact verifications instead of an optimization.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise DomainError("eps must lie in (0, 1)")
    tag = NormTag(tag)
    basis = list(Y_basis)
    if basis:
        ambient = basis[0].dim
        null_basis = nullspace_exact(Matrix.from_rows(basis))
        if not null_basis:
            raise PreconditionError("the given basis already spans the space")
    else:
        if dim is None:
            raise DomainError("an empty basis needs an explicit ambient dimension")
        ambient = dim
        null_basis = [unit_vector(i, ambient) for i in range(ambient)]
    rng = rng_for(seed, "riesz-step")
    weights = [rng.randrange(1, 17) for _ in null_basis]
    f0 = tuple(
        sum((w * b.coords[i] for w, b in zip(weights, null_basis)), Fraction(0))
        for i in range(ambient)
    )
    if tag is NormTag.L1:
        # functional measured in the dual (sup) norm; the best vector to
        # pair it with is a signed coordinate vector at its peak entry
        peak = max(abs(c) for c in f0)
        f = Vector(tuple(c / peak for c in f0))
        j = next(i for i, c in enumerate(f.coords) if abs(c) == 1)
        x = unit_vector(j, ambient)
        if f.coords[j] < 0:
            x = -x
        return RieszStep(x, f, Fraction(1), tag)
    if tag is NormTag.LINF:
        total = sum(abs(c) for c in f0)
        f = Vector(tuple(c / total for c in f0))
        signs = tuple(Fraction(1) if c >= 0 else Fraction(-1) for c in f.coords)
        x = Vector(signs)
        return RieszStep(x, f, Fraction(1), tag)
    s2 = sum((c * c for c in f0), Fraction(0))
    floor = max(Fraction(1) - eps, Fraction(1) - Fraction(1, 10 ** 13))
    r = _unit_isqrt_scale(s2, floor)
    x = Vector(tuple(r * c for c in f0))
    return RieszStep(x, x, r * r * s2, tag)


@dataclass(frozen=True)
class SeparatedFamily:
    vectors: tuple
    steps: tuple
    eps: Fraction
    tag: NormTag
    span_rank: int


def separated_overcomplete_fd(
    d: int, eps: Fraction, tag: NormTag, seed: int = 0
) -> SeparatedFamily:
    """d unit vectors with pairwise distances above 1 - eps, spanning R^d.

    Iterates the separation step against the span of the prefix; each
    step's dual witness kills the whole prefix, which is exactly what
    turns the pairwise distance claims into one-line verifications.
    """
    if d < 1:
        raise DomainError("ambient dimension must be positive")
    eps = Fraction(eps)
    tag = NormTag(tag)
    vectors: list = []
    steps: list = []
    for k in range(d):
        step = riesz_step(vectors, eps, tag, seed=split_seed(seed, f"step:{k}"), dim=d)
        vectors.append(step.x)
        steps.append(step)
    lower = Fraction(1) - eps
    for i in range(d):
        for j in range(i + 1, d):
            diff = vectors[j] - vectors[i]
            if tag is NormTag.L2:
                ok = norm_squared(diff) > lower * lower
            else:
                ok = norm(diff, tag) > lower
            if not ok:
                raise ConstructionError(f"separation failed for pair ({i}, {j})")
    span_rank = rank_exact(Matrix.from_rows(vectors)).rank
    if span_rank != d:
        raise ConstructionError("separated family does not span the space")
    return SeparatedFamily(tuple(vectors), tuple(steps), eps, tag, span_rank)


# ---------------------------------------------------------------------------
# incomplete-model ambient space and its convergent sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IncompleteModel:
    """Coordinate model with a geometric target outside every truncation.

    The basis is the unit coordinate family x_n = e_n; the target has
    coordinates y(n) = c * rho^n, whose tails sum in closed form, so the
    approximation bound ||y_k - y|| < 1/k! can be checked exactly.  The
    k-th approximant y_k truncates the target at the smallest cutoff
    meeting that bound.  Only L1 and Linf tags are supported: their tail
    norms stay rational.
    """

    c: Fraction
    rho: Fraction
    norm_tag: NormTag = NormTag.L1

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "rho", Fraction(self.rho))
        object.__setattr__(self, "norm_tag", NormTag(self.norm_tag))
        if self.c <= 0:
            raise DomainError("target scale c must be positive")
        if not 0 < self.rho < 1:
            raise DomainError("target ratio rho must lie in (0, 1)")
        if self.norm_tag is NormTag.L2:
            raise ModeError("the L2 tail norm is irrational; use L1 or Linf")

    def y_coord(self, n: int) -> Fraction:
        return self.c * self.rho ** n

    def tail(self, t: int) -> Fraction:
        """Exact norm of the target restricted to [t, infinity)."""
        if self.norm_tag is NormTag.L1:
            return self.c * self.rho ** t / (1 - self.rho)
        return self.c * self.rho ** t

    def cutoff(self, k: int) -> int:
        """Smallest t with tail(t) < 1/k! (the approximation schedule)."""
        if k < 0:
            raise DomainError("cutoff index must be nonnegative")
        bound = Fraction(1, math.factorial(k))
        t = 0
        while self.tail(t) >= bound:
            t += 1
        return t

    def approx_error(self, k: int) -> Fraction:
        """Exact distance ||y_k - y|| of the k-th approximant to the target."""
        return self.tail(self.cutoff(k))

    def ambient_dim(self, K: int) -> int:
        return max(self.cutoff(K), K + 1)

    def y_k_vector(self, k: int, dim: int) -> Vector:
        t = self.cutoff(k)
        if t > dim:
            raise DomainError(f"ambient dimension {dim} cannot hold cutoff {t}")
        coords = [self.y_coord(n) if n < t else Fraction(0) for n in range(dim)]
        return Vector(tuple(coords))

    def y_truncation(self, dim: int) -> Vector:
        return Vector(tuple(self.y_coord(n) for n in range(dim)))

    def exact_distance(self, v: Vector) -> Fraction:
        """Exact ||y - v||, the tail of y beyond v's dimension included."""
        w = v.dim
        head = (abs(self.y_coord(n) - v.coords[n]) for n in range(w))
        if self.norm_tag is NormTag.L1:
            return sum(head, Fraction(0)) + self.tail(w)
        return max(max(head), self.tail(w))


def incomplete_space_sequence(model: IncompleteModel, K: int) -> list:
    """The convergent-but-spanning sequence g_k = y_k + sum of (n+2)^{-k} e_n.

    All members live in one ambient dimension.  The convergence estimate
    ||y - g_k|| <= ||y_k - y|| + (k+1)/2^k is re-checked exactly for each
    k, with the target's tail handled symbolically.
    """
    if K < 0:
        raise DomainError("sequence horizon must be nonnegative")
    dim = model.ambient_dim(K)
    out = []
    for k in range(K + 1):
        coords = list(model.y_k_vector(k, dim).coords)
        for n in range(k + 1):
            coords[n] += Fraction(1, (n + 2) ** k)
        g = Vector(tuple(coords))
        lhs = model.exact_distance(g)
        rhs = model.approx_error(k) + Fraction(k + 1, 2 ** k)
        if lhs > rhs:
            raise ConstructionError(f"convergence bound violated at k={k}")
        out.append(g)
    return out


def convergence_gaps(model: IncompleteModel, sequence: Sequence[Vector]) -> list:
    """Exact (distance, bound) pairs for each member of the sequence."""
    pairs = []
    for k, g in enumerate(sequence):
        lhs = model.exact_distance(g)
        rhs = model.approx_error(k) + Fraction(k + 1, 2 ** k)
        pairs.append((lhs, rhs))
    return pairs


@dataclass(frozen=True)
class GeometricSchedule:
    """Strictly decreasing rates in (0, 1) with a rate-check horizon.

    The rate condition — lambda_n^{-j} * ||y_n - y|| decreasing to below
    the threshold for every j up to j_max — is what replaces "decays
    sufficiently fast" at finite scale; see :func:`verify_schedule`.
    """

    lambdas: tuple
    j_max: int
    threshold: Fraction = Fraction(1)

    def __post_init__(self):
        lams = tuple(Fraction(x) for x in self.lambdas)
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "threshold", Fraction(self.threshold))
        if not lams:
            raise DomainError("schedule needs at least one rate")
        for lam in lams:
            if not 0 < lam < 1:
                raise DomainError(f"rate {lam} outside (0, 1)")
        for a, b in zip(lams, lams[1:]):
            if b >= a:
                raise DomainError("rates must be strictly decreasing")
        if self.j_max < 0:
            raise DomainError("j_max must be nonnegative")
        if self.threshold <= 0:
            raise DomainError("threshold must be positive")


def verify_schedule(model: IncompleteModel, schedule: GeometricSchedule, K: int) -> tuple:
    """Check the rate condition on the prefix n = 0..K for each j <= j_max.

    The scaled errors lambda_n^{-j} * ||y_n - y|| may rise at first; the
    condition is that from some onset they decrease strictly and finish
    below the threshold.  Returns the onset per j; raises
    :class:`ScheduleError` naming the offending (n, j) otherwise.
    """
    if K < 0:
        raise DomainError("horizon must be nonnegative")
    if len(schedule.lambdas) < K + 1:
        raise DomainError(f"schedule provides {len(schedule.lambdas)} rates, need {K + 1}")
    errors = [model.approx_error(n) for n in range(K + 1)]
    onsets = []
    for j in range(schedule.j_max + 1):
        vals = [err / lam ** j for err, lam in zip(errors, schedule.lambdas)]
        onset = 0
        for n in range(1, K + 1):
            if vals[n - 1] <= vals[n]:
                onset = n
        if onset == K and K > 0:
            raise ScheduleError(
                f"scaled error still rising at the horizon (n={K}, j={j})"
            )
        if vals[K] >= schedule.threshold:
            raise ScheduleError(
                f"scaled error {vals[K]} at or above threshold (n={K}, j={j})"
            )
        onsets.append(onset)
    return tuple(onsets)


def geometric_variant_sequence(
    model: IncompleteModel, schedule: GeometricSchedule, K: int
) -> tuple:
    """Geometric-coefficient variant g_k = y_k + sum of lambda_k^{j+1} e_j.

    The schedule's rate condition is verified on the whole prefix before
    any vector is built.  Returns (onsets, vectors): the onsets of
    :func:`verify_schedule`, so a caller that reports them checks the
    schedule once.
    """
    onsets = verify_schedule(model, schedule, K)
    dim = model.ambient_dim(K)
    out = []
    for k in range(K + 1):
        lam = schedule.lambdas[k]
        coords = list(model.y_k_vector(k, dim).coords)
        for j in range(k + 1):
            coords[j] += lam ** (j + 1)
        out.append(Vector(tuple(coords)))
    return onsets, out


# ---------------------------------------------------------------------------
# sliding-hump extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyFlags:
    """Exact verification results for one extracted member."""

    left_mass_small: bool      # (i)   ||x restricted to [0, cut)|| <= N + eps
    past_supports: bool        # (ii)  earlier supports end below this cut
    tail_mass_large: bool      # (iii) ||x restricted to [cut, L)|| >= 1 - N - eps
    middle_mass_tiny: bool     # (iv)  ||x restricted to [alpha0, cut)|| <= eps

    def all_hold(self) -> bool:
        return (
            self.left_mass_small
            and self.past_supports
            and self.tail_mass_large
            and self.middle_mass_tiny
        )


@dataclass(frozen=True)
class SlidingHumpData:
    """Everything the extraction produced, plus the data to re-check it.

    ``n_table[a]`` is the exact minimum of ||x restricted to [0, a)||
    over the family, for a = 0..L.  ``alpha0`` is the onset of the
    longest constant run of that table (earliest onset on ties) — the
    finite stand-in for eventual constancy, recorded in ``alpha0_rule``
    since it is a modeling choice, not a theorem.
    """

    source: tuple
    epsilon: Fraction
    n_value: Fraction
    alpha0: int
    n_table: tuple
    members: tuple
    cuts: tuple
    extracted: tuple
    flags: tuple
    alpha0_rule: str = "longest-plateau-onset"


def _prefix_norms(v: Vector) -> list:
    acc = Fraction(0)
    out = [acc]
    for c in v.coords:
        acc += abs(c)
        out.append(acc)
    return out


def sliding_hump_extract(S: Sequence[Vector], eps: Fraction) -> SlidingHumpData:
    """Extract a disjoint-hump subfamily from L1 unit vectors over [0, L).

    Computes the exact left-mass floor table, locates its plateau, and
    then alternates cut advancement with member selection: each pick is
    an unused member whose mass left of the current cut stays within
    eps of the floor, and the next cut clears the pick's support.  The
    four extraction properties are re-verified exactly on the output.
    """
    members = list(S)
    if not members:
        raise PreconditionError("empty family")
    L = members[0].dim
    for v in members:
        if v.dim != L:
            raise PreconditionError("family members must share one index range")
        if norm(v, NormTag.L1) != 1:
            raise PreconditionError("family members must be exact L1 unit vectors")
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")

    prefixes = [_prefix_norms(v) for v in members]
    n_table = tuple(min(p[a] for p in prefixes) for a in range(L + 1))
    for a in range(L):
        if n_table[a] > n_table[a + 1]:
            raise ConstructionError("left-mass floor table failed to be nondecreasing")

    # longest constant run; earliest onset breaks ties
    best_start, best_len = 0, 0
    run_start = 0
    for a in range(1, L + 2):
        if a == L + 1 or n_table[a] != n_table[run_start]:
            if a - run_start > best_len:
                best_start, best_len = run_start, a - run_start
            run_start = a
    alpha0 = best_start
    n_value = n_table[alpha0]
    if n_value == 1:
        raise ExtractionError("family supported below alpha0")
    if 1 - n_value - 2 * eps < (1 - n_value) / 2:
        raise DomainError(
            f"eps={eps} too large for floor {n_value}: need 1-N-2*eps >= (1-N)/2"
        )

    cut = alpha0
    used = set()
    picked = []
    cuts = []
    while cut <= L:
        best = None
        for i, p in enumerate(prefixes):
            if i in used or p[cut] > n_value + eps:
                continue
            if best is None or (p[cut], i) < best:
                best = (p[cut], i)
        if best is None:
            break
        i = best[1]
        used.add(i)
        picked.append(i)
        cuts.append(cut)
        support = members[i].support()
        cut = max(cut + 1, (support[-1] + 1) if support else cut + 1)
    if not picked:
        raise ExtractionError("no member admissible at the plateau onset")

    flags = []
    for g, i in enumerate(picked):
        x = members[i]
        a_g = cuts[g]
        left = norm(x.restrict(0, a_g), NormTag.L1)
        tail = norm(x.restrict(a_g, L), NormTag.L1)
        middle = norm(x.restrict(alpha0, a_g), NormTag.L1)
        past = all(
            max(members[picked[b]].support()) < a_g for b in range(g)
        )
        fl = PropertyFlags(
            left_mass_small=left <= n_value + eps,
            past_supports=past,
            tail_mass_large=tail >= 1 - n_value - eps,
            middle_mass_tiny=middle <= eps,
        )
        if not fl.all_hold():
            raise ConstructionError(f"extraction property failed at pick {g}")
        flags.append(fl)

    return SlidingHumpData(
        source=tuple(members),
        epsilon=eps,
        n_value=n_value,
        alpha0=alpha0,
        n_table=n_table,
        members=tuple(picked),
        cuts=tuple(cuts),
        extracted=tuple(members[i] for i in picked),
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# coordinate biorthogonal system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiorthSystem:
    """Unit coordinate vectors paired with coordinate functionals."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise DomainError("system size must be positive")

    def functional(self, i: int) -> Vector:
        return unit_vector(i, self.size)
