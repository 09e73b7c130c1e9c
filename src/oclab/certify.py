"""Machine-checkable certificates for every constructed property.

The certificates here follow one discipline: each claim is either
verified in exact rational arithmetic (ranks, annihilators, norm
inequalities, cover assignments) or is explicitly a float diagnostic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from .constructors import IncompleteModel, SlidingHumpData, _onset
from .errors import (
    CertificationError,
    DomainError,
    PreconditionError,
)
from .linalg import (
    Matrix,
    NormTag,
    PivotLog,
    RankResult,
    Vector,
    dual_norm,
    pairing,
    rank_exact,
    scaled_int_coords,
    _complement,
    _diagonal_step,
    _extend,
    _int_difference,
    _prefix_walk,
)
from .rng import rng_for

__all__ = [
    "HyperplaneFunctional",
    "CoverResult",
    "MajorityResult",
    "WitnessRecord",
    "SplitEntry",
    "L1EquivalenceCertificate",
    "FunctionalDecay",
    "DecayEntry",
    "DecayReport",
    "ProbeReport",
    "density_certificate",
    "density_certificates",
    "all_subsets_full_rank",
    "hyperplane_cover",
    "pigeonhole_majority",
    "free_set_extract",
    "support_annihilator_witness",
    "coefficient_samples",
    "l1_lower_bound_certificate",
    "decay_bound",
    "annihilator_decay_check",
    "weak_norm_convergence_probe",
]


# ---------------------------------------------------------------------------
# density and rank certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HyperplaneFunctional:
    """A nonzero exact functional; represents the hyperplane ker(coeffs)."""

    coeffs: Vector

    def __post_init__(self):
        if not any(self.coeffs.coords):
            raise DomainError("the zero functional does not define a hyperplane")


def density_certificate(vectors: Sequence[Vector], subset: Iterable[int], d: int) -> RankResult:
    """Prove that the selected vectors span R^d, with a replayable pivot log.

    The one-subset case of :func:`density_certificates`, so a single
    certificate and a family's many take the same path.
    """
    return density_certificates(vectors, (subset,), d)[0]


def density_certificates(vectors: Sequence[Vector], subsets: Iterable, d: int) -> list:
    """The :func:`density_certificate` of each subset of ``vectors``, in
    order: a :class:`~oclab.linalg.RankResult` of rank d.

    The subsets are walked with :func:`~oclab.linalg._diagonal_step` on
    rows scaled to integers once for the whole family.  While row t
    pivots on coordinate t, the walk's pivots are the subset's leading
    principal minors, which are the Bareiss pivots that
    :func:`~oclab.linalg.rank_exact` logs for it (a leading minor of M is
    one of M transposed): the log is ``(t, t, minor)`` per row and the
    determinant is the last minor over the product of the row scales.  A
    subset that leaves that diagonal, turns dependent or does not have d
    rows is eliminated on its own by :func:`~oclab.linalg.rank_exact`, and
    one of rank below d raises :class:`~oclab.errors.CertificationError`
    naming it.
    """
    for v in vectors:
        if v.dim != d:
            raise DomainError(f"vector of dimension {v.dim} in ambient dimension {d}")
    n = len(vectors)
    ints = [v._ints for v in vectors]

    def checked():
        # before the walk reads its rows, so that -1 never wraps to the last row
        for subset in subsets:
            sel_idx = tuple(subset)
            for i in sel_idx:
                if not 0 <= i < n:
                    raise DomainError(f"row index {i} out of range")
            yield sel_idx

    out = []
    for sel_idx, states in _prefix_walk([r for r, _ in ints], checked(), _complement(d), _diagonal_step):
        if len(sel_idx) == d and states[d] is not None:
            scales = tuple(ints[i][1] for i in sel_idx)
            log = PivotLog((d, d), scales, tuple((t, t, s[0]) for t, s in enumerate(states[1:])))
            out.append(RankResult(d, log, Fraction(states[d][0], math.prod(scales))))
            continue
        result = rank_exact(Matrix.from_rows(vectors[i] for i in sel_idx))
        if result.rank < d:
            raise CertificationError(f"subset {sel_idx} has rank {result.rank}, not d = {d}")
        out.append(result)
    return out


def all_subsets_full_rank(vectors: Sequence[Vector], d: int):
    """Exact rank-d sweep over every d-subset of vectors in R^d; returns
    (checked, failures), with checked = C(n, d).

    The reference sweep of tests and verifiers: a family built by
    :func:`~oclab.constructors.fd_overcomplete` has had each d-subset
    decided while it was built, by packed exterior forms for d <= 8 and by
    2-D projections onto the plane of each (d-2)-subset past that, so a
    run does not sweep it again.  This sweep decides
    rank by folding each d-subset's rows with :func:`~oclab.linalg._extend`
    instead; a subset whose last state is ``None`` fails.
    """
    for v in vectors:
        if v.dim != d:
            raise DomainError(f"vector of dimension {v.dim} in ambient dimension {d}")
    rows = [scaled_int_coords(v) for v in vectors]
    walk = _prefix_walk(rows, combinations(range(len(rows)), d), _complement(d), _extend)
    return math.comb(len(rows), d), [subset for subset, states in walk if states[-1] is None]


# ---------------------------------------------------------------------------
# hyperplane covers and the pigeonhole step
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverResult:
    """Decision partition: exactly one of the two shapes.

    Covered: ``assignment[i]`` names a hyperplane exactly annihilating
    point i.  Escape: ``escape_index`` is the first point whose pairings
    against every hyperplane are exactly nonzero, listed in
    ``escape_pairings``.
    """

    covered: bool
    assignment: Optional[tuple] = None
    escape_index: Optional[int] = None
    escape_pairings: Optional[tuple] = None

    @property
    def verdict(self) -> str:
        return "Covered" if self.covered else "Escape"


def hyperplane_cover(S: Sequence[Vector], H: Sequence[HyperplaneFunctional]) -> CoverResult:
    """Assign each point a containing hyperplane, or exhibit an escapee."""
    assignment = []
    for idx, s in enumerate(S):
        pairings = [pairing(h.coeffs, s) for h in H]
        hit = next((j for j, p in enumerate(pairings) if p == 0), None)
        if hit is None:
            return CoverResult(False, escape_index=idx, escape_pairings=tuple(pairings))
        assignment.append(hit)
    return CoverResult(True, assignment=tuple(assignment))


@dataclass(frozen=True)
class MajorityResult:
    """The majority hyperplane, the points it contains and their quota,
    with the cover they were counted from."""

    hyperplane_index: int
    members: tuple
    quota: int
    cover: CoverResult


def pigeonhole_majority(S: Sequence[Vector], H: Sequence[HyperplaneFunctional]) -> MajorityResult:
    """A hyperplane containing at least ceil(|S|/|H|) of the covered points."""
    cover = hyperplane_cover(S, H)
    if not cover.covered:
        raise PreconditionError("the points are not covered by the given hyperplanes")
    counts = [0] * len(H)
    for j in cover.assignment:
        counts[j] += 1
    best = max(range(len(H)), key=lambda j: (counts[j], -j))
    quota = -(-len(S) // len(H))
    members = tuple(i for i, s in enumerate(S) if pairing(H[best].coeffs, s) == 0)
    if len(members) < quota:
        raise CertificationError("pigeonhole count fell below the quota")
    return MajorityResult(best, members, quota, cover)


# ---------------------------------------------------------------------------
# free sets over set mappings
# ---------------------------------------------------------------------------


def free_set_extract(n: int, f: Sequence[Iterable[int]]) -> tuple:
    """Greedy free set H of a set mapping f on [n], scanning indices in
    ascending order: for every a in H, f(a) minus {a} misses H entirely.

    An index joins H when its image avoids the current H and no earlier
    member's image contains it, so each member's image misses the members
    before it and after it.  Optimality is not claimed.
    """
    fsets = [frozenset(x) for x in f]
    if len(fsets) != n:
        raise DomainError(f"the map must be total on [0, {n})")
    for i, fs in enumerate(fsets):
        for v in fs:
            if not 0 <= v < n:
                raise DomainError(f"f({i}) contains {v}, outside the ground set")
    chosen = []
    chosen_set: set = set()
    blocked: set = set()
    for a in range(n):
        image = fsets[a] - {a}
        if image & chosen_set or a in blocked:
            continue
        chosen.append(a)
        chosen_set.add(a)
        blocked |= image
    return tuple(chosen)


@dataclass(frozen=True)
class WitnessRecord:
    gamma: int
    checked: tuple
    vacuous: bool


def support_annihilator_witness(family: Sequence[Vector], H: Iterable[int], gamma: int) -> WitnessRecord:
    """Verify that the gamma-th coordinate functional kills the rest of H.

    This is the density-killing step: when H is free for the support map
    of the family, every other member's support misses gamma, so the
    pairings must vanish exactly.  The pairing of that functional with a
    member is the member's gamma-th coordinate.  A nonzero pairing means
    the free set was broken and raises.
    """
    H = tuple(H)
    if gamma not in H:
        raise PreconditionError(f"gamma={gamma} is not a member of H")
    dim = family[0].dim
    if not 0 <= gamma < dim:
        raise DomainError(f"unit index {gamma} outside dimension {dim}")
    checked = []
    for a in H:
        if a == gamma:
            continue
        p = family[a].coords[gamma]
        if p != 0:
            raise CertificationError(
                f"functional {gamma} pairs to {p} with member {a}; the free set is broken"
            )
        checked.append(a)
    return WitnessRecord(gamma, tuple(checked), vacuous=not checked)


# ---------------------------------------------------------------------------
# the L1 lower-bound chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitEntry:
    """Per-member decomposition log: the middle strip was removed."""

    member: int
    cut: int
    approximation_gap: Fraction
    tail_mass: Fraction


@dataclass(frozen=True)
class L1EquivalenceCertificate:
    constant: Fraction
    floor: Fraction
    split_log: tuple
    sampled_min: Fraction
    sample_count: int


def coefficient_samples(m: int, count: int, seed: int = 0) -> list:
    """Coefficient vectors of exact total mass one, each an integer pair
    ``(numerators, total)`` standing for ``numerators / total`` with
    ``sum(|numerators|) == total``: the 2m signed unit vectors
    ``((0, ..., ±1, ..., 0), 1)`` first, then seeded random points of the
    same mass, their numerators signed draws over the draws' sum.

    Each point takes m draws below 2^16, then m sign bits, all from the
    generator's ``getrandbits``; the draws are the stream that
    ``randrange(0, 1 << 16)`` gives on CPython 3.10-3.12.  A point whose
    draws are all zero is drawn again."""
    if m < 1 or count < 1:
        raise DomainError(f"need at least one coefficient slot and one sample, got m={m}, count={count}")
    samples = []
    for j in range(m):
        for sgn in (1, -1):
            vec = [0] * m
            vec[j] = sgn
            samples.append((tuple(vec), 1))
            if len(samples) == count:
                return samples
    getrandbits = rng_for(seed, "l1-samples").getrandbits
    while len(samples) < count:
        # 17-bit draws with those of 2^16 or more rejected: the loop that
        # randrange(0, 1 << 16) runs on CPython 3.10-3.12, without its call cost
        raw = []
        while len(raw) < m:
            r = getrandbits(17)
            if r < 1 << 16:
                raw.append(r)
        total = sum(raw)
        if total == 0:
            continue
        samples.append((tuple(r if getrandbits(1) else -r for r in raw), total))
    return samples


def l1_lower_bound_certificate(data: SlidingHumpData, samples: Sequence) -> L1EquivalenceCertificate:
    """Replay the lower-bound chain exactly and sanity-check it on samples.

    Chain: strip each extracted member's middle mass (must be within
    eps), observe the remaining tails are disjointly supported, bound
    each tail's mass from below, and emit c = 1 - N - 2*eps.  Every
    sampled combination of total mass one must then have L1 norm >= c;
    a sampled violation is a hard error, not a statistic.  Samples are
    the ``(numerators, total)`` pairs of :func:`coefficient_samples`;
    each is checked in integers, with every member's exclusive mass
    summed once and only each distinct shared column, with its count,
    summed per sample.
    """
    n_value, eps, alpha0 = data.n_value, data.epsilon, data.alpha0
    splits = []
    tail_supports = []
    for g, x in enumerate(data.extracted):
        cut = data.cuts[g]
        xs, scale = x._ints
        # the middle strip [alpha0, cut) is removed; the tail is what lies
        # right of both the strip and alpha0
        gap = Fraction(sum(map(abs, xs[alpha0:cut])), scale)
        if gap > eps:
            raise CertificationError(
                f'chain step "middle strip within eps" failed at pick {g}: {gap} > {eps}'
            )
        start = max(alpha0, cut)
        tail = xs[start:]
        tail_supports.append({start + i for i, c in enumerate(tail) if c})
        tail_mass = Fraction(sum(map(abs, tail)), scale)
        if tail_mass < 1 - n_value - eps:
            raise CertificationError(
                f'chain step "tail mass at least 1-N-eps" failed at pick {g}'
            )
        splits.append(SplitEntry(data.members[g], cut, gap, tail_mass))
    seen: set = set()
    for g, sup in enumerate(tail_supports):
        if sup & seen:
            raise CertificationError(f'chain step "disjoint tails" failed at pick {g}')
        seen |= sup
    # sliding_hump_extract refused 1 - N - 2*eps below this floor
    constant = 1 - n_value - 2 * eps
    floor = (1 - n_value) / 2

    # the sampled combinations, in integers over the common denominator den:
    # a coordinate where one member alone is nonzero adds |n_j|*|r_ji| to
    # every sample's total, so those masses are summed once per member, and
    # equal shared columns add equal terms, so each distinct one is summed
    # once per sample and counted as often as it occurs
    m = len(data.extracted)
    den = math.lcm(*(x._ints[1] for x in data.extracted))
    rows = [[c * (den // scale) for c in xs] for xs, scale in (x._ints for x in data.extracted)]
    exclusive = [0] * m
    shared = []
    for column, count in Counter(column for column in zip(*rows) if any(column)).items():
        members = [j for j, r in enumerate(column) if r]
        if len(members) == 1:
            exclusive[members[0]] += count * abs(column[members[0]])
        else:
            shared.append((count, column))
    # total/(d_a*den) >= constant, cross-multiplied to stay integral
    c_den, c_num = constant.denominator, constant.numerator * den
    best = None
    for k, (nums, d_a) in enumerate(samples):
        if len(nums) != m:
            raise DomainError(f"sample {k} has length {len(nums)}, expected {m}")
        mags = list(map(abs, nums))
        mass = sum(mags)
        if d_a <= 0 or mass != d_a:
            raise DomainError(
                f"sample {k} does not have exact total mass one: "
                f"numerator mass {mass} over total {d_a}"
            )
        total = sum(map(mul, mags, exclusive))
        for count, column in shared:
            total += count * abs(sum(map(mul, nums, column)))
        if total * c_den < c_num * d_a:
            raise CertificationError(
                f"sampled combination {k} fell below the certified constant"
            )
        if best is None or total * best[1] < best[0] * d_a:
            best = (total, d_a)
    sampled_min = Fraction(best[0], best[1] * den)
    return L1EquivalenceCertificate(
        constant=constant,
        floor=floor,
        split_log=tuple(splits),
        sampled_min=sampled_min,
        sample_count=len(samples),
    )


# ---------------------------------------------------------------------------
# annihilator decay bounds
# ---------------------------------------------------------------------------


#: The largest k at which :func:`decay_bound` is exact.
_EXACT_LIMIT = 60


def decay_bound(j: int, k: int, norm_value=Fraction(1)):
    """The elimination bound ||e||*((j+2)^k/k! + ((j+2)/(j+3))^k * k).

    Exact rational up to :data:`_EXACT_LIMIT`; beyond that the factorial
    and power terms are combined in log space and the result is a float
    (the mode switch is visible in the return type and recorded by the
    caller).
    """
    if j < 0 or k < 0:
        raise DomainError("bound indices must be nonnegative")
    if k <= _EXACT_LIMIT:
        term1 = Fraction((j + 2) ** k, math.factorial(k))
        term2 = Fraction(j + 2, j + 3) ** k * k
        return Fraction(norm_value) * (term1 + term2)
    t1 = math.exp(k * math.log(j + 2) - math.lgamma(k + 1))
    t2 = math.exp(k * (math.log(j + 2) - math.log(j + 3))) * k
    return float(norm_value) * (t1 + t2)


@dataclass(frozen=True)
class DecayEntry:
    j: int
    pairing: Fraction
    bounds: tuple               # (k, bound) pairs, only k > j contribute
    min_bound: Union[Fraction, float, None]
    bound_holds: Optional[bool]
    forced_zero: Optional[bool]
    onset_k: Optional[int]


@dataclass(frozen=True)
class FunctionalDecay:
    functional_norm: Fraction
    annihilates_target: bool
    entries: tuple


@dataclass(frozen=True)
class DecayReport:
    ks: tuple
    j_max: int
    tau: Fraction
    exact_limit: int
    mode_switch_ks: tuple
    functionals: tuple


def annihilator_decay_check(
    model: IncompleteModel,
    sequence: Sequence[Vector],
    ks: Sequence[int],
    functionals: Sequence[Vector],
    j_max: int,
    tau=Fraction(1, 1000),
) -> DecayReport:
    """Evaluate the per-coordinate elimination bounds for annihilators.

    Each supplied functional must exactly annihilate the designated
    subsequence members (checked; that is the precondition making the
    bounds meaningful).  For every coordinate index j the report lists
    the exact bounds over the usable subsequence (k > j), their minimum,
    whether the actual pairing respects it, and whether the minimum has
    dropped below tau — the "forces a zero pairing" flag.  Bounds for
    j >= 1 presume the earlier pairings already vanished (the inductive
    elimination); they are reported, not asserted.
    """
    ks = tuple(sorted(set(int(k) for k in ks)))
    if ks[0] < 0 or ks[-1] >= len(sequence):
        raise DomainError("subsequence index out of range")
    dim = sequence[0].dim
    tau = tau if isinstance(tau, float) else Fraction(tau)
    reports = []
    for e in functionals:
        for k in ks:
            if pairing(e, sequence[k]):
                raise PreconditionError(
                    f"functional does not annihilate the subsequence member at k={k}"
                )
        e_norm = dual_norm(e, NormTag.L1)
        hits_target = not pairing(e, model.y_truncation(dim))
        entries = []
        for j in range(j_max + 1):
            usable = [k for k in ks if k > j]
            bounds = tuple((k, decay_bound(j, k, e_norm)) for k in usable)
            pair_j = e.coords[j]
            if bounds:
                vals = [b for _, b in bounds]
                min_bound = min(vals)
                holds = abs(pair_j) <= min_bound
                forced = min_bound < tau
                onset_k = usable[_onset(vals)]
            else:
                min_bound, holds, forced, onset_k = None, None, None, None
            entries.append(
                DecayEntry(j, pair_j, bounds, min_bound, holds, forced, onset_k)
            )
        reports.append(FunctionalDecay(e_norm, hits_target, tuple(entries)))
    return DecayReport(
        ks=ks,
        j_max=j_max,
        tau=tau,
        exact_limit=_EXACT_LIMIT,
        mode_switch_ks=tuple(k for k in ks if k > _EXACT_LIMIT),
        functionals=tuple(reports),
    )


# ---------------------------------------------------------------------------
# coordinatewise vs norm convergence probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    """Window-sup coordinate deviations vs L1 norm deviations, per member.

    The classification looks at the final member: norm gap below tau
    means norm-convergent; otherwise a window-sup below tau means the
    deviation has escaped the window (coordinatewise-only); otherwise
    divergent.  This is a finite diagnostic for the weak-vs-norm gap,
    not a decision procedure for weak convergence.
    """

    window: int
    tau: float
    coord_sups: tuple
    norm_gaps: tuple
    classification: str


def weak_norm_convergence_probe(
    sequence: Sequence[Vector], limit: Vector, window: int, tau: float = 1e-6
) -> ProbeReport:
    """Each member's sup deviation from ``limit`` on the first ``window``
    coordinates and its L1 distance to ``limit``, classified at ``tau``.

    Both are read from the integer difference of each member and ``limit``
    (:func:`~oclab.linalg._int_difference`, which refuses another dimension).
    """
    dim = limit.dim
    if window < 1 or window > dim:
        raise DomainError(f"window must lie in [1, {dim}]")
    coord_sups = []
    norm_gaps = []
    for v in sequence:
        diff, den = _int_difference(v, limit)
        gaps = list(map(abs, diff))
        coord_sups.append(Fraction(max(gaps[:window]), den))
        norm_gaps.append(Fraction(sum(gaps), den))
    if norm_gaps[-1] < tau:
        classification = "norm-convergent"
    elif coord_sups[-1] < tau:
        classification = "coordinatewise-only"
    else:
        classification = "divergent"
    return ProbeReport(window, tau, tuple(coord_sups), tuple(norm_gaps), classification)
