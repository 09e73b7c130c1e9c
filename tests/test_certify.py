import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oclab.certify import (
    DensityCertificate,
    HyperplaneFunctional,
    all_subsets_full_rank,
    annihilator_decay_check,
    coefficient_samples,
    decay_bound,
    density_certificate,
    density_certificates,
    free_set_extract,
    hyperplane_cover,
    l1_lower_bound_certificate,
    pigeonhole_majority,
    support_annihilator_witness,
    weak_norm_convergence_probe,
)
from oclab.constructors import (
    IncompleteModel,
    OpenBall,
    SlidingHumpData,
    fd_overcomplete,
    incomplete_space_sequence,
    klee_vectors,
    sliding_hump_extract,
    _GeneralPosition,
)
from oclab.errors import (
    CertificationError,
    DomainError,
    PreconditionError,
)
from oclab.harness import block_family
from oclab.linalg import (
    Matrix,
    NormTag,
    dual_norm,
    exact_vector,
    null_vector,
    nullspace_exact,
    pairing,
    rank_exact,
    scaled_int_coords,
    unit_vector,
    vandermonde_det,
    zero_vector,
    _complement,
    _extend,
)
from oclab.serialize import canonical_json
from oclab.verify import replay_pivot_log

from oracles import brute_force_max_free_set, cofactor_det, l1_combination_norm, rref_rank


KLEE5_LAMBDAS = [F(1, 10), F(1, 5), F(3, 10), F(2, 5), F(9, 20)]
KLEE5 = klee_vectors(KLEE5_LAMBDAS, 3)


def _replay(M, log, expected_rank=None):
    """The verifier's replay of ``log``, in its wire form, on M's coordinates."""
    return replay_pivot_log([v.coords for v in M.rows], json.loads(canonical_json(log)), expected_rank)


# ---------------------------------------------------------------------------
# density certificates
# ---------------------------------------------------------------------------


def test_klee_subsets_of_size_at_least_d_are_full():
    for size in (3, 4, 5):
        for sub in itertools.combinations(range(5), size):
            cert = density_certificate(KLEE5, sub, 3)
            assert cert.verdict == "Full"
            M = Matrix.from_rows([KLEE5[i] for i in sub])
            assert _replay(M, cert.pivot_log, 3) == 3
            if size == 3:
                assert cert.det == vandermonde_det([KLEE5_LAMBDAS[i] for i in sub])


def test_klee_small_subsets_are_proper_with_exact_witness():
    for size in (1, 2):
        for sub in itertools.combinations(range(5), size):
            cert = density_certificate(KLEE5, sub, 3)
            assert cert.verdict == "Proper"
            assert all(pairing(cert.witness, KLEE5[i]) == 0 for i in sub)
            assert any(cert.witness.coords)


def test_coordinate_rows_yield_coordinate_witness():
    cert = density_certificate([unit_vector(0, 3), unit_vector(1, 3)], (0, 1), 3)
    assert cert.verdict == "Proper"
    assert cert.witness.coords == (F(0), F(0), F(1))


def test_zero_vector_in_dimension_one():
    cert = density_certificate([zero_vector(1)], (0,), 1)
    assert cert.verdict == "Proper"
    assert cert.witness.coords == (F(1),)


def test_empty_subset_rejected():
    with pytest.raises(DomainError):
        density_certificate(KLEE5, (), 3)


def _eliminated_one_by_one(vectors, subsets, d):
    """Each subset's certificate from its own rank_exact elimination."""
    out = []
    for sub in subsets:
        selected = Matrix.from_rows(vectors[i] for i in sub)
        result = rank_exact(selected)
        if result.rank == d:
            out.append(DensityCertificate("Full", d, pivot_log=result.log, det=result.det))
        else:
            out.append(DensityCertificate("Proper", result.rank, witness=null_vector(selected, (1,))))
    return out


@st.composite
def _walk_cases(draw):
    """An integer family with zero, repeated, scaled and signed coordinate
    rows, and its subsets in combinations order or shuffled among subsets
    of other sizes."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(d, 7))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["zero", "repeat", "unit", "scaled", "small"]))
        if kind == "zero":
            row = [0] * d
        elif kind == "repeat" and rows:
            row = list(draw(st.sampled_from(rows)))
        elif kind == "unit":
            row = [0] * d
            row[draw(st.integers(0, d - 1))] = draw(st.sampled_from([1, -1]))
        elif kind == "scaled" and rows:
            row = [F(x, 3) for x in draw(st.sampled_from(rows))]
        else:
            row = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
        rows.append(row)
    subsets = list(itertools.combinations(range(n), d))
    if draw(st.booleans()):
        others = st.lists(st.integers(0, n - 1), min_size=1, max_size=d + 1).map(tuple)
        subsets = draw(st.permutations(subsets + draw(st.lists(others, max_size=4))))
    return [exact_vector(r) for r in rows], subsets, d


@given(case=_walk_cases())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_subset_walk_gives_each_subsets_own_elimination(case):
    vectors, subsets, d = case
    certs = density_certificates(vectors, subsets, d)
    assert certs == _eliminated_one_by_one(vectors, subsets, d)
    for sub, cert in zip(subsets, certs):
        if cert.verdict == "Full":
            selected = Matrix.from_rows(vectors[i] for i in sub)
            assert _replay(selected, cert.pivot_log, d) == d
    # after a walk, a negative or past-the-end index or an empty subset is
    # refused, and -1 does not wrap around to the last row
    n = len(vectors)
    for bad in (tuple(range(d - 1)) + (-1,), tuple(range(d - 1)) + (n,), (-1,), ()):
        with pytest.raises(DomainError):
            density_certificates(vectors, subsets + [bad], d)


def test_replay_rejects_forged_row_scale():
    from oclab.linalg import PivotLog, rank_exact

    M = Matrix.from_rows([exact_vector(["1/2", 1]), exact_vector([1, "1/3"])])
    log = rank_exact(M).log
    forged = PivotLog(log.shape, (log.row_scales[0] * 3,) + log.row_scales[1:], log.steps)
    with pytest.raises(CertificationError):
        _replay(M, forged)


def test_replay_rejects_dropped_step():
    from oclab.linalg import PivotLog, rank_exact

    M = Matrix.from_rows([unit_vector(0, 2), unit_vector(1, 2)])
    log = rank_exact(M).log
    forged = PivotLog(log.shape, log.row_scales, log.steps[:1])
    with pytest.raises(CertificationError):
        _replay(M, forged)


def test_density_certificates_refuse_a_witness_that_does_not_annihilate(monkeypatch):
    import oclab.certify as certify_mod

    # (0,) has rank 1 < 3, so its certificate takes null_vector's witness;
    # e_0 pairs to 1 with KLEE5[0]
    monkeypatch.setattr(certify_mod, "null_vector", lambda M, weights: unit_vector(0, 3))
    with pytest.raises(CertificationError, match="annihilator witness failed to annihilate"):
        density_certificates(KLEE5, [(0,)], 3)


def test_density_certificate_refuses_a_vector_of_another_dimension():
    # the diagonal walk reads d coordinates, so a longer vector's third
    # coordinate would go unread
    with pytest.raises(DomainError, match="vector of dimension 3 in ambient dimension 2"):
        density_certificate([exact_vector([1, 0, 5]), exact_vector([0, 1, 0])], (0, 1), 2)


def test_subset_sweep_counts_and_flags_failures():
    vectors = list(KLEE5) + [KLEE5[0]]  # duplicate breaks some triples
    checked, failures = all_subsets_full_rank(vectors, 3)
    assert checked == 20
    assert (0, 1, 5) in failures  # contains the duplicate pair
    checked2, failures2 = all_subsets_full_rank(list(KLEE5), 3)
    assert checked2 == 10 and failures2 == []


def _planted_family(d, seed):
    """Small rational vectors in R^d with planted dependencies: duplicates,
    multiples, the zero vector and combinations of d-1 earlier members."""
    rng = random.Random(seed)
    rows = [[F(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(d)] for _ in range(d + 2)]
    for _ in range(4):
        kind = rng.randrange(4)
        if kind == 0:
            rows.append(list(rng.choice(rows)))
        elif kind == 1:
            rows.append([F(-3, 2) * c for c in rng.choice(rows)])
        elif kind == 2:
            rows.append([F(0)] * d)
        else:
            picks = rng.sample(rows, max(d - 1, 1))
            weights = [F(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in picks]
            rows.append([sum(w * r[i] for w, r in zip(weights, picks)) for i in range(d)])
    rng.shuffle(rows)
    return [exact_vector(r) for r in rows]


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_subset_sweep_matches_the_cofactor_oracle(d, seed):
    vectors = _planted_family(d, seed)
    rows = [v.coords for v in vectors]
    combos = list(itertools.combinations(range(len(vectors)), d))
    expected = [sub for sub in combos if cofactor_det([rows[i] for i in sub]) == 0]
    assert all_subsets_full_rank(vectors, d) == (len(combos), expected)


@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=40, deadline=None)
def test_general_position_check_admits_exactly_the_avoiding_rows(d, extra, seed):
    # fed the planted family in order, the construction's check admits a row
    # exactly when no subset T of min(#picks, d-1) picks is singular with it;
    # random candidates almost never lie on such a span, so only planted
    # dependencies show a check that admits too much.  d runs on both sides
    # of the packed forms' band (4 <= d <= 8) and the planes' outside it
    vectors = _planted_family(d, seed)
    n = d + extra
    check = _GeneralPosition(d, n)
    picks = []
    for v in vectors:
        if len(picks) == n:
            break
        size = min(len(picks), d - 1)
        avoids = all(
            rref_rank([v.coords] + [p.coords for p in T]) == size + 1
            for T in itertools.combinations(picks, size)
        )
        assert check.admit(scaled_int_coords(v)) == avoids
        if avoids:
            picks.append(v)


@pytest.mark.parametrize("d", [4, 5, 8])
def test_general_position_check_repacks_its_forms_as_rows_grow(d):
    # rows of 3 bits, then 40, then 200: each growth re-packs levels that
    # already hold minors, and every third row is a combination of the d-1
    # latest picks, which the check must still refuse at the wider slots
    rng = random.Random(d)
    n = d + 7 if d < 8 else d + 3
    check = _GeneralPosition(d, n)
    picks, widths = [], []
    for t in range(3 * n):
        if len(picks) == n:
            break
        if t % 3 == 2 and len(picks) >= d - 1:
            weights = [rng.choice([-2, -1, 1, 3]) for _ in range(d - 1)]
            row = [sum(w * p[i] for w, p in zip(weights, picks[1 - d :])) for i in range(d)]
        else:
            bits = 3 if len(picks) < d else 40 if len(picks) < n - 2 else 200
            row = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(d)]
        size = min(len(picks), d - 1)
        avoids = all(rref_rank([row, *T]) == size + 1 for T in itertools.combinations(picks, size))
        assert check.admit(row) == avoids
        if avoids:
            picks.append(row)
        widths.append(check.width)
    assert len(picks) == n
    assert len(set(widths[d:])) >= 3


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_complement_updates_end_in_the_cofactor_normal(d, seed):
    # exact Bareiss divisions: the last vector's pairing with a completing row
    # is the determinant itself, up to sign, so entries never outgrow minors
    rng = random.Random(seed)
    rows = [tuple(rng.randrange(-9, 10) for _ in range(d)) for _ in range(d)]
    state = _complement(d)
    for k, row in enumerate(rows[:-1]):
        state = _extend(state, row)
        if state is None:
            assert rref_rank([list(r) for r in rows[: k + 1]]) == k
            return
        assert len(state[2]) == d - k - 1
    pivot, cols, ((f, m),) = state
    normal = {**dict(zip(cols, m)), f: pivot}
    det = cofactor_det([[F(x) for x in r] for r in rows])
    assert abs(sum(normal[j] * rows[-1][j] for j in range(d))) == abs(det)


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=6),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=30, deadline=None)
def test_fd_overcomplete_output_has_oracle_rank_d_on_every_subset(d, extra, auto, seed):
    # the construction's own walk is the run's sweep certificate, so its
    # output must pass both the rref oracle and the independent re-sweep,
    # with the unit-ball default and with seeded centres of radius 1/2
    n = d + extra
    targets = None
    if auto:
        rng = random.Random(seed)
        targets = [
            OpenBall(exact_vector(F(rng.randrange(-255, 256), 256) for _ in range(d)), F(1, 2))
            for _ in range(n)
        ]
    vectors = fd_overcomplete(d, n, targets=targets, seed=seed)
    assert all_subsets_full_rank(vectors, d) == (math.comb(n, d), [])
    for sub in itertools.combinations(vectors, d):
        assert rref_rank([v.coords for v in sub]) == d


def test_subset_sweep_rejects_a_dimension_or_subset_size_mismatch():
    with pytest.raises(DomainError):
        all_subsets_full_rank(list(KLEE5), 2)


def test_subset_kernel_has_no_dimension_limit():
    # d = 24, n = 25: every 24-subset of the construction has oracle rank 24,
    # and a planted duplicate is found in every subset that holds both copies
    vectors = fd_overcomplete(24, 25, seed=3)
    assert all_subsets_full_rank(vectors, 24) == (25, [])
    sub = [v.coords for v in vectors[1:]]
    assert rref_rank(sub) == 24
    family = vectors[:24] + [vectors[5]]
    checked, failures = all_subsets_full_rank(family, 24)
    assert checked == 25
    assert failures == [s for s in itertools.combinations(range(25), 24) if 5 in s and 24 in s]


# ---------------------------------------------------------------------------
# covers and pigeonhole
# ---------------------------------------------------------------------------


def _coord_plane(j, d):
    return HyperplaneFunctional(unit_vector(j, d))


def test_cover_assigns_coordinate_points():
    S = [unit_vector(0, 2), unit_vector(1, 2)]
    H = [_coord_plane(1, 2), _coord_plane(0, 2)]
    result = hyperplane_cover(S, H)
    assert result.covered
    assert result.assignment == (0, 1)


def test_escape_point_has_all_pairings_nonzero():
    result = hyperplane_cover([exact_vector([1, 1])], [_coord_plane(0, 2), _coord_plane(1, 2)])
    assert not result.covered
    assert result.escape_index == 0
    assert all(p != 0 for p in result.escape_pairings)


def test_klee_points_escape_any_single_hyperplane():
    plane = HyperplaneFunctional(
        nullspace_exact(Matrix.from_rows(list(KLEE5[:2])))[0]
    )
    result = hyperplane_cover(list(KLEE5), [plane])
    assert not result.covered
    assert result.escape_index == 2  # first two lie in the plane by construction


def test_zero_functional_is_not_a_hyperplane():
    with pytest.raises(DomainError):
        HyperplaneFunctional(zero_vector(3))


def test_pigeonhole_meets_quota_on_balanced_split():
    points = []
    for t in range(6):
        coords = [F(t + i + 1) for i in range(3)]
        coords[t % 3] = F(0)
        points.append(exact_vector(coords))
    planes = [_coord_plane(j, 3) for j in range(3)]
    result = pigeonhole_majority(points, planes)
    assert result.quota == 2
    assert len(result.members) >= 2
    for i in result.members:
        assert pairing(planes[result.hyperplane_index].coeffs, points[i]) == 0


def test_pigeonhole_refuses_a_cover_below_the_quota(monkeypatch):
    import oclab.certify as certify_mod

    # ker e_0 holds one of the four points, but the skewed cover assigns it
    # all four, so it wins the count and falls below the quota of 2
    points = [exact_vector([0, 1])] + [exact_vector([1, 0])] * 3
    skewed = certify_mod.CoverResult(True, assignment=(0, 0, 0, 0))
    monkeypatch.setattr(certify_mod, "hyperplane_cover", lambda S, H: skewed)
    with pytest.raises(CertificationError, match="pigeonhole count fell below the quota"):
        pigeonhole_majority(points, [_coord_plane(0, 2), _coord_plane(1, 2)])


def test_pigeonhole_requires_covered_input():
    with pytest.raises(PreconditionError):
        pigeonhole_majority([exact_vector([1, 1])], [_coord_plane(0, 2)])


# ---------------------------------------------------------------------------
# free sets
# ---------------------------------------------------------------------------


def test_chain_map_free_set():
    assert free_set_extract(6, [{1}, {2}, {3}, {4}, {5}, {5}]) == (0, 2, 4)


def test_identity_map_everything_free():
    assert free_set_extract(4, [{i} for i in range(4)]) == (0, 1, 2, 3)


def test_total_map_single_member():
    assert free_set_extract(4, [set(range(4))] * 4) == (0,)


def test_map_must_be_total_with_values_in_range():
    with pytest.raises(DomainError):
        free_set_extract(3, [{0}, {1}])
    with pytest.raises(DomainError):
        free_set_extract(3, [{0}, {1}, {7}])


def test_greedy_output_free_on_ten_thousand_instances():
    rng = random.Random(60617)
    for _ in range(10_000):
        n = rng.randrange(1, 65)
        fmap = [
            {rng.randrange(n) for _ in range(rng.randrange(0, 5))}
            for _ in range(n)
        ]
        H = free_set_extract(n, fmap)
        chosen = set(H)
        for a in H:
            assert not (set(fmap[a]) - {a}) & chosen


def test_greedy_within_factor_three_of_bitmask_optimum():
    rng = random.Random(1123)
    for _ in range(60):
        n = rng.randrange(2, 11)
        fmap = [
            {rng.randrange(n) for _ in range(rng.randrange(0, 3))}
            for _ in range(n)
        ]
        H = free_set_extract(n, fmap)
        best = brute_force_max_free_set(n, fmap)
        assert 3 * len(H) >= best


def test_witness_verifies_and_detects_breakage():
    fmap = [frozenset(s) for s in ({1}, {2}, {3}, {4}, {5}, {5})]
    family = []
    for a in range(6):
        coords = [F(0)] * 6
        for i in fmap[a]:
            coords[i] = F(3)
        family.append(exact_vector(coords))
    H = free_set_extract(6, fmap)
    for gamma in H:
        record = support_annihilator_witness(family, H, gamma)
        assert record.checked == tuple(a for a in H if a != gamma)
        assert not record.vacuous
    # (4, 5) is not free: 5 lies in f(4), so functional 5 sees member 4
    with pytest.raises(CertificationError):
        support_annihilator_witness(family, (4, 5), 5)


def test_witness_requires_membership():
    family = [unit_vector(i, 3) for i in range(3)]
    with pytest.raises(PreconditionError):
        support_annihilator_witness(family, (0, 1), 2)


def test_witness_rejects_gamma_outside_the_dimension():
    family = [unit_vector(i, 3) for i in range(3)]
    for gamma in (3, -1):
        with pytest.raises(DomainError):
            support_annihilator_witness(family, (gamma,), gamma)


def test_witness_single_member_is_vacuous():
    family = [unit_vector(i, 3) for i in range(3)]
    record = support_annihilator_witness(family, (1,), 1)
    assert record.vacuous


# ---------------------------------------------------------------------------
# the l1 lower-bound chain
# ---------------------------------------------------------------------------


def _blocks(L, m, left_mass):
    lead = 3 if left_mass > 0 else 0
    width = (L - lead) // m
    out = []
    for j in range(m):
        coords = [F(0)] * L
        for i in range(lead):
            coords[i] = left_mass / lead
        for i in range(lead + j * width, lead + (j + 1) * width):
            coords[i] = (1 - left_mass) / width
        out.append(exact_vector(coords))
    return out


def test_l1_certificate_on_disjoint_family_gives_full_constant():
    S = [unit_vector(i, 15) for i in (0, 5, 10)]
    data = sliding_hump_extract(S, F(1, 10))
    cert = l1_lower_bound_certificate(data, coefficient_samples(3, 50, seed=2))
    assert cert.constant == 1 - 0 - F(2, 10)
    # disjoint supports: every sampled norm is exactly the coefficient mass,
    # and the triangle inequality caps each at 1, so the min pins them all
    assert cert.sampled_min == 1


def test_l1_certificate_blocks_instance():
    data = sliding_hump_extract(_blocks(200, 15, F(3, 10)), F(1, 20))
    cert = l1_lower_bound_certificate(data, coefficient_samples(15, 200, seed=4))
    assert cert.constant == F(3, 5)
    assert cert.floor == F(7, 20)
    assert cert.sampled_min >= F(7, 10)  # closed form: 7/10 + 3/10*|sum a|
    assert cert.sample_count == 200
    assert len(cert.split_log) == 15


def test_l1_certificate_rejects_forged_extraction():
    data = sliding_hump_extract(_blocks(100, 5, F(3, 10)), F(1, 20))
    # claim a later cut for the first member: the middle strip then holds mass
    forged = dataclasses.replace(data, cuts=(data.cuts[0] + 25,) + data.cuts[1:])
    with pytest.raises(CertificationError) as err:
        l1_lower_bound_certificate(forged, coefficient_samples(5, 10, seed=1))
    assert "middle strip" in str(err.value)


def test_l1_certificate_rejects_a_too_light_tail_naming_the_pick():
    # pick 1's middle strip is empty and its tail holds 1/2, below even
    # 1 - N - 2*eps = 4/5: the one tail-mass step must name it
    data = SlidingHumpData(
        epsilon=F(1, 10), n_value=F(0), alpha0=0, n_table=(), members=(0, 1), cuts=(0, 1),
        extracted=(unit_vector(0, 4), exact_vector([0, F(1, 2), 0, 0])),
    )
    with pytest.raises(CertificationError) as err:
        l1_lower_bound_certificate(data, coefficient_samples(2, 4, seed=0))
    assert str(err.value) == 'chain step "tail mass at least 1-N-eps" failed at pick 1'


def test_l1_certificate_rejects_nonunit_mass_samples():
    data = sliding_hump_extract(_blocks(100, 5, F(3, 10)), F(1, 20))
    with pytest.raises(DomainError):
        l1_lower_bound_certificate(data, [((1,) * 5, 2)])


@pytest.mark.parametrize(
    "bad",
    [
        ((1, 0, 0, 0), 1),         # one slot short
        ((1, 0, 0, 0, 0, 0), 1),   # one slot too many
        ((0, 0, 0, 0, 0), 0),      # zero total
        ((-1, 0, 0, 0, 0), -1),    # negative total
        ((1, -1, 0, 0, 0), 3),     # total is not the numerators' mass
        ((1, 1, 0, 0, 0), 1),
    ],
    ids=["short", "long", "zero-total", "negative-total", "mass-below-total", "mass-above-total"],
)
def test_l1_certificate_rejects_malformed_samples_naming_the_index(bad):
    data = sliding_hump_extract(_blocks(100, 5, F(3, 10)), F(1, 20))
    good = coefficient_samples(5, 4, seed=1)
    with pytest.raises(DomainError) as err:
        l1_lower_bound_certificate(data, good + [bad])
    assert "sample 4 " in str(err.value)


def test_l1_certificate_names_the_sample_below_the_constant(monkeypatch):
    # the chain makes a violation impossible, so plant a fault: every
    # product in the sample check loses 30%.  The unit vector still clears
    # 3/5 at 7/10; the balanced combination, exactly 7/10, drops to about 49/100.
    import oclab.certify as certify_mod

    monkeypatch.setattr(certify_mod, "mul", lambda a, b: a * b * 7 // 10)
    data = sliding_hump_extract(_blocks(100, 5, F(3, 10)), F(1, 20))
    with pytest.raises(CertificationError) as err:
        l1_lower_bound_certificate(data, [((1, 0, 0, 0, 0), 1), ((1, -1, 0, 0, 0), 2)])
    assert "combination 1 fell below" in str(err.value)


def test_coefficient_samples_exact_mass_and_vertices():
    samples = coefficient_samples(4, 30, seed=9)
    assert len(samples) == 30
    for nums, total in samples:
        assert all(isinstance(n, int) for n in nums)
        assert total > 0 and sum(abs(n) for n in nums) == total
    # the first 2m entries are the signed unit coefficient vectors
    assert samples[0] == ((1, 0, 0, 0), 1)
    assert samples[1] == ((-1, 0, 0, 0), 1)


@pytest.mark.parametrize("m, count", [(0, 4), (3, 0)])
def test_coefficient_samples_need_a_slot_and_a_sample(m, count):
    # m = 0 would draw forever; count = 0 would still give the 2m unit vectors
    with pytest.raises(DomainError, match=f"got m={m}, count={count}"):
        coefficient_samples(m, count)


def _randrange_samples(m, count, seed):
    """coefficient_samples' random points, drawn with randrange."""
    from oclab.rng import rng_for

    rng = rng_for(seed, "l1-samples")
    samples = []
    while len(samples) < count:
        raw = [rng.randrange(0, 1 << 16) for _ in range(m)]
        total = sum(raw)
        if total == 0:
            continue
        signs = [1 if rng.getrandbits(1) else -1 for _ in range(m)]
        samples.append((tuple(s * r for s, r in zip(signs, raw)), total))
    return samples


@pytest.mark.parametrize("m, count, seed", [(1, 40, 0), (3, 200, 5), (8, 500, 11), (15, 3000, 2026)])
def test_coefficient_samples_draw_the_randrange_stream(m, count, seed):
    units = [(tuple(sgn if k == j else 0 for k in range(m)), 1) for j in range(m) for sgn in (1, -1)]
    assert coefficient_samples(m, count, seed) == units + _randrange_samples(m, count - 2 * m, seed)


def _oracle_min(data, samples):
    rows = [x.coords for x in data.extracted]
    return min(l1_combination_norm(rows, [F(n, total) for n in nums]) for nums, total in samples)


# sampled_min of the sliding-hump item at L = 200 and 3,000 samples, as the
# per-coordinate Fraction loop gave it before the exclusive/shared split
@pytest.mark.parametrize(
    "left_mass, m, seed, pinned",
    [
        (F(3, 10), 15, 2026, F(1817624, 2596535)),
        (F(0), 15, 7, F(1)),
        (F(3, 10), 8, 3, F(1014491, 1449215)),
        (F(0), 8, 11, F(1)),
    ],
    ids=["blocks-m15-seed2026", "disjoint-m15-seed7", "blocks-m8-seed3", "disjoint-m8-seed11"],
)
def test_l1_sampled_min_is_pinned_and_matches_the_oracle(left_mass, m, seed, pinned):
    data = sliding_hump_extract(block_family(200, m, left_mass), F(1, 20))
    samples = coefficient_samples(m, 3000, seed)
    assert l1_lower_bound_certificate(data, samples).sampled_min == pinned
    # the oracle's direct sum is slow: compare on a prefix that passes the
    # unit vectors and reaches the random draws
    head = samples[:120]
    assert l1_lower_bound_certificate(data, head).sampled_min == _oracle_min(data, head)


@st.composite
def _overlapping_humps(draw):
    """Chain-valid extractions whose supports overlap: coordinate 0 is
    nonzero in every member, coordinates 1 to base - 1 only in members 1
    and up, and member 1's middle strip covers member 0's tail, so
    member 0 has no exclusive coordinate.  The head's last columns repeat
    column base - 1, each with the same entries or with the same members
    and other entries."""
    m = draw(st.integers(2, 4))
    base = draw(st.integers(1, 3))
    same_entries = draw(st.lists(st.booleans(), max_size=3))
    head = base + len(same_entries)
    widths = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    starts = [head + sum(widths[:g]) for g in range(m)]
    L = head + sum(widths)
    small = st.integers(-2, 2)
    members = []
    for g in range(m):
        coords = [F(0)] * L
        coords[0] = F(draw(st.sampled_from([-3, -1, 2, 5])), 7)
        if g > 0:
            for i in range(1, base):
                coords[i] = F(draw(small), 7)
        for i, same in enumerate(same_entries, base):
            factor = 1 if same else draw(st.sampled_from([-2, -1, 2, 3]))
            coords[i] = coords[base - 1] * factor
        for i in range(head, starts[g]):
            r = draw(small)
            if g == 1 and r == 0:
                r = 1
            coords[i] = F(r, 40 * L)
        block = draw(st.lists(st.integers(1, 5), min_size=widths[g], max_size=widths[g]))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=widths[g], max_size=widths[g]))
        for k, (r, s) in enumerate(zip(block, signs)):
            coords[starts[g] + k] = F(s * r, 2 * sum(block))
        members.append(exact_vector(coords))
    # tails of mass 1/2 >= 1 - N - eps, middle strips of mass <= 1/20 <= eps
    data = SlidingHumpData(
        epsilon=F(1, 10), n_value=F(1, 2), alpha0=head, n_table=(),
        members=tuple(range(m)), cuts=tuple(starts), extracted=tuple(members),
    )
    drawn = draw(st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m), max_size=6))
    extra = []
    for nums in drawn:
        nums[draw(st.integers(0, m - 1))] = 0
        if any(nums):
            extra.append((tuple(nums), sum(map(abs, nums))))
    return data, coefficient_samples(m, 2 * m + 3, draw(st.integers(0, 99))) + extra


@given(case=_overlapping_humps())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_l1_sampled_min_equals_the_oracle_on_overlapping_supports(case):
    data, samples = case
    cert = l1_lower_bound_certificate(data, samples)
    assert cert.sampled_min == _oracle_min(data, samples)
    assert cert.sampled_min >= cert.constant


# ---------------------------------------------------------------------------
# decay bounds
# ---------------------------------------------------------------------------


def test_decay_bound_exact_value_small_k():
    import math

    expected = F(2 ** 10, math.factorial(10)) + F(2, 3) ** 10 * 10
    assert decay_bound(0, 10) == expected


def test_decay_bound_switches_to_float_beyond_limit():
    exact = decay_bound(0, 60)
    beyond = decay_bound(0, 61)
    assert isinstance(exact, F)
    assert isinstance(beyond, float)
    # the two lanes agree where they meet: the float bound at 61 is the closed form
    closed = F(2 ** 61, math.factorial(61)) + F(2, 3) ** 61 * 61
    assert abs(beyond - float(closed)) < 1e-12


def test_decay_check_reports_bounds_and_preconditions():
    model = IncompleteModel(F(1, 2), F(1, 2))
    _, seq = incomplete_space_sequence(model, 40)
    ks = [10, 20, 30, 40]
    rows = [seq[k] for k in ks] + [model.y_truncation(seq[0].dim)]
    e = nullspace_exact(Matrix.from_rows(rows))[0]
    e = exact_vector(c / dual_norm(e, NormTag.L1) for c in e.coords)
    report = annihilator_decay_check(model, seq, ks, [e], 3)
    decay = report.functionals[0]
    assert decay.functional_norm == 1
    assert decay.annihilates_target
    j0 = decay.entries[0]
    assert j0.bound_holds  # the j = 0 bound is unconditional here
    assert j0.forced_zero  # min bound 3.6e-6 < tau = 1e-3
    assert j0.min_bound < F(1, 1000)


def test_decay_check_rejects_non_annihilator():
    model = IncompleteModel(F(1, 2), F(1, 2))
    _, seq = incomplete_space_sequence(model, 10)
    bad = unit_vector(0, seq[0].dim)
    with pytest.raises(PreconditionError):
        annihilator_decay_check(model, seq, [5, 10], [bad], 1)


def test_decay_check_names_a_member_of_another_dimension():
    model = IncompleteModel(F(1, 2), F(1, 2))
    _, seq = incomplete_space_sequence(model, 10)
    dim = seq[0].dim
    e = unit_vector(dim - 1, dim)
    with pytest.raises(DomainError, match=f"dimension mismatch: {dim} vs {dim + 1}"):
        annihilator_decay_check(model, seq[:5] + [zero_vector(dim + 1)], [5], [e], 1)


@pytest.mark.parametrize("ks", [[-1, 2], [2, 5]])
def test_decay_check_refuses_a_subsequence_index_out_of_range(ks):
    # sequence[-1] would stand for the last member without a word
    model = IncompleteModel(F(1, 2), F(1, 2))
    _, seq = incomplete_space_sequence(model, 4)
    with pytest.raises(DomainError, match="subsequence index out of range"):
        annihilator_decay_check(model, seq, ks, [], 0)


def test_decay_bound_refuses_a_negative_index():
    # j = -1 would give 1/k! + k/2^k, which bounds no coordinate
    with pytest.raises(DomainError, match="nonnegative"):
        decay_bound(-1, 3)


def test_decay_check_records_mode_switch():
    model = IncompleteModel(F(1, 2), F(1, 2))
    _, seq = incomplete_space_sequence(model, 70)
    ks = [50, 70]
    rows = [seq[k] for k in ks] + [model.y_truncation(seq[0].dim)]
    e = nullspace_exact(Matrix.from_rows(rows))[0]
    report = annihilator_decay_check(model, seq, ks, [e], 0)
    assert report.mode_switch_ks == (70,)
    kinds = [type(b) for _, b in report.functionals[0].entries[0].bounds]
    assert kinds == [F, float]


# ---------------------------------------------------------------------------
# convergence probe
# ---------------------------------------------------------------------------


def test_probe_classifies_norm_convergence():
    model = IncompleteModel(F(1, 2), F(1, 2))
    _, seq = incomplete_space_sequence(model, 25)
    limit = model.y_truncation(seq[0].dim)
    report = weak_norm_convergence_probe(seq, limit, 8, 1e-6)
    assert report.classification == "norm-convergent"
    assert float(report.norm_gaps[-1]) < 1e-6


def test_probe_classifies_coordinatewise_only_basis():
    dim = 26
    seq = [unit_vector(k, dim) for k in range(dim)]
    report = weak_norm_convergence_probe(seq, zero_vector(dim), 8, 1e-6)
    assert report.classification == "coordinatewise-only"
    assert report.norm_gaps[-1] == 1  # exact
    assert report.coord_sups[-1] == 0


def test_probe_compares_the_exact_gap_with_tau():
    # the last gap is just below tau, but rounds to tau as a float
    model = IncompleteModel(F(1, 2), F(1, 2))
    _, seq = incomplete_space_sequence(model, 10)
    tau = 0.00099457511325436
    report = weak_norm_convergence_probe(seq, model.y_truncation(seq[0].dim), 4, tau)
    assert report.norm_gaps[-1] < tau and float(report.norm_gaps[-1]) == tau
    assert report.classification == "norm-convergent"


@given(
    st.integers(1, 6).flatmap(
        lambda dim: st.tuples(
            st.lists(st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 6)), min_size=dim, max_size=dim),
                     min_size=1, max_size=5),
            st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 6)), min_size=dim, max_size=dim),
            st.integers(1, dim),
        )
    ),
    st.sampled_from([1e-6, 0.25, 0.5, 1.0, 2.0, 3.5]),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_probe_equals_the_vector_difference_reference(members_limit_window, tau):
    """Window sups, L1 gaps and the class read from the integer forms equal
    those of the Fraction differences v - limit."""
    members, limit, window = members_limit_window
    diffs = [[a - b for a, b in zip(v, limit)] for v in members]
    sups = tuple(max(abs(x) for x in d[:window]) for d in diffs)
    gaps = tuple(sum(abs(x) for x in d) for d in diffs)
    kind = "norm-convergent" if gaps[-1] < tau else "coordinatewise-only" if sups[-1] < tau else "divergent"
    report = weak_norm_convergence_probe([exact_vector(v) for v in members], exact_vector(limit), window, tau)
    assert (report.coord_sups, report.norm_gaps, report.classification) == (sups, gaps, kind)


def test_probe_classifies_divergence():
    seq = [exact_vector([1, 1]), exact_vector([2, 2])]
    report = weak_norm_convergence_probe(seq, zero_vector(2), 2, 1e-6)
    assert report.classification == "divergent"


def test_probe_window_must_fit():
    with pytest.raises(DomainError):
        weak_norm_convergence_probe([exact_vector([1])], zero_vector(1), 2)


def test_probe_refuses_a_member_of_another_dimension():
    # zip would compare the member with the limit's first two coordinates only
    with pytest.raises(DomainError, match="dimension mismatch: 2 vs 3"):
        weak_norm_convergence_probe([exact_vector([1, 0])], zero_vector(3), 1)
