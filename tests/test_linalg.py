import dataclasses
import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oclab.errors import CertificationError, DomainError, ModeError
from oclab.linalg import (
    Matrix,
    NormTag,
    PivotLog,
    Vector,
    det_exact,
    dual_norm,
    exact_vector,
    norm,
    norm_squared,
    null_vector,
    nullspace_exact,
    pairing,
    rank_exact,
    unit_vector,
    vandermonde_det,
    _complement,
    _diagonal_step,
    _exact_pivots,
    _extend,
    _has_zero_slot,
    _int_numerators,
    _pivots_mod_p,
    _prefix_walk,
    _slot_masks,
)
from oclab.serialize import canonical_json
from oclab.verify import replay_pivot_log
from oclab.constructors import IncompleteModel, OpenBall, incomplete_space_sequence, klee_vectors

from helpers import replay
from oracles import (
    cofactor_det,
    pivots_mod_p_by_rows,
    rref_nullspace,
    rref_rank,
    termwise_l1,
    termwise_norm_squared,
    termwise_pairing,
    termwise_vandermonde,
    weighted_combination,
)


# ---------------------------------------------------------------------------
# vectors and norms
# ---------------------------------------------------------------------------


def test_vector_coercion_from_strings_and_ints():
    v = exact_vector(["1/2", 3, F(1, 7)])
    assert v.coords == (F(1, 2), F(3), F(1, 7))


def test_empty_vector_rejected():
    with pytest.raises(DomainError):
        exact_vector([])


def test_float_in_exact_mode_rejected():
    with pytest.raises(ModeError):
        Vector((0.5, 1.0))


def test_a_coordinate_that_is_not_a_number_is_rejected():
    # without the check the coordinate would be kept as None
    with pytest.raises(ModeError, match="cannot use NoneType"):
        Vector((1, None))


@pytest.mark.parametrize("i", [-1, 3])
def test_unit_index_outside_the_dimension_is_rejected(i):
    # without the check the result would be the zero vector
    with pytest.raises(DomainError, match=f"unit index {i} outside dimension 3"):
        unit_vector(i, 3)


def test_ragged_matrix_is_rejected():
    # zip would cut the longer row short in every kernel
    with pytest.raises(DomainError, match="ragged rows"):
        Matrix.from_rows([exact_vector([1, 2]), exact_vector([1, 2, 3])])


def test_norms_on_simple_vector():
    v = exact_vector([3, -4])
    assert norm(v, NormTag.L1) == 7
    assert norm(v, NormTag.LINF) == 4
    assert norm_squared(v) == 25


def test_open_ball_compares_squared_distances_at_the_boundary():
    u, origin = exact_vector(["3/5", "4/5"]), exact_vector([0, 0])
    assert not OpenBall(origin, F(1)).contains(u)  # by squares: 1 == 1, on the sphere
    assert not OpenBall(u, F(1)).contains(origin)
    assert not OpenBall(u, F(99, 100)).contains(origin)
    assert OpenBall(u, F(1001, 1000)).contains(origin)


def test_exact_l2_norm_raises_mode_error():
    v = exact_vector([3, -4])
    with pytest.raises(ModeError):
        norm(v, NormTag.L2)


def test_dual_norm_swaps_l1_and_linf():
    v = exact_vector([3, -4])
    assert dual_norm(v, NormTag.L1) == 4  # functional on an L1 space -> sup norm
    assert dual_norm(v, NormTag.LINF) == 7


def test_pairing_is_exact_dot_product():
    f = exact_vector([1, -2, 3])
    v = exact_vector(["1/2", "1/3", "1/6"])
    assert pairing(f, v) == F(1, 2) - F(2, 3) + F(1, 2)


# ---------------------------------------------------------------------------
# rank / determinant / pivot logs
# ---------------------------------------------------------------------------


def test_identity_rank_and_pivot_log():
    M = Matrix.from_rows([unit_vector(0, 2), unit_vector(1, 2)])
    result = rank_exact(M)
    assert result.rank == 2
    assert result.log.steps == ((0, 0, 1), (1, 1, 1))


def test_klee_family_rank_and_det():
    fam = klee_vectors([F(1, 10), F(1, 5), F(3, 10)], 3)
    M = Matrix.from_rows(list(fam))
    assert rank_exact(M).rank == 3
    assert det_exact(M) == F(1, 500)
    assert vandermonde_det([F(1, 10), F(1, 5), F(3, 10)]) == F(1, 500)


def test_rank_deficient_matrix():
    M = Matrix.from_rows([exact_vector([1, 2]), exact_vector([2, 4]), exact_vector([3, 6])])
    assert rank_exact(M).rank == 1
    assert det_exact(Matrix.from_rows([exact_vector([1, 2]), exact_vector([2, 4])])) == 0


def test_det_requires_square():
    M = Matrix.from_rows([exact_vector([1, 2, 3])])
    with pytest.raises(DomainError):
        det_exact(M)


def test_rank_matches_rref_oracle_and_transpose():
    rng = random.Random(20817)
    for _ in range(1000):
        m = rng.randrange(1, 8)
        n = rng.randrange(1, 8)
        rows = [
            [F(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(n)]
            for _ in range(m)
        ]
        M = Matrix.from_rows([exact_vector(r) for r in rows])
        r1 = rank_exact(M).rank
        assert r1 == rref_rank(rows)
        transposed = Matrix.from_rows([exact_vector(c) for c in zip(*rows)])
        assert r1 == rank_exact(transposed).rank


def test_det_matches_cofactor_oracle():
    rng = random.Random(991)
    for _ in range(200):
        n = rng.randrange(1, 6)
        rows = [
            [F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        M = Matrix.from_rows([exact_vector(r) for r in rows])
        assert det_exact(M) == cofactor_det(rows)


def test_pivot_log_replay_accepts_genuine_runs():
    rng = random.Random(5150)
    for _ in range(300):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 11)
        rows = [
            [F(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(n)]
            for _ in range(m)
        ]
        if rng.random() < 0.5:  # rank-deficient: append a combination of two rows
            rows.append([a - 3 * b for a, b in zip(rows[0], rows[-1])])
        M = Matrix.from_rows([exact_vector(r) for r in rows])
        result = rank_exact(M)
        assert result.rank == rref_rank(rows)
        assert replay(M, result.log, result.rank) == result.rank


@pytest.mark.parametrize(
    "rows, scales, steps, det",
    [
        ([[0, 1], [1, 0]], (1, 1), ((1, 0, 1), (0, 1, 1)), F(-1)),
        ([[1, 2, 3], [2, 4, 7]], (1, 1), ((0, 0, 1), (1, 2, 1)), None),
        ([[0, 0, 1], [0, 2, 0], [3, 0, 0]], (1, 1, 1), ((2, 0, 3), (1, 1, 6), (0, 2, 6)), F(-6)),
        ([[1, F(1, 2)], [F(1, 3), 1]], (2, 3), ((0, 0, 2), (1, 1, 5)), F(5, 6)),
    ],
)
def test_pinned_pivot_logs(rows, scales, steps, det):
    # pivot rows, skipped columns, Bareiss pivots and determinant signs
    M = Matrix.from_rows([exact_vector(r) for r in rows])
    result = rank_exact(M)
    assert result.log.row_scales == scales
    assert result.log.steps == steps
    assert result.det == det
    assert replay(M, result.log, len(steps)) == len(steps)


def test_broken_complement_state_raises_certification_error():
    # pivot 2 does not divide the update (1*0 - 1*1) of coordinate 3
    state = (2, [0, 1], [(2, [1, 0]), (3, [0, 1])])
    with pytest.raises(CertificationError):
        _extend(state, (1, 1, 0, 0))


@st.composite
def _rows_and_subsets(draw):
    """Small integer rows in R^d and a list of index tuples over them: any
    order, mixed lengths, repeated tuples and repeated indices."""
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=6))
    index = st.integers(0, len(rows) - 1)
    subsets = draw(st.lists(st.lists(index, max_size=d + 1).map(tuple), max_size=12))
    return d, rows, subsets


@pytest.mark.parametrize("step", [_extend, _diagonal_step])
@given(case=_rows_and_subsets())
@settings(max_examples=150, deadline=None)
def test_prefix_walk_folds_each_subsets_rows_from_the_start(step, case):
    d, rows, subsets = case
    walked = []
    for subset, states in _prefix_walk(rows, subsets, _complement(d), step):
        folded = [_complement(d)]
        for i in subset:
            folded.append(None if folded[-1] is None else step(folded[-1], rows[i]))
        assert states == folded
        walked.append(subset)
    assert walked == subsets


@pytest.mark.parametrize("n, k", [(5, 0), (5, 1), (6, 3), (7, 5)])
def test_prefix_walk_steps_each_prefix_once_in_combinations_order(n, k):
    calls = []

    def step(state, row):
        calls.append(row)
        return state + (row,)

    subsets = list(itertools.combinations(range(n), k))
    for subset, states in _prefix_walk(range(n), subsets, (), step):
        assert states[-1] == subset
    assert len(calls) == len({sub[:t] for sub in subsets for t in range(1, k + 1)})


def test_pivot_log_replay_rejects_tampered_pivot():
    M = Matrix.from_rows([exact_vector([1, "1/2"]), exact_vector(["1/3", 1])])
    log = rank_exact(M).log
    steps = list(log.steps)
    row, col, piv = steps[0]
    steps[0] = (row, col, piv + 1)
    forged = PivotLog(log.shape, log.row_scales, tuple(steps))
    with pytest.raises(CertificationError):
        replay(M, forged)


def test_pivot_log_replay_rejects_wrong_rank_claim():
    M = Matrix.from_rows([exact_vector([1, 2]), exact_vector([2, 4])])
    log = rank_exact(M).log
    with pytest.raises(CertificationError):
        replay(M, log, expected_rank=2)


# each forgery of the wire-form log of [[1, 1/2], [1/3, 1]], whose row
# scales are (2, 3) and whose steps are (0, 0, 2) and (1, 1, 5)
@pytest.mark.parametrize(
    "forge, expected_rank, message",
    [
        (lambda log: {**log, "shape": [3, 2]}, None, "shape does not match the matrix"),
        (lambda log: {**log, "row_scales": [2]}, None, "wrong number of row scales"),
        (lambda log: {**log, "row_scales": [0, 3]}, None, "row scales must be positive integers"),
        (lambda log: {**log, "row_scales": [1, 3]}, None, "does not clear denominators"),
        (lambda log: {**log, "steps": [[1, 0, 2], [1, 1, 5]]}, None, r"position mismatch at step 0: log says \(1, 0\)"),
        (lambda log: {**log, "steps": [[0, 0, 2], [1, 1, 6]]}, None, "pivot value mismatch at step 1"),
        (lambda log: {**log, "steps": [[0, 0, 2]]}, None, "unlogged pivot at column 1"),
        (lambda log: {**log, "steps": [[0, 0, 2], [1, 1, 5], [1, 1, 5]]}, None, "more steps than the replay produced"),
        (lambda log: log, 1, "replayed rank 2 does not match expected 1"),
    ],
    ids=["shape", "scale-count", "scale-sign", "scale-fraction", "position", "pivot", "dropped", "extra", "rank"],
)
def test_pivot_log_replay_names_each_forgery(forge, expected_rank, message):
    M = Matrix.from_rows([exact_vector([1, "1/2"]), exact_vector(["1/3", 1])])
    rows, log = [v.coords for v in M.rows], json.loads(canonical_json(rank_exact(M).log))
    assert log["row_scales"] == [2, 3] and log["steps"] == [[0, 0, 2], [1, 1, 5]]
    assert replay_pivot_log(rows, log, 2) == 2
    with pytest.raises(CertificationError, match=message):
        replay_pivot_log(rows, forge(log), expected_rank)


# ---------------------------------------------------------------------------
# nullspace
# ---------------------------------------------------------------------------


def test_nullspace_of_coordinate_rows():
    M = Matrix.from_rows([unit_vector(0, 3), unit_vector(1, 3)])
    basis = nullspace_exact(M)
    assert len(basis) == 1
    assert basis[0].coords == (F(0), F(0), F(1))


def test_vector_is_its_coordinates():
    """The norm belongs to the space, not the vector: rows and their
    annihilator witness stack into one matrix."""
    assert [f.name for f in dataclasses.fields(Vector)] == ["coords"]
    rows = [exact_vector([1, 2, 3]), exact_vector([0, 1, 1])]
    witness = nullspace_exact(Matrix.from_rows(rows))[0]
    assert rank_exact(Matrix.from_rows(rows + [witness])).rank == 3


def test_nullspace_annihilates_and_rank_nullity():
    rng = random.Random(77)
    for _ in range(200):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        rows = [
            exact_vector([F(rng.randrange(-4, 5)) for _ in range(n)])
            for _ in range(m)
        ]
        M = Matrix.from_rows(rows)
        basis = nullspace_exact(M)
        assert rank_exact(M).rank + len(basis) == n
        for b in basis:
            for r in rows:
                assert pairing(b, r) == 0
        if basis:
            assert rank_exact(Matrix.from_rows(basis)).rank == len(basis)


def test_full_rank_square_has_trivial_nullspace():
    M = Matrix.from_rows([exact_vector([2, 1]), exact_vector([1, 1])])
    assert nullspace_exact(M) == []


# ---------------------------------------------------------------------------
# one null vector from the pivot block
# ---------------------------------------------------------------------------

P61 = (1 << 61) - 1


def _combination(weights, basis):
    n = basis[0].dim
    return tuple(sum((w * b.coords[k] for w, b in zip(weights, basis)), F(0)) for k in range(n))


def _incomplete_k28():
    """The incomplete K=28 matrix: g_6, ..., g_28 and y's truncation, 24
    rows over 98 columns."""
    model = IncompleteModel(F(1, 2), F(1, 2))
    _, sequence = incomplete_space_sequence(model, 28)
    return Matrix.from_rows([sequence[k] for k in range(6, 29)] + [model.y_truncation(sequence[0].dim)])


def test_null_vector_is_the_seeded_combination_of_the_basis():
    """The incomplete K=28 matrix: 24 rows, 98 columns, nullity 74."""
    M = _incomplete_k28()
    rng = random.Random(2026)
    weights = [rng.randrange(1, 17) for _ in range(M.ncols)]
    basis = nullspace_exact(M)
    assert len(basis) == 74
    assert null_vector(M, weights).coords == _combination(weights, basis)


def test_null_vector_first_weight_only_is_the_first_basis_vector():
    M = Matrix.from_rows([exact_vector([1, 2, 3, 4]), exact_vector([0, 1, 1, 5])])
    first = nullspace_exact(M)[0]
    assert null_vector(M, (1, 0, 0, 0)) == first
    assert null_vector(M, (1,)) == first  # missing weights count as 0


def test_null_vector_is_none_at_full_column_rank():
    M = Matrix.from_rows([exact_vector([2, 1]), exact_vector([1, 1]), exact_vector([3, 5])])
    assert null_vector(M, (1, 1)) is None
    assert null_vector(Matrix.from_rows([exact_vector([P61])]), (1,)) is None


def test_eliminations_leave_the_cached_row_scaling_as_it_was():
    # nullspace_exact and null_vector eliminate the integer rows each
    # vector scaled once; an elimination that edited one of them in place
    # would change every later answer about the same vectors
    rows = [[F(1, 2), F(1, 3), F(2)], [F(1), F(2, 3), F(4)], [F(3), F(-1, 5), F(0)]]

    def fresh():
        return Matrix.from_rows(exact_vector(r) for r in rows)

    M = fresh()
    before = [(list(r), s) for r, s in (v._ints for v in M.rows)]
    assert nullspace_exact(M) == nullspace_exact(fresh())
    assert null_vector(M, [3]) == null_vector(fresh(), [3])
    assert [(list(r), s) for r, s in (v._ints for v in M.rows)] == before
    assert rank_exact(M) == rank_exact(fresh())


def test_zero_weights_give_the_zero_vector_only_at_positive_nullity():
    """Mod p the row vanishes, so a zero solution passes every check; the
    exact pivots decide whether a null vector exists."""
    assert null_vector(Matrix.from_rows([exact_vector([P61])]), (0,)) is None
    assert null_vector(Matrix.from_rows([exact_vector([P61, 0])]), (0,)).coords == (F(0), F(0))


def test_null_vector_falls_back_when_the_prime_hides_rank():
    """Mod p the first row vanishes, so the block misses its pivot; the
    exact check of that row fails and the RREF basis decides."""
    M = Matrix.from_rows([exact_vector([P61, 0, 0]), exact_vector([0, 1, 0])])
    weights = (5, 7, 11)
    v = null_vector(M, weights)
    assert v.coords == _combination(weights, nullspace_exact(M)) == (F(0), F(0), F(5))


def test_null_vector_when_the_prime_moves_the_pivot_column():
    """Mod p the pivot is column 1, not column 0: another exact null vector."""
    M = Matrix.from_rows([exact_vector([P61, 1])])
    v = null_vector(M, (3,))
    assert v.coords == (F(3), F(-3 * P61))
    assert pairing(M.rows[0], v) == 0


_ENTRIES = st.one_of(st.integers(-3, 3), st.sampled_from([P61, -P61, 2 * P61, P61 + 1]))


@st.composite
def _matrices(draw):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = [draw(st.lists(_ENTRIES, min_size=n, max_size=n)) for _ in range(m)]
    if m > 1 and draw(st.booleans()):  # a dependent row
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    weights = draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))
    return Matrix.from_rows([exact_vector(r) for r in rows]), weights


@given(_matrices())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_null_vector_annihilates_every_row(case):
    M, weights = case
    v = null_vector(M, weights)
    if rank_exact(M).rank == M.ncols:
        assert v is None
        return
    assert any(v.coords)
    assert all(pairing(row, v) == 0 for row in M.rows)


@st.composite
def _integer_rows(draw):
    """Integer rows with entries in -3..3, +-p, 2p and p+1, some rows
    combinations of others, some columns zero, and m > n allowed."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    rows = [draw(st.lists(_ENTRIES, min_size=n, max_size=n)) for _ in range(m)]
    for t in range(1, m):
        if draw(st.booleans()):  # a dependent row
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            u, v = rows[draw(st.integers(0, t - 1))], rows[draw(st.integers(0, t - 1))]
            rows[t] = [a * x + b * y for x, y in zip(u, v)]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for row in rows:
            row[j] = 0
    return draw(st.permutations(rows)), n


@given(_integer_rows())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_columnwise_pivot_search_equals_the_row_reference(case):
    rows, n = case
    assert _pivots_mod_p(rows, n) == tuple(pivots_mod_p_by_rows(rows, n))


class _RowUpTo:
    """An integer row whose entries past column ``last`` raise when read."""

    def __init__(self, entries, last):
        self.entries, self.last = entries, last

    def __getitem__(self, j):
        if j > self.last:
            raise AssertionError(f"column {j} read past the last pivot {self.last}")
        return self.entries[j]


@pytest.mark.parametrize(
    "rows, last",
    [
        ([[0, 1, 5, 7], [0, 2, 3, 9]], 2),
        ([[P61, 1, 4, 0, 2], [0, 3, 1, 1, 5], [2 * P61, 0, 0, 8, 1]], 3),
    ],
    ids=["zero-first-column", "prime-multiples"],
)
def test_columnwise_pivot_search_reads_no_column_past_the_last_pivot(rows, last):
    guarded = [_RowUpTo(r, last) for r in rows]
    found = _pivots_mod_p(guarded, len(rows[0]))
    assert found == tuple(pivots_mod_p_by_rows(rows, len(rows[0])))
    assert found[0][-1] == last and found[2] == []


def test_incomplete_pivot_search_stops_at_its_24th_column():
    """The incomplete K=28 matrix: 24 rows, 98 columns, pivots 0 to 23."""
    rows = [v._ints[0] for v in _incomplete_k28().rows]
    found = _pivots_mod_p([_RowUpTo(r, 23) for r in rows], 98)
    assert found == tuple(pivots_mod_p_by_rows(rows, 98)) == (list(range(24)), list(range(24)), [])


def _drop_last_pivot(pivots, pivot_rows, *rest):
    """A pivot search that missed its last pivot, as if the prime hid it."""
    if rest:
        return pivots[:-1], pivot_rows[:-1], sorted(rest[0] + pivot_rows[-1:])
    return pivots[:-1], pivot_rows[:-1]


def test_a_singular_pivot_block_raises_in_the_incomplete_run(monkeypatch):
    """A pivot search that repeats a row hands the block solve a singular
    block; the run refuses it rather than solve it."""
    import oclab.linalg as linalg_mod
    from oclab.harness import run_scenario

    search = linalg_mod._pivots_mod_p

    def repeated_row(rows, ncols):
        pivots, pivot_rows, rest = search(rows, ncols)
        return pivots, pivot_rows[:-1] + pivot_rows[:1], rest

    monkeypatch.setattr(linalg_mod, "_pivots_mod_p", repeated_row)
    with pytest.raises(CertificationError, match="scenario 'incomplete': the pivot block is singular over Q"):
        run_scenario("incomplete", {"K": "14", "ks": "6,10,14", "j_max": "2"})


def test_exact_pivots_that_miss_the_rank_raise_in_the_incomplete_run(monkeypatch):
    """Mod p the last pivot is missed, so the incomplete run falls back to
    the exact pivots; when those miss it too, the dropped row fails and
    the run raises rather than return a vector that fails it."""
    import oclab.linalg as linalg_mod
    from oclab.harness import run_scenario

    search, exact = linalg_mod._pivots_mod_p, linalg_mod._exact_pivots
    monkeypatch.setattr(linalg_mod, "_pivots_mod_p", lambda rows, n: _drop_last_pivot(*search(rows, n)))
    monkeypatch.setattr(linalg_mod, "_exact_pivots", lambda M: _drop_last_pivot(*exact(M)))
    with pytest.raises(CertificationError, match="scenario 'incomplete': the exact pivot block's solution fails a row"):
        run_scenario("incomplete", {"K": "14", "ks": "6,10,14", "j_max": "2"})


# ---------------------------------------------------------------------------
# vandermonde determinant
# ---------------------------------------------------------------------------


def test_vandermonde_singleton_is_one():
    assert vandermonde_det([F(1, 4)]) == 1


def test_vandermonde_empty_rejected():
    with pytest.raises(DomainError):
        vandermonde_det([])


def test_vandermonde_rejects_a_float_node_as_a_vector_does():
    with pytest.raises(ModeError):
        exact_vector([0.1])
    with pytest.raises(ModeError):
        vandermonde_det([0.1, 0.2])
    with pytest.raises(ModeError):
        vandermonde_det([F(1, 10), 0.2])
    assert vandermonde_det([1, "1/2"]) == F(-1, 2)


def test_vandermonde_matches_elimination_on_random_nodes():
    rng = random.Random(4242)
    for _ in range(500):
        size = rng.randrange(2, 10)
        nodes = []
        while len(nodes) < size:
            cand = F(rng.randrange(-30, 31), rng.randrange(1, 12))
            if cand not in nodes:
                nodes.append(cand)
        rows = [exact_vector([lam ** p for p in range(size)]) for lam in nodes]
        assert vandermonde_det(nodes) == det_exact(Matrix.from_rows(rows))


def test_vandermonde_zero_iff_repeated_node():
    assert vandermonde_det([F(1, 3), F(1, 3)]) == 0
    assert vandermonde_det([F(1, 3), F(1, 4)]) != 0


# ---------------------------------------------------------------------------
# integer kernels against per-term Fraction oracles
# ---------------------------------------------------------------------------

_BIG = 1 << 200

#: zeros, small rationals and rationals whose denominators exceed 2^200
_RATIONALS = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(F, st.integers(-(_BIG << 60), _BIG << 60), st.integers(_BIG + 1, _BIG << 60)),
)


@st.composite
def _vector_pairs(draw):
    n = draw(st.integers(1, 6))
    return [draw(st.lists(_RATIONALS, min_size=n, max_size=n)) for _ in range(2)]


@given(_vector_pairs())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_integer_sums_equal_the_termwise_fraction_sums(pair):
    f, v = pair
    fv, vv = exact_vector(f), exact_vector(v)
    for got, want in [
        (pairing(fv, vv), termwise_pairing(f, v)),
        (norm(vv, NormTag.L1), termwise_l1(v)),
        (norm_squared(vv), termwise_norm_squared(v)),
    ]:
        assert type(got) is F
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@given(st.lists(_RATIONALS, min_size=1, max_size=7).flatmap(
    lambda nodes: st.permutations(nodes + nodes[:1]).map(lambda rep: (nodes, rep))
))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_integer_vandermonde_equals_the_termwise_fraction_product(case):
    nodes, repeated = case
    for lams in (nodes, repeated, nodes[:1]):
        got, want = vandermonde_det(lams), termwise_vandermonde(lams)
        assert type(got) is F
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert vandermonde_det(repeated) == 0
    assert vandermonde_det(nodes[:1]) == 1


@given(_vector_pairs(), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_submatrix_rank_equals_the_rank_of_the_submatrix_built_alone(pair, data):
    rows = [exact_vector(r) for r in pair]
    rows += [exact_vector([a - b for a, b in zip(*pair)])]
    picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=4))
    shared = Matrix.from_rows([rows[i] for i in picks])
    alone = Matrix.from_rows([exact_vector(rows[i].coords) for i in picks])
    assert rank_exact(shared) == rank_exact(alone)
    assert rank_exact(shared) == rank_exact(shared)  # the rows' cached integer forms
    with pytest.raises(DomainError):
        Matrix.from_rows([])


@given(_vector_pairs())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_a_vector_caches_its_integer_form_outside_its_fields(pair):
    u, w = (exact_vector(c) for c in pair)
    twin = exact_vector(pair[0])
    assert "_ints" not in vars(u) and "_ints" not in vars(twin)
    assert u._ints == _int_numerators(u.coords)
    assert "_ints" in vars(u) and u._ints is u._ints  # computed once
    # equality, hash and bytes see the coordinates, cached or not
    assert u == twin and hash(u) == hash(twin)
    assert canonical_json(u) == canonical_json(twin)
    assert (u == w) == (u.coords == w.coords)
    assert pairing(u, w) == pairing(twin, exact_vector(pair[1]))


@st.composite
def _deficient_rows(draw):
    """m rows over n columns, the rows past the first r built from those r,
    so the rank is at most r < m; entries carry denominators above 2^200."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(2, 5))
    r = draw(st.integers(1, m - 1))
    base = [draw(st.lists(_RATIONALS, min_size=n, max_size=n)) for _ in range(r)]
    rows = list(base)
    for _ in range(m - r):
        coeffs = draw(st.lists(_RATIONALS, min_size=r, max_size=r))
        rows.append([sum((a * row[j] for a, row in zip(coeffs, base)), F(0)) for j in range(n)])
    return draw(st.permutations(rows))


@given(_deficient_rows())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_nullspace_equals_the_fraction_rref_nullspace(rows):
    basis = nullspace_exact(Matrix.from_rows([exact_vector(r) for r in rows]))
    assert [b.coords for b in basis] == rref_nullspace(rows)


@given(_deficient_rows(), st.lists(_RATIONALS, min_size=6, max_size=6))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_null_vector_with_fraction_weights_is_the_weighted_basis_combination(rows, weights):
    M = Matrix.from_rows([exact_vector(r) for r in rows])
    basis = rref_nullspace(rows)
    v = null_vector(M, weights)
    if not basis:
        assert v is None
        return
    assert v.coords == weighted_combination(weights, basis)


@st.composite
def _column_graded_rows(draw):
    """Rows like the incomplete model's: entry j of a row is a/(j+2)^k, so
    denominators vary widely from column to column, beside one geometric
    row c*rho^j shared across columns, with dependent rows mixed in."""
    n = draw(st.integers(2, 9))
    rows = []
    for _ in range(draw(st.integers(0, n - 1))):
        k = draw(st.integers(0, 12))
        rows.append([F(draw(st.integers(-9, 9)), (j + 2) ** k) for j in range(n)])
    c, rho = draw(st.builds(F, st.integers(1, 9), st.integers(1, 9))), F(draw(st.integers(1, 9)), 10)
    rows.append([c * rho ** j for j in range(n)])
    for _ in range(draw(st.integers(0, 2))):  # dependent rows
        u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        a, b = draw(_RATIONALS), draw(_RATIONALS)
        rows.append([a * x + b * y for x, y in zip(u, v)])
    weights = draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))
    return draw(st.permutations(rows)), weights


@given(_column_graded_rows())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_null_vector_with_column_graded_denominators_is_the_rref_combination(case):
    rows, weights = case
    basis = rref_nullspace(rows)
    v = null_vector(Matrix.from_rows([exact_vector(r) for r in rows]), weights)
    if not basis:
        assert v is None
        return
    assert v.coords == weighted_combination(weights, basis)


@given(st.one_of(_deficient_rows(), _column_graded_rows().map(lambda case: case[0])))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_exact_pivots_of_the_column_scaled_integers_are_the_logged_ones(rows):
    M = Matrix.from_rows([exact_vector(r) for r in rows])
    steps = rank_exact(M).log.steps
    assert _exact_pivots(M) == ([j for _, j, _ in steps], [i for i, _, _ in steps])


def test_null_vector_refuses_a_block_solution_that_fails_a_pivot_row(monkeypatch):
    """A wrong solution of the pivot block is a solver fault: null_vector
    raises rather than return it or fall back to the exact pivots."""
    import oclab.linalg as linalg_mod

    solve = linalg_mod._bareiss_solve

    def perturbed(block, b):
        det, sol = solve(block, b)
        return det, [sol[0] + 1] + sol[1:]

    def no_fallback(*args):
        raise AssertionError("null_vector fell back to the exact pivots")

    monkeypatch.setattr(linalg_mod, "_bareiss_solve", perturbed)
    monkeypatch.setattr(linalg_mod, "_exact_pivots", no_fallback)
    M = Matrix.from_rows([exact_vector(["1/2", "1/3", 1, 4]), exact_vector([0, "1/9", "2/5", 5])])
    with pytest.raises(CertificationError, match="pivot row"):
        null_vector(M, (1, 2))


@pytest.mark.parametrize("width", range(8, 72, 8))
def test_slot_masks_equal_the_geometric_series(width):
    # sum_s 2^(width*s) = (2^(width*count) - 1) / (2^width - 1)
    for count in range(601):
        ones = ((1 << (width * count)) - 1) // ((1 << width) - 1)
        assert _slot_masks(width, count) == (ones, ones << (width - 1))


def _decode(packed, width, count):
    """The signed values of ``packed``'s slots, read one slot at a time."""
    half = 1 << (width - 1)
    shifted = packed + sum(half << (width * s) for s in range(count))
    return [((shifted >> (width * s)) & ((1 << width) - 1)) - half for s in range(count)]


@st.composite
def _slots(draw):
    """A byte-aligned slot width and values below 2^(width-1) in absolute
    value, the first and last drawn from 0, the two extremes and the rest."""
    width = 8 * draw(st.integers(1, 6))
    top = (1 << (width - 1)) - 1
    value = st.integers(-top, top)
    edge = st.sampled_from([0, top, -top]) | value
    count = draw(st.integers(1, 12))
    if count == 1:
        return width, [draw(edge)]
    middle = draw(st.lists(value | st.just(0), min_size=count - 2, max_size=count - 2))
    return width, [draw(edge), *middle, draw(edge)]


@given(_slots())
@settings(max_examples=300, deadline=None)
def test_zero_slot_test_matches_a_slot_by_slot_decode(slots):
    width, values = slots
    count = len(values)
    packed = sum(v << (width * s) for s, v in enumerate(values))
    assert _decode(packed, width, count) == values
    assert _has_zero_slot(packed, _slot_masks(width, count)) == (0 in values)
