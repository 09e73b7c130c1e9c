"""Re-check written reports from their JSON alone, with the standard library.

``python -m oclab.verify REPORT.json ...`` exits 0 when every check holds,
4 when one fails or a report is malformed (naming the report and the
check), 5 when a report cannot be read, and 2 when none is named.  Every
report must re-dump to its own bytes; :data:`CHECKS` adds its scenario's
checks, each on the vectors parsed once.  A plain rational eliminator that
shares only the pivot-selection rule with the fraction-free kernel replays
pivot logs, so a bug in one cannot hide in the other.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import random
import sys
from fractions import Fraction
from pathlib import Path

from .errors import CertificationError

__all__ = ["eliminate", "replay_pivot_log", "CHECKS", "main"]

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
REPORT_KEYS = {"scenario", "params", "seed", "toolkit_version", "constructed", "certificates", "wall_time_s"}

# what a malformed report raises on its way through a check: text that is
# not JSON, a missing key, a wrong type or a coordinate such as "x" or "1/0"
_MALFORMED = (ArithmeticError, AttributeError, LookupError, TypeError, ValueError, RecursionError)


def _require(holds, message: str) -> None:
    if not holds:
        raise CertificationError(message)


def _stream(record: dict, label: str) -> random.Random:
    """The run's seeded stream ``label``: a Random seeded with the first 8
    bytes of sha256("{seed}:{label}"), read big-endian."""
    key = hashlib.sha256(f"{record['seed']}:{label}".encode("utf-8")).digest()[:8]
    return random.Random(int.from_bytes(key, "big"))


def _scaled(v) -> tuple:
    """The rational vector ``v`` as integers over its common denominator,
    and that denominator."""
    den = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v], den


def _fractions(vectors) -> list:
    return [[Fraction(c) for c in v] for v in vectors]


def eliminate(rows) -> list:
    """Eliminate ``rows`` in place, each column pivoting on the lowest unused
    nonzero row; return the ``(row, column, pivot)`` steps, one per rank."""
    steps, used = [], set()
    for col in range(len(rows[0]) if rows else 0):
        src = next((i for i, row in enumerate(rows) if i not in used and row[col]), None)
        if src is None:
            continue
        pivot = rows[src][col]
        for i, row in enumerate(rows):
            if i not in used and i != src and row[col]:
                factor = row[col] / pivot
                rows[i] = [a - factor * b for a, b in zip(row, rows[src])]
        used.add(src)
        steps.append((src, col, pivot))
    return steps


def replay_pivot_log(rows, log: dict, expected_rank=None) -> int:
    """Replay a wire-form pivot log on the rational ``rows`` and return the rank:
    each step sits where logged, and its pivot times the last logged one is logged."""
    m, n = len(rows), len(rows[0]) if rows else 0
    _require(log["shape"] == [m, n], "pivot log shape does not match the matrix")
    _require(len(log["row_scales"]) == m, "pivot log carries the wrong number of row scales")
    scaled = []
    for row, scale in zip(rows, log["row_scales"]):
        _require(type(scale) is int and scale > 0, "row scales must be positive integers")
        scaled.append([c * scale for c in row])
        _require(all(x.denominator == 1 for x in scaled[-1]), "logged row scale does not clear denominators")
    replayed, logged = eliminate(scaled), log["steps"]
    previous = 1
    for k, ((src, col, pivot), (lrow, lcol, lpiv)) in enumerate(zip(replayed, logged)):
        where = f"log says ({lrow}, {lcol}), replay finds ({src}, {col})"
        _require((lrow, lcol) == (src, col), f"pivot position mismatch at step {k}: {where}")
        _require(pivot * previous == Fraction(lpiv), f"pivot value mismatch at step {k}")
        previous = Fraction(lpiv)
    if len(replayed) > len(logged):
        raise CertificationError(f"unlogged pivot at column {replayed[len(logged)][1]}")
    _require(len(replayed) == len(logged), "log contains more steps than the replay produced")
    rank = len(replayed)
    _require(expected_rank in (None, rank), f"replayed rank {rank} does not match expected {expected_rank}")
    return rank


def check_canonical(record: dict, text: str) -> None:
    """The report re-dumps to its own bytes, and ``certificate_refs`` hash its certificates."""
    _require(set(record) == REPORT_KEYS, f"the report's keys are not {sorted(REPORT_KEYS)}")
    _require(text == _CANONICAL.encode(record) + "\n", "the report does not re-dump to its bytes")
    certs = record["certificates"]
    refs = [hashlib.sha256(_CANONICAL.encode(c).encode("utf-8")).hexdigest() for c in certs]
    _require(certs and record["constructed"]["certificate_refs"] == refs, "certificate_refs do not match")


def check_annihilator(record: dict, vectors: list) -> None:
    """The incomplete annihilator kills every g_k with k in ks and the
    truncation of y_n = c * rho^n, and its largest |coordinate| is 1."""
    params, built = record["params"], record["constructed"]
    c, rho = Fraction(params["c"]), Fraction(params["rho"])
    e_star = [Fraction(x) for x in built["annihilator"]]
    y = [c * rho**n for n in range(len(e_star))]
    ks = [int(k) for k in params["ks"].split(",")]
    for name, row in [(f"g_{k}", vectors[k]) for k in ks] + [("y", y)]:
        _require(len(row) == len(e_star), f"{name} has another dimension")
        _require(sum(a * b for a, b in zip(row, e_star)) == 0, f"the annihilator does not kill {name}")
    _require(max(abs(x) for x in e_star) == 1, "the largest |coordinate| is not 1")


def _incomplete_bump(k: int, n: int) -> Fraction:
    return Fraction(1, (n + 2) ** k)


def _g_sequence(params: dict, K: int, bump) -> tuple:
    """tail(t) = c * rho^t / (1 - rho), the cutoffs k -> least t with tail(t) < 1/k!,
    and g_k = y_k + sum_{n<=k} bump(k, n) e_n for k = 0..K over the width max(cutoff(K), K+1),
    where y_k is y(n) = c * rho^n cut at cutoff(k)."""
    c, rho = Fraction(params["c"]), Fraction(params["rho"])

    def tail(t):
        return c * rho**t / (1 - rho)

    cutoffs, t = [], 0
    for k in range(K + 1):
        while tail(t) >= Fraction(1, math.factorial(k)):
            t += 1
        cutoffs.append(t)
    y = [c * rho**n for n in range(max(t, K + 1))]
    g = [[(x if n < cutoffs[k] else 0) + (bump(k, n) if n <= k else 0) for n, x in enumerate(y)]
         for k in range(K + 1)]
    return tail, cutoffs, y, g


def check_approximation_bounds(record: dict, vectors: list) -> None:
    """The vectors are g_0..g_K rebuilt from params, and for each k, g_k's distance to y,
    tail(w) beyond its width w included, and the bound tail(cutoff(k)) + (k+1)/2^k; the
    distance is at most the bound."""
    params = record["params"]
    K = max([params["K"]] + [int(k) for k in params["ks"].split(",")])
    tail, cutoffs, y, g = _g_sequence(params, K, _incomplete_bump)
    _require(vectors == g, f"the vectors are not g_0..g_{K}")
    certs = [cert for cert in record["certificates"] if cert["kind"] == "approximation-bound"]
    _require([cert["witness"]["k"] for cert in certs] == list(range(K + 1)),
             f"the approximation bounds are not one per g_k, k = 0..{K}")
    for k, (cert, g) in enumerate(zip(certs, vectors)):
        distance = sum(abs(a - x) for a, x in zip(y, g)) + tail(len(g))
        bound = tail(cutoffs[k]) + Fraction(k + 1, 2**k)
        _require(Fraction(cert["witness"]["distance"]) == distance, f"distance of g_{k} is not ||y - g_{k}||_1")
        _require(Fraction(cert["witness"]["bound"]) == bound, f"bound at k={k} is not tail(cutoff(k)) + (k+1)/2^k")
        _require(cert["verdict"] == "Holds" and distance <= bound, f"g_{k} lies beyond its bound")


def check_schedule(record: dict, vectors: list) -> None:
    """geometric-variant: the vectors are g_k = y_k + sum_{j<=k} lambda_k^(j+1) e_j for
    k = 0..K, rebuilt from params with lambda_n = 1/(n+2) (harmonic) or 1/2^(n+1) (dyadic);
    for each j <= j_max, the scaled errors tail(cutoff(n)) / lambda_n^j decrease strictly
    from their onset to n = K, where they lie below the threshold; and the onsets are the
    written ones."""
    params = record["params"]
    K, j_max = params["K"], params["j_max"]
    if params["schedule"] == "harmonic":
        lambdas = [Fraction(1, n + 2) for n in range(K + 1)]
    else:
        lambdas = [Fraction(1, 2 ** (n + 1)) for n in range(K + 1)]
    tail, cutoffs, _, g = _g_sequence(params, K, lambda k, j: lambdas[k] ** (j + 1))
    _require(vectors == g, f"the vectors are not g_0..g_{K} of the {params['schedule']} schedule")
    errors, threshold, onsets = [tail(t) for t in cutoffs], Fraction(params["threshold"]), []
    for j in range(j_max + 1):
        vals = [err / lam**j for err, lam in zip(errors, lambdas)]
        # the last n with vals[n-1] <= vals[n], from which they decrease strictly
        onsets.append(max((n for n in range(1, K + 1) if vals[n - 1] <= vals[n]), default=0))
        _require(onsets[-1] < K, f"the scaled errors still rise at n = {K} for j = {j}")
        _require(vals[K] < threshold, f"the scaled error at n = {K} for j = {j} is not below the threshold")
    (cert,) = record["certificates"]
    _require(cert["verdict"] == "Verified" and cert["witness"] == {"j_max": j_max, "onsets": onsets},
             f"the schedule certificate does not claim the onsets {onsets}")


def check_probe(record: dict, vectors: list) -> None:
    """The vectors are g_0..g_K (gk) or the unit basis e_0..e_K (basis), rebuilt from params;
    each member's sup deviation from the limit (y's truncation for gk, zero for basis) over
    the window and its L1 distance to it, and the class at tau."""
    params = record["params"]
    K, window, tau = params["K"], params["window"], params["tau"]
    if params["variant"] == "gk":
        _, _, limit, expected = _g_sequence(params, K, _incomplete_bump)
    else:
        limit, expected = [0] * (K + 1), [[int(n == k) for n in range(K + 1)] for k in range(K + 1)]
    _require(vectors == expected, f"the vectors are not the {params['variant']} sequence for K = {K}")
    diffs = [[abs(a - b) for a, b in zip(v, limit)] for v in vectors]
    sups, gaps = [max(x[:window]) for x in diffs], [sum(x) for x in diffs]
    (cert,) = record["certificates"]
    witness = cert["witness"]
    _require((witness["window"], witness["tau"]) == (window, tau), "the witness's window or tau is not the params'")
    _require([Fraction(x) for x in witness["coord_sups"]] == sups, "coord_sups are not the sups over the window")
    _require([Fraction(x) for x in witness["norm_gaps"]] == gaps, "norm_gaps are not the L1 distances to the limit")
    tau = Fraction(tau)
    kind = "norm-convergent" if gaps[-1] < tau else "coordinatewise-only" if sups[-1] < tau else "divergent"
    _require(witness["classification"] == cert["verdict"] == kind, f"the classification is not {kind}")


def check_escape(record: dict, vectors: list) -> None:
    """In escape mode, the plane (f0, f1, 1) through the first two points holds
    the points before the escapee, whose pairing with it is the written one."""
    if record["params"]["mode"] != "escape":
        return
    (u0, u1, u2), (v0, v1, v2) = vectors[:2]
    det = u0 * v1 - u1 * v0
    _require(det, "the first two points do not span a plane")
    plane = [(u1 * v2 - u2 * v1) / det, (u2 * v0 - u0 * v2) / det, Fraction(1)]
    pairings = [sum(a * b for a, b in zip(plane, x)) for x in vectors]
    (cert,) = record["certificates"]
    _require(cert["verdict"] == "Escape", "the verdict is not Escape")
    index, written = cert["witness"]["escape_index"], cert["witness"]["pairings"]
    _require(index >= 2 and not any(pairings[:index]), "a point before the escapee is off the plane")
    _require([Fraction(p) for p in written] == [pairings[index]], "the written pairing is not the escapee's")
    _require(pairings[index], "the escapee lies on the plane")


def check_separated(record: dict, vectors: list) -> None:
    """The separated family is d members of R^d, every pair lies above 1 - eps, and its
    members lie on the unit sphere (L1, Linf) or in the unit ball (L2); their rank d is
    the density certificate's replay in :func:`check_spot_density`, which runs next."""
    params = record["params"]
    lower, tag, d = 1 - Fraction(params["eps"]), params["tag"], params["d"]
    _require(len(vectors) == d and all(len(v) == d for v in vectors), f"the members are not {d} points of R^{d}")
    # each member as integers over its common denominator, so that u - v is
    # (a * dv - b * du) / (du * dv) and the bound is cross-multiplied
    ints = [_scaled(v) for v in vectors]
    ln, ld = lower.numerator, lower.denominator
    for (i, (us, du)), (j, (vs, dv)) in itertools.combinations(enumerate(ints), 2):
        diffs = [abs(a * dv - b * du) for a, b in zip(us, vs)]
        if tag == "L2":
            apart = sum(x * x for x in diffs) * ld * ld > (ln * du * dv) ** 2
        else:
            apart = (sum(diffs) if tag == "L1" else max(diffs)) * ld > ln * du * dv
        _require(apart, f"members {i} and {j} are within 1 - eps")
    for i, v in enumerate(vectors):
        if tag == "L2":
            _require(sum(x * x for x in v) <= 1, f"member {i} lies outside the unit ball")
        else:
            size = sum(map(abs, v)) if tag == "L1" else max(map(abs, v))
            _require(size == 1, f"member {i} has {tag} norm {size}, not 1")


def check_klee(record: dict, vectors: list) -> None:
    """The lambdas are distinct and the vectors are their points (1, l, ..., l^(d-1)),
    each subset is d increasing indices of the vectors, an exhaustive report certifies
    every d-subset in order, and every certificate is Full, as distinct nodes make every
    moment-curve d-subset nonsingular: its pivot log replays and gives both
    determinants of its subset."""
    params = record["params"]
    lambdas = [Fraction(x) for x in params["lambdas"].split(",")]
    n, d = len(vectors), params["d"]
    _require(len(set(lambdas)) == len(lambdas), "the lambdas are not distinct")
    curve = [[lam**i for i in range(d)] for lam in lambdas]
    _require(vectors == curve, "the vectors are not the lambdas' (1, l, ..., l^(d-1))")
    subsets = [cert["subset"] for cert in record["certificates"]]
    for sub in subsets:
        indices = len(sub) == d and all(type(i) is int and 0 <= i < n for i in sub)
        _require(indices and all(a < b for a, b in zip(sub, sub[1:])), f"subset {sub} is not {d} increasing indices below {n}")
    if params["subset_samples"] == 0:
        every = [list(sub) for sub in itertools.combinations(range(n), d)]
        _require(subsets == every, f"an exhaustive report does not certify the C({n}, {d}) subsets in order")
    for cert in record["certificates"]:
        sub, log, witness = cert["subset"], cert["pivot_log"], cert["witness"]
        _require(cert["verdict"] == "Full", f"certificate {sub} is not Full")
        try:
            replay_pivot_log([vectors[i] for i in sub], log, len(sub))
        except CertificationError as exc:
            raise CertificationError(f"certificate {sub}: {exc}") from None
        order = [step[0] for step in log["steps"]]
        odd = sum(a > b for a, b in itertools.combinations(order, 2)) % 2
        last = log["steps"][-1][2]
        det = Fraction(-last if odd else last, math.prod(log["row_scales"]))
        product = math.prod(b - a for a, b in itertools.combinations([lambdas[i] for i in sub], 2))
        _require(Fraction(witness["det_elimination"]) == det, f"certificate {sub}: det_elimination is not the last minor")
        _require(Fraction(witness["det_product"]) == product == det, f"certificate {sub}: det_product is not the product")


def _first_singular_subset(rows: list, d: int):
    """The first d-subset of the integer ``rows``, in combinations order,
    whose rows are dependent, or None.

    A depth-first walk keeps each prefix's rows in echelon form: a new row
    is cross-multiplied against each kept row at its pivot column, with no
    division, and divided by its content, so each prefix is reduced once.
    A prefix whose last row reduces to zero is reported as its first
    completion to d members.  At d-1 rows, back-substitution gives the
    integer normal of the prefix, and each last member is one dot product
    with it.
    """
    n = len(rows)

    def walk(subset, basis):
        start, stop = subset[-1] + 1 if subset else 0, n - d + len(subset) + 1
        if len(subset) == d - 1:
            free = min(set(range(d)) - {col for col, _ in basis})
            normal = [int(j == free) for j in range(d)]
            for col, e in reversed(basis):
                # scale by the pivot, then solve e . normal = 0 for the pivot coordinate
                dot = sum(map(operator.mul, e, normal))
                normal = [e[col] * x for x in normal]
                normal[col] = -dot
            dots = [sum(map(operator.mul, normal, row)) for row in rows[start:stop]]
            return subset + (start + dots.index(0),) if 0 in dots else None
        for i in range(start, stop):
            v = rows[i]
            for col, e in basis:
                c = v[col]
                if c:
                    p = e[col]
                    v = [p * a - c * b for a, b in zip(v, e)]
            col = next((j for j, x in enumerate(v) if x), None)
            if col is None:
                return subset + tuple(range(i, i + d - len(subset)))
            g = math.gcd(*v)
            found = walk(subset + (i,), basis + [(col, [x // g for x in v])])
            if found:
                return found
        return None

    return walk((), [])


def check_general_position(record: dict, vectors: list) -> None:
    """fd-dense: n vectors in R^d, every d of which are independent,
    re-decided in integers, and a sweep certificate that claims C(n, d)
    subsets (or the sampled count) and no failure."""
    params = record["params"]
    d, n = params["d"], params["n"]
    _require(len(vectors) == n and all(len(v) == d for v in vectors), f"the vectors are not {n} points of R^{d}")
    singular = _first_singular_subset([_scaled(v)[0] for v in vectors], d)
    _require(singular is None, f"subset {list(singular or ())} is singular")
    (sweep,) = [cert for cert in record["certificates"] if cert["kind"] == "subset-rank-sweep"]
    checked = params["subset_samples"] or math.comb(n, d)
    _require(sweep["verdict"] == "Full" and sweep["witness"] == {"subsets_checked": checked, "failures": []},
             f"the sweep certificate does not claim {checked} subsets and no failure")


def check_spot_density(record: dict, vectors: list) -> None:
    """fd-dense and separated: the one density certificate is Full on the
    subset 0..d-1, and its pivot log replays on the first d vectors with
    rank d."""
    d = record["params"]["d"]
    (cert,) = [cert for cert in record["certificates"] if cert["kind"] == "density"]
    _require(cert["verdict"] == "Full" and cert["subset"] == list(range(d)),
             f"the density certificate is not Full on the subset 0..{d - 1}")
    try:
        replay_pivot_log(vectors[:d], cert["pivot_log"], d)
    except CertificationError as exc:
        raise CertificationError(f"density certificate: {exc}") from None


def _fd_target_balls(record: dict, n: int) -> list:
    """The (centre, radius) of the first n fd-dense target balls, rebuilt
    from params and seed: with ``targets = auto`` each centre coordinate is
    one draw of randrange(-255, 256) / 256 from the seed's fd-targets
    stream and the radius is ``radius``; with ``targets = none`` every
    ball is the unit ball about the origin."""
    params = record["params"]
    d = params["d"]
    if params["targets"] == "none":
        return [([Fraction(0)] * d, Fraction(1))] * n
    rng, radius = _stream(record, "fd-targets"), Fraction(params["radius"])
    return [([Fraction(rng.randrange(-255, 256), 256) for _ in range(d)], radius) for _ in range(n)]


def check_ball_membership(record: dict, vectors: list) -> None:
    """fd-dense: one ball-membership certificate per vector, in order, each
    vector strictly inside its ball (||v - c||^2 < r^2), and each ball the
    one params and seed give."""
    balls = [cert for cert in record["certificates"] if cert["kind"] == "ball-membership"]
    _require([cert["witness"]["index"] for cert in balls] == list(range(len(vectors))),
             "the ball certificates are not one per vector, in order")
    for j, (v, cert, target) in enumerate(zip(vectors, balls, _fd_target_balls(record, len(vectors)))):
        center, radius = [Fraction(x) for x in cert["witness"]["center"]], Fraction(cert["witness"]["radius"])
        _require(len(center) == len(v), f"ball {j} has another dimension")
        inside = sum((a - c) ** 2 for a, c in zip(v, center)) < radius * radius
        _require(cert["verdict"] == "Inside" and inside, f"vector {j} lies outside its ball")
        _require((center, radius) == target, f"ball {j} is not the target ball params and seed give")


def check_split_log(record: dict, vectors: list) -> None:
    """Each pick's middle-strip gap and tail mass, from its cut and alpha0."""
    built = record["constructed"]
    alpha0, cuts = built["alpha0"], built["cuts"]
    (cert,) = record["certificates"]
    split_log = cert["witness"]["split_log"]
    _require(len(split_log) == len(vectors) == len(cuts), "one split entry per pick")
    for g, (entry, v, cut) in enumerate(zip(split_log, vectors, cuts)):
        x = [abs(c) for c in v]
        _require((entry["member"], entry["cut"]) == (built["members"][g], cut), f"pick {g} names another member or cut")
        _require(Fraction(entry["approximation_gap"]) == sum(x[alpha0:cut], Fraction(0)), f"gap of pick {g}")
        _require(Fraction(entry["tail_mass"]) == sum(x[max(alpha0, cut):], Fraction(0)), f"tail mass of pick {g}")


def check_samples(record: dict, vectors: list) -> None:
    """The seeded l1 samples' smallest norm is ``sampled_min``, at least 1 - N - 2*eps."""
    params, built = record["params"], record["constructed"]
    (cert,) = record["certificates"]
    witness, m, count = cert["witness"], len(vectors), params["samples"]
    # each sample as integer numerators over their total: the 2m signed unit vectors,
    # then seeded points: m draws below 2^16 (17-bit draws, those of 2^16 or more
    # rejected), the point drawn again if all are zero, then m sign bits
    samples = [([s if k == j else 0 for k in range(m)], 1) for j in range(m) for s in (1, -1)][:count]
    rng = _stream(record, "l1-samples")
    while len(samples) < count:
        raw = []
        while len(raw) < m:
            r = rng.getrandbits(17)
            if r < 1 << 16:
                raw.append(r)
        if any(raw):
            samples.append(([r if rng.getrandbits(1) else -r for r in raw], sum(raw)))
    # the members over one common denominator, each column as its nonzero (member, entry) pairs
    den = math.lcm(*(x.denominator for v in vectors for x in v))
    columns = [[(j, x.numerator * (den // x.denominator)) for j, x in enumerate(col) if x] for col in zip(*vectors)]
    norms = [Fraction(sum(abs(sum(coeffs[j] * x for j, x in col)) for col in columns), den * total)
             for coeffs, total in samples]
    constant = 1 - Fraction(built["n_value"]) - 2 * Fraction(params["eps"])
    sampled_min = Fraction(witness["sampled_min"])
    _require(witness["sample_count"] == count, "sample_count is not the configured samples")
    _require(sampled_min == min(norms), f"sampled_min is not the smallest sampled norm {min(norms)}")
    _require(Fraction(witness["constant"]) == constant, "constant is not 1 - N - 2*eps")
    _require(sampled_min >= constant, "sampled_min lies below the constant")


# the checks each scenario's reports get after check_canonical
CHECKS = {
    "klee": (check_klee,), "separated": (check_separated, check_spot_density),
    "incomplete": (check_approximation_bounds, check_annihilator),
    "sliding-hump": (check_split_log, check_samples), "cover": (check_escape,),
    "probe": (check_probe,), "fd-dense": (check_general_position, check_ball_membership, check_spot_density),
    "free-set": (), "geometric-variant": (check_schedule,),
}


def main(argv=None) -> int:
    """Verify each report named in ``argv``; return the exit code."""
    paths = sys.argv[1:] if argv is None else list(argv)
    if not paths:
        print("usage: python -m oclab.verify REPORT.json ...", file=sys.stderr)
        return 2
    code = 0
    for path in paths:
        name = check_canonical.__name__
        try:
            text = Path(path).read_bytes().decode("utf-8")
            record = json.loads(text)
            check_canonical(record, text)
            name = _fractions.__name__
            vectors = _fractions(record["constructed"]["vectors"])
            for check in CHECKS[record["scenario"]]:
                name = check.__name__
                check(record, vectors)
        except OSError as exc:
            print(f"error: cannot read report: {exc}", file=sys.stderr)
            code = 5
        except (CertificationError, *_MALFORMED) as exc:
            print(f"certification failure: {path}: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = max(code, 4)
    return code


if __name__ == "__main__":
    sys.exit(main())
