"""Independent oracles the tests check library results against.

Everything here is deliberately naive: cofactor expansion instead of
elimination, textbook normal equations instead of QR, bitmask
enumeration instead of greedy search, Fraction sums term by term and
Fraction row reduction instead of integers over a common denominator,
whole rows rewritten instead of one column at a time.  Slow is fine;
different is the point.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial


def cofactor_det(rows):
    """Determinant by recursive cofactor expansion on Fraction rows."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(rows[0][j]) * cofactor_det(minor)
    return total


def rref(rows):
    """Plain reduced row echelon form over Fractions, and its pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    if not m:
        return m, pivots
    nrows, ncols = len(m), len(m[0])
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        pivot = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
    return m, pivots


def rref_rank(rows):
    """Rank via plain reduced row echelon form over Fractions."""
    return len(rref(rows)[1])


def rref_nullspace(rows):
    """Nullspace basis read off the plain Fraction RREF: basis vector i is 1
    at the i-th free column, 0 at the other free ones."""
    m, pivots = rref(rows)
    ncols = len(rows[0])
    basis = []
    for free in (j for j in range(ncols) if j not in pivots):
        coords = [Fraction(0)] * ncols
        coords[free] = Fraction(1)
        for row, p in zip(m, pivots):
            coords[p] = -row[free]
        basis.append(tuple(coords))
    return basis


def weighted_combination(weights, basis):
    """sum_i weights[i] * basis[i], coordinate by coordinate in Fractions."""
    return tuple(
        sum((Fraction(w) * b[k] for w, b in zip(weights, basis)), Fraction(0))
        for k in range(len(basis[0]))
    )


def pivots_mod_p_by_rows(rows, ncols, prime=(1 << 61) - 1):
    """Pivot columns, pivot rows and left-over rows of integer rows mod
    ``prime``, reducing every entry up front and rewriting each remaining
    row across all columns at every pivot; the lowest unused row with a
    nonzero reduced entry pivots."""
    red = [[x % prime for x in row] for row in rows]
    pivots, pivot_rows = [], []
    rest = list(range(len(rows)))
    for col in range(ncols):
        if not rest:
            break
        k = next((k for k, i in enumerate(rest) if red[i][col]), None)
        if k is None:
            continue
        i_p = rest.pop(k)
        prow = red[i_p]
        inv = pow(prow[col], -1, prime)
        for i in rest:
            c = red[i][col]
            if c:
                f = c * inv % prime
                red[i] = [(x - f * y) % prime for x, y in zip(red[i], prow)]
        pivots.append(col)
        pivot_rows.append(i_p)
    return pivots, pivot_rows, rest


def termwise_pairing(f, v):
    """<f, v> as a running sum of Fraction products, one Fraction per term."""
    return sum((Fraction(a) * Fraction(b) for a, b in zip(f, v)), Fraction(0))


def termwise_l1(coords):
    return sum((abs(Fraction(c)) for c in coords), Fraction(0))


def termwise_norm_squared(coords):
    return sum((Fraction(c) * Fraction(c) for c in coords), Fraction(0))


def termwise_vandermonde(nodes):
    """prod_{i<j} (l_j - l_i) as a running product of Fraction factors."""
    out = Fraction(1)
    for j in range(len(nodes)):
        for i in range(j):
            out *= Fraction(nodes[j]) - Fraction(nodes[i])
    return out


def scan_cutoff(c, rho, k):
    """Smallest t with c * rho^t / (1 - rho) < 1/k!, scanning t up from 0
    with a fresh power at every step."""
    t = 0
    while c * rho ** t / (1 - rho) >= Fraction(1, factorial(k)):
        t += 1
    return t


def normal_eq_residual_sq(cols, b):
    """Least-squares residual squared from the normal equations, exact.

    cols: list of column vectors (Fractions), assumed independent.
    """
    k = len(cols)
    gram = [[sum(ci * cj for ci, cj in zip(cols[i], cols[j])) for j in range(k)] for i in range(k)]
    rhs = [sum(ci * bi for ci, bi in zip(cols[i], b)) for i in range(k)]
    aug = [gram[i] + [rhs[i]] for i in range(k)]
    # solve by Gaussian elimination with Fractions
    for i in range(k):
        pivot = next(r for r in range(i, k) if aug[r][i] != 0)
        aug[i], aug[pivot] = aug[pivot], aug[i]
        pv = aug[i][i]
        aug[i] = [x / pv for x in aug[i]]
        for r in range(k):
            if r != i and aug[r][i] != 0:
                f = aug[r][i]
                aug[r] = [a - f * c for a, c in zip(aug[r], aug[i])]
    x = [aug[i][k] for i in range(k)]
    resid = [bi - sum(cols[j][i] * x[j] for j in range(k)) for i, bi in enumerate(b)]
    return sum(r * r for r in resid)


def brute_force_max_free_set(n, f):
    """Largest free set by bitmask enumeration; n must stay small."""
    fsets = [frozenset(s) for s in f]
    best = 0
    for mask in range(1 << n):
        members = [a for a in range(n) if mask >> a & 1]
        ok = True
        for a in members:
            if (fsets[a] - {a}) & set(members):
                ok = False
                break
        if ok and len(members) > best:
            best = len(members)
    return best


def window_mass(coords, a, b):
    """L1 mass of the coordinates with index in [a, b)."""
    return sum((abs(c) for c in coords[a:b]), Fraction(0))


def l1_combination_norm(rows, coeffs):
    """L1 norm of sum_j coeffs[j] * rows[j], summed coordinate by coordinate."""
    acc = [Fraction(0)] * len(rows[0])
    for a, row in zip(coeffs, rows):
        for i, c in enumerate(row):
            if a and c:
                acc[i] += Fraction(a) * c
    return sum((abs(v) for v in acc), Fraction(0))


def prefix_min_table(members, length):
    """N_alpha for alpha in [0, length] as a plain double loop."""
    table = []
    for alpha in range(length + 1):
        table.append(min(sum(abs(c) for c in v[:alpha]) for v in members))
    return table


def sliding_hump_picks(members, eps):
    """The sliding-hump extraction from Fraction prefix masses summed term
    by term: (n_table, alpha0, picks, cuts), or "extraction" or "domain"
    for the error the extraction must raise.  ``members`` are coordinate
    lists of L1 unit vectors."""
    L = len(members[0])
    prefixes = []
    for coords in members:
        acc = Fraction(0)
        masses = [acc]
        for c in coords:
            acc += abs(c)
            masses.append(acc)
        prefixes.append(masses)
    n_table = [min(p[a] for p in prefixes) for a in range(L + 1)]
    # the onset of the longest constant run, the earliest on ties
    lengths = []
    for a in range(L + 1):
        b = a
        while b <= L and n_table[b] == n_table[a]:
            b += 1
        lengths.append(b - a)
    alpha0 = lengths.index(max(lengths))
    n_value = n_table[alpha0]
    if n_value == 1:
        return "extraction"
    if 1 - n_value - 2 * eps < (1 - n_value) / 2:
        return "domain"
    cut, picks, cuts = alpha0, [], []
    while cut <= L:
        admissible = [(p[cut], i) for i, p in enumerate(prefixes) if i not in picks and p[cut] <= n_value + eps]
        if not admissible:
            break
        i = min(admissible)[1]
        picks.append(i)
        cuts.append(cut)
        support = [a for a, c in enumerate(members[i]) if c]
        cut = max(cut + 1, support[-1] + 1) if support else cut + 1
    if not picks:
        return "extraction"
    return n_table, alpha0, picks, cuts


def subsets_of_size(n, k):
    return combinations(range(n), k)
