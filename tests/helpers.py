"""Helpers that several test modules share.

Unlike :mod:`oracles`, these call the library: they replay its pivot logs
through the verifier, extend its integer complements and build its vectors.
"""

import json
from fractions import Fraction as F

from oclab.linalg import _complement, _extend, exact_vector
from oclab.serialize import canonical_json
from oclab.verify import replay_pivot_log


def replay(M, log, expected_rank=None):
    """The verifier's replay of ``log``, in its wire form, on M's coordinates."""
    return replay_pivot_log([v.coords for v in M.rows], json.loads(canonical_json(log)), expected_rank)


def prefix_state(vectors, d):
    """The integer complement of ``vectors`` in R^d, skipping dependent ones."""
    state = _complement(d)
    for v in vectors:
        state = _extend(state, v._ints[0]) or state
    return state


def blocks(L, m, left_mass):
    """m members of R^L: each spreads 1 - left_mass evenly over its own block
    and, when left_mass > 0, left_mass evenly over 3 shared leading coordinates."""
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
