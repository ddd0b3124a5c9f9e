"""Seeded inputs.  The package sees only what these functions return.

Random inputs are drawn in fixed strata (strand count x crossing count
for braids, degree x vertex count for diagrams), so that another seed
changes which inputs are drawn but not how much work of each kind a
run does.
"""

from __future__ import annotations

import random

# (strands, crossings) strata of the braid closures; every stratum gets
# the same number of words.  The closure of a word on s strands with c
# crossings has a number of components of the parity of s - c, so a
# stratum holds knots or 3-component links only when c and s are of
# opposite parity.  (Even component counts are left out: their Jones
# polynomial lies in t^(1/2), which `jones` does not represent.)
CELLS = [(s, c) for s in (3, 4, 5) for c in range(6, 11) if (s - c) % 2]


def rng_for(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


def closure_components(strands: int, letters) -> int:
    """Number of components of the braid closure (cycles of the
    permutation the word induces on the strands)."""
    perm = list(range(strands))
    for x in letters:
        i = abs(x) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = set()
    cycles = 0
    for j in range(strands):
        if j not in seen:
            cycles += 1
            while j not in seen:
                seen.add(j)
                j = perm[j]
    return cycles


def braid_word(rng: random.Random, strands: int, crossings: int,
               components: int) -> tuple[int, ...]:
    """A word with every generator present (so the closure is not split)
    whose closure has the given number of components."""
    for _ in range(100000):
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                        for _ in range(crossings))
        if (len({abs(x) for x in letters}) == strands - 1
                and closure_components(strands, letters) == components):
            return letters
    raise RuntimeError(f"no {components}-component closure on {strands} "
                       f"strands with {crossings} crossings")


def braid_words(seed: int, purpose: str, cells, per_cell: int,
                components: int) -> list[tuple[int, tuple[int, ...]]]:
    rng = rng_for(seed, purpose)
    return [(s, braid_word(rng, s, c, components))
            for s, c in cells for _ in range(per_cell)]


def diagram_cells(degrees) -> list[tuple[int, int]]:
    """(degree, internal vertices) strata: every vertex count a diagram
    of the degree with at least two legs can have."""
    return [(d, t) for d in degrees for t in range(0, 2 * d - 1)]


def random_diagram(rng: random.Random, make, degree: int, vertices: int):
    """A random well-formed diagram with no isolated chord; `make(L, T,
    edges)` builds it and raises ValueError on a malformed one."""
    legs = 2 * degree - vertices
    for _ in range(100000):
        ends = list(range(legs + 3 * vertices))
        rng.shuffle(ends)
        edges = [(ends[2 * i], ends[2 * i + 1]) for i in range(len(ends) // 2)]
        if any(a < legs and b < legs
               and ((a + 1) % legs == b or (b + 1) % legs == a)
               for a, b in edges):
            continue
        try:
            return make(legs, vertices, edges)
        except ValueError:
            continue
    raise RuntimeError(f"no diagram of degree {degree} with {vertices} "
                       "vertices")


def random_diagrams(seed: int, purpose: str, make, cells, per_cell: int):
    rng = rng_for(seed, purpose)
    return [random_diagram(rng, make, d, t)
            for d, t in cells for _ in range(per_cell)]
