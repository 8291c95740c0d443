"""Independent oracles and deterministic generators used by the tests.

Everything here recomputes expectations from first principles (polynomial
expansion, literal definitions, product enumeration) so the library is
checked against a second route, not against itself.
"""

import itertools
from collections import Counter
from math import comb

import hypothesis.strategies as st

from extenders import FaceFamily, build_complex


def poly_h(f):
    """h-vector by expanding sum_j f_(j-1) (x-1)^(d+1-j) and reading the
    coefficient of x^(d+1-i)."""
    d = len(f) - 2
    coeffs = [0] * (d + 2)
    for j, fj in enumerate(f):
        n = d + 1 - j
        for m in range(n + 1):
            coeffs[m] += fj * comb(n, m) * (-1) ** (n - m)
    return tuple(coeffs[d + 1 - i] for i in range(d + 2))


def off_facet_family(marked, with_face=False):
    """The faces of a marked complex outside its specified facet, with the
    specified face adjoined when ``with_face``."""
    facet = marked.specified_facet
    faces = {f for f in marked.complex.faces if not f <= facet}
    if with_face:
        faces.add(marked.specified_face)
    return FaceFamily(frozenset(faces), marked.complex.dim)


def link_by_definition(c, s):
    """Literal link: faces disjoint from s whose union with s is a face."""
    s = frozenset(s)
    return {t for t in c.faces if not (t & s) and (t | s) in c.faces}


def facet_depth_by_definition(x, s):
    """Largest dimension of a face of ``x`` containing ``s``."""
    s = frozenset(s)
    return max(len(t) for t in x.faces if s <= t) - 1


def cube(bottom, top):
    gap = sorted(top - bottom)
    return {bottom | frozenset(sel)
            for r in range(len(gap) + 1)
            for sel in itertools.combinations(gap, r)}


def subsets_of(face):
    """All subsets of a face, the empty face included."""
    verts = sorted(face)
    for r in range(len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            yield frozenset(combo)


def _name(face):
    return "{" + ",".join(map(str, sorted(face))) + "}"


def verify_by_enumeration(members, pairs):
    """(valid, violation, stats) of a partitioning, on frozensets: each
    interval's faces are enumerated by size and then lexicographically,
    and the first violation is reported in the library's wording."""
    members = frozenset(members)
    stats = tuple(sorted(Counter((len(t), len(b)) for b, t in pairs).items()))

    def failed(violation):
        return False, violation, stats

    covered = set()
    for b, t in pairs:
        where = f"[{_name(b)}, {_name(t)}]"
        if t not in members:
            return failed(f"top of {where} is not a member")
        above = [m for m in members if t < m]
        if above:
            first = min(above, key=lambda f: (len(f), sorted(f)))
            return failed(f"top of {where} is not maximal: it is contained in "
                          f"{_name(first)}")
        gap = sorted(t - b)
        for r in range(len(gap) + 1):
            for sel in itertools.combinations(gap, r):
                s = b | frozenset(sel)
                if s not in members:
                    return failed(f"interval {where} requires {_name(s)}, "
                                  f"which is not a member")
                if s in covered:
                    return failed(f"face {_name(s)} is covered twice")
                covered.add(s)
    if covered != members:
        missing = min(members - covered, key=lambda f: (len(f), sorted(f)))
        return failed(f"face {_name(missing)} is not covered")
    return True, None, stats


def naive_find_partitioning(members):
    """Plain product enumeration over one candidate interval per maximal
    member; exponential but exhaustive, for cross-checking verdicts."""
    members = frozenset(frozenset(m) for m in members)
    if not members:
        return []
    tops = [m for m in members if not any(m < other for other in members)]
    options = []
    for top in tops:
        choices = []
        for r in range(len(top) + 1):
            for sel in itertools.combinations(sorted(top), r):
                bottom = frozenset(sel)
                block = cube(bottom, top)
                if block <= members:
                    choices.append((bottom, top, frozenset(block)))
        options.append(choices)
    for combo in itertools.product(*options):
        covered = set()
        ok = True
        for _, _, block in combo:
            if covered & block:
                ok = False
                break
            covered |= block
        if ok and covered == members:
            return [(b, t) for b, t, _ in combo]
    return None


def first_partitioning_by_backtracking(members):
    """The first partitioning of a plain backtracking search with no
    pruning, as (bottom, top) pairs in search order, or None.  Maximal
    members are taken by decreasing size, then lexicographically; each
    takes the lexicographically first bottom whose interval lies in the
    family and misses the intervals chosen so far."""
    members = frozenset(frozenset(m) for m in members)
    tops = sorted((m for m in members if not any(m < other for other in members)),
                  key=lambda f: (-len(f), sorted(f)))
    options = [[(bottom, cube(bottom, top)) for bottom in
                 sorted((frozenset(sel) for r in range(len(top) + 1)
                         for sel in itertools.combinations(sorted(top), r)), key=sorted)
                 if cube(bottom, top) <= members] for top in tops]

    def extend(i, covered):
        if i == len(tops):
            return [] if covered == members else None
        for bottom, block in options[i]:
            if not covered & block:
                rest = extend(i + 1, covered | block)
                if rest is not None:
                    return [(bottom, tops[i])] + rest
        return None

    return extend(0, frozenset())


def first_shelling_by_backtracking(big, small_faces=frozenset()):
    """The first relative shelling order of a plain backtracking search with
    no memo, or None.  Facets are tried by decreasing size, then
    lexicographically; a facet may come next when the faces it adds have a
    unique minimal element."""
    members = big.faces - small_faces
    facets = sorted((m for m in members if not any(m < other for other in members)),
                    key=lambda f: (-len(f), sorted(f)))

    def closure(facet):
        return {frozenset(sel) for r in range(len(facet) + 1)
                for sel in itertools.combinations(sorted(facet), r)}

    def extend(prefix, closed):
        if len(prefix) == len(facets):
            return tuple(prefix)
        for facet in facets:
            if facet in prefix:
                continue
            new = closure(facet) - closed
            if sum(1 for s in new if not any(t < s for t in new)) != 1:
                continue
            found = extend(prefix + [facet], closed | closure(facet))
            if found is not None:
                return found
        return None

    return extend([], set(small_faces))


def f_triangle_by_definition(members, d):
    """Literal f-triangle: for every member, scan all members for the
    largest one containing it."""
    rows = [[0] * (i + 1) for i in range(d + 2)]
    for s in members:
        depth_size = max(len(t) for t in members if s <= t)
        rows[depth_size][len(s)] += 1
    return tuple(tuple(row) for row in rows)


def is_partitioning_by_definition(members, pairs):
    """Whether the intervals are members-only, pairwise disjoint, cover the
    members exactly, and have maximal members as tops."""
    members = frozenset(members)
    covered = set()
    for bottom, top in pairs:
        if any(top < m for m in members):
            return False
        block = cube(bottom, top)
        if not block <= members or covered & block:
            return False
        covered |= block
    return covered == members


def layer_compatible_by_definition(members, d, pairs):
    """Layer by layer: for each r, the intervals whose tops have dimension
    at least r partition the members lying under a maximal member of
    dimension at least r."""
    members = frozenset(members)
    maximal = [m for m in members if not any(m < other for other in members)]
    for r in range(d + 1):
        big_tops = [m for m in maximal if len(m) - 1 >= r]
        layer = {s for s in members if any(s <= t for t in big_tops)}
        restriction = [(b, t) for b, t in pairs if len(t) - 1 >= r]
        if not is_partitioning_by_definition(layer, restriction):
            return False
    return True


def all_partitionings(members):
    """Every partitioning with one interval per maximal member, by plain
    backtracking over the bottoms of each top in turn."""
    members = frozenset(frozenset(m) for m in members)
    tops = sorted((m for m in members if not any(m < other for other in members)),
                  key=lambda m: (len(m), sorted(m)))

    def walk(idx, covered):
        if idx == len(tops):
            if covered == members:
                yield []
            return
        top = tops[idx]
        for r in range(len(top) + 1):
            for sel in itertools.combinations(sorted(top), r):
                block = cube(frozenset(sel), top)
                if block <= members and not block & covered:
                    for rest in walk(idx + 1, covered | block):
                        yield [(frozenset(sel), top)] + rest

    return walk(0, frozenset())


def boundary_matrix(rows, cols):
    """Dense matrix of the boundary map from the faces ``cols`` to the faces
    ``rows``: a column's face meets the row of the face left by deleting
    its vertex at sorted position pos, with sign (-1)**pos."""
    return [[(-1) ** sorted(c).index(min(c - r)) if r < c else 0 for c in cols]
            for r in rows]


def rank_fraction_free(matrix):
    """Rank over Q by dense fraction-free (Bareiss) elimination."""
    m = [list(row) for row in matrix]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pval = m[rank][col]
        for r in range(rank + 1, nrows):
            factor = m[r][col]
            row = m[r]
            lead = m[rank]
            for c in range(col, ncols):
                row[c] = (pval * row[c] - factor * lead[c]) // prev
        prev = pval
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_mod(matrix, p):
    """Rank over GF(p) by dense Gaussian elimination."""
    m = [[x % p for x in row] for row in matrix]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for r in range(rank + 1, nrows):
            factor = m[r][col]
            if factor:
                m[r] = [(x - factor * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


# Dense rank oracle by field characteristic.
DENSE_RANKS = {0: rank_fraction_free,
               2: lambda m: rank_mod(m, 2),
               3: lambda m: rank_mod(m, 3)}


def betti_by_elimination(faces, levels, rank):
    """Reduced Betti numbers, degrees -1 through levels - 2, of the chain
    complex spanned by ``faces`` (a complex's faces, or those of a pair's
    big complex outside the small one), ranking dense boundary matrices
    with ``rank``."""
    bases = [sorted((f for f in faces if len(f) == t), key=sorted)
             for t in range(levels)]
    ranks = [0] * (levels + 1)
    for t in range(1, levels):
        ranks[t] = rank(boundary_matrix(bases[t - 1], bases[t]))
    return tuple(len(bases[t]) - ranks[t] - ranks[t + 1] for t in range(levels))


def depth_and_witness_by_definition(c, rank):
    """Depth read literally from the link criterion: the least
    |s| + i + 1 over faces s and degrees 0 <= i < dim whose link has
    reduced homology in degree i, capped at dim + 1.  The witness is the
    first such (s, i) attaining it, faces by size and then
    lexicographically, degrees upward; None when the cap is the depth."""
    d = c.dim
    reached = []
    for s in sorted(c.faces, key=lambda f: (len(f), sorted(f))):
        lk = link_by_definition(c, s)
        betti = betti_by_elimination(lk, max(len(t) for t in lk) + 1, rank)
        reached += [(len(s) + i + 1, s, i)
                    for i in range(d) if i + 1 < len(betti) and betti[i + 1]]
    value = min([d + 1] + [r for r, _, _ in reached])
    if value > d:
        return value, None
    return value, next((s, i) for r, s, i in reached if r == value)


def relative_cm_by_definition(big, small, rank):
    """Relative Cohen-Macaulayness read literally: for every face s of big,
    the link of s in big, minus the link of s in small when s is a face of
    small, has reduced homology only in degree dim(big) - |s|."""
    d = big.dim
    for s in big.faces:
        lk = link_by_definition(big, s)
        if s in small.faces:
            lk -= link_by_definition(small, s)
        betti = betti_by_elimination(lk, max(map(len, lk), default=0) + 1, rank)
        if any(b and len(s) + idx - 1 != d for idx, b in enumerate(betti)):
            return False
    return True


def euler_from_f(f):
    """Reduced Euler characteristic: alternating sum of the face counts."""
    return sum((-1) ** (size - 1) * f[size] for size in range(len(f)))


def euler_from_betti(betti):
    return sum((-1) ** (idx - 1) * b for idx, b in enumerate(betti))


def random_pure_complex(rng, max_dim=2, max_faces=12, labels=6):
    while True:
        d = rng.randint(0, max_dim)
        n_facets = rng.randint(1, 4)
        facets = [frozenset(rng.sample(range(1, labels + 1), d + 1))
                  for _ in range(n_facets)]
        c = build_complex(facets)
        if 0 < len(c.faces) <= max_faces:
            return c


def random_nonpure_complex(rng, max_faces=12, labels=6):
    while True:
        n_facets = rng.randint(2, 4)
        facets = [frozenset(rng.sample(range(1, labels + 1), rng.randint(1, 3)))
                  for _ in range(n_facets)]
        c = build_complex(facets)
        if 0 < len(c.faces) <= max_faces and not c.is_pure:
            return c


@st.composite
def pure_complexes(draw, max_dim=2, max_facets=3, labels=6):
    d = draw(st.integers(0, max_dim))
    facet = st.frozensets(st.integers(1, labels), min_size=d + 1, max_size=d + 1)
    return build_complex(draw(st.lists(facet, min_size=1, max_size=max_facets)))


@st.composite
def cycles_with_faces(draw, labels=7):
    """An n-cycle of edges (n = 3-5) on 1..n plus one or two random small
    faces; nonpure, so its partitionings are often not layer-compatible."""
    n = draw(st.integers(3, 5))
    cycle = [[i, i % n + 1] for i in range(1, n + 1)]
    face = st.frozensets(st.integers(1, labels), min_size=1, max_size=3)
    return build_complex(cycle + draw(st.lists(face, min_size=1, max_size=2)))


@st.composite
def small_complexes(draw, labels=5, max_facets=4, max_size=3, min_facets=0):
    facet = st.frozensets(st.integers(1, labels), min_size=1, max_size=max_size)
    return build_complex(draw(st.lists(facet, min_size=min_facets,
                                       max_size=max_facets)))


@st.composite
def complex_pairs(draw, labels=5, max_size=3):
    """A nonvoid complex from ``small_complexes`` and the subcomplex that
    some of its faces generate (possibly void or just the empty face)."""
    big = draw(small_complexes(labels=labels, max_size=max_size, min_facets=1))
    faces = sorted(big.faces, key=lambda f: (len(f), sorted(f)))
    return big, build_complex(draw(st.lists(st.sampled_from(faces), max_size=3)))
