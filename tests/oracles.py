"""Independent brute-force oracles.

Everything here recomputes expected values by a different route than the
library under test: explicit enumeration, injective-map counting, integer
matrix powers, and degree-multiset counting.  Slow but trustworthy at desk
scale.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, isqrt
from typing import Sequence

import mpmath
from mpmath import mp, mpf

from regmatch.certified import _GUARD_BITS, Enclosure
from regmatch.errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    Graph6ParseError,
    NoGraphsError,
)
from regmatch.graphs import (
    _GENERATION_CAPS,
    Graph,
    _bits,
    _components,
    _induced_masks,
    canonical_form,
    complete,
)
from regmatch.minimax import _MAX_EXCHANGES, LambdaInterval, RemezResult
from regmatch.necklace import CriticalConstant, TransferMatrix, qd_recursive
from regmatch.polynomials import Poly, _horner, _poly_mul, count_distinct_real_roots
from regmatch.polytope import OddSetViolation, ThresholdReport


# ---------------------------------------------------------------------------
# Matchings

def brute_matching_counts(g: Graph) -> tuple[int, ...]:
    """m_k by explicit enumeration of all matchings."""
    edges = g.edges
    counts = [0] * (g.n // 2 + 1)

    def extend(start: int, used: int, size: int) -> None:
        counts[size] += 1
        for i in range(start, len(edges)):
            u, v = edges[i]
            bit = 1 << u | 1 << v
            if not used & bit:
                extend(i + 1, used | bit, size + 1)

    extend(0, 0, 0)
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def reference_matching_counts(g: Graph) -> tuple[int, ...]:
    """m_k by the vertex deletion recursion

        M(G) = M(G - u) + x * sum_{v ~ u} M(G - u - v)

    at a maximum-degree pivot, multiplied over connected components.  This
    is the recursion that matchpoly ran before its frontier DP, without the
    canonical-form memo: subgraphs are memoized within one call on their
    labeled adjacency masks, which keeps necklace covers of 60 vertices
    fast."""
    memo: dict[tuple[int, ...], list[int]] = {}

    def product(masks: tuple[int, ...]) -> list[int]:
        result = [1]
        for comp in _components(masks):
            result = _poly_mul(result, connected(_induced_masks(masks, comp)))
        return result

    def connected(masks: tuple[int, ...]) -> list[int]:
        n = len(masks)
        if n <= 2:
            return [1, 1] if n == 2 else [1]
        hit = memo.get(masks)
        if hit is not None:
            return hit
        pivot = max(range(n), key=lambda v: masks[v].bit_count())
        rest = [v for v in range(n) if v != pivot]
        coeffs = product(_induced_masks(masks, rest)) + [0]
        for w in _bits(masks[pivot]):
            sub = product(_induced_masks(masks, [v for v in rest if v != w]))
            coeffs += [0] * (len(sub) + 1 - len(coeffs))
            for i, c in enumerate(sub):
                coeffs[i + 1] += c
        while coeffs[-1] == 0:
            coeffs.pop()
        memo[masks] = coeffs
        return coeffs

    return tuple(product(g.adj))


def brute_max_matching(g: Graph) -> int:
    edges = g.edges
    best = 0

    def extend(start: int, used: int, size: int) -> None:
        nonlocal best
        best = max(best, size)
        for i in range(start, len(edges)):
            u, v = edges[i]
            bit = 1 << u | 1 << v
            if not used & bit:
                extend(i + 1, used | bit, size + 1)

    extend(0, 0, 0)
    return best


def complete_matching_count(n: int, r: int) -> int:
    """m_r(K_n) = n! / (2^r r! (n-2r)!)."""
    if 2 * r > n:
        return 0
    return factorial(n) // (2 ** r * factorial(r) * factorial(n - 2 * r))


def reference_exhaustive_odd_sets(g: Graph, d: int, x: Fraction):
    """Edmonds' odd-set conditions for the uniform vector x by Fraction
    arithmetic, with the proof's per-size edge caps written out in place:
    (odd_ok, cases_ok, subsets_checked, violations)."""
    n = g.n
    adj = g.adj
    odd_ok = True
    cases_ok = True
    checked = 0
    violations = []
    for mask in range(1, 1 << n):
        s = mask.bit_count()
        if s < 3 or s % 2 == 0:
            continue
        checked += 1
        edges = 0
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            edges += (adj[v] & mask & ~((low << 1) - 1)).bit_count()
        allowed = Fraction(s - 1, 2)
        if x * edges > allowed:
            odd_ok = False
            violations.append(OddSetViolation(
                tuple(i for i in range(n) if mask >> i & 1), edges, allowed))
        if s <= d - 1:
            cap = comb(s, 2)
        elif s == d + 1:
            cap = comb(d + 1, 2) - 1
        else:
            cap = d * s // 2
        if edges > cap:
            cases_ok = False
            violations.append(OddSetViolation(
                tuple(i for i in range(n) if mask >> i & 1), edges,
                Fraction(cap)))
    return odd_ok, cases_ok, checked, violations


# ---------------------------------------------------------------------------
# Subgraph counting via injective maps

def _aut_edge_count(n: int, edges: frozenset) -> int:
    count = 0
    for perm in itertools.permutations(range(n)):
        if all(frozenset((perm[u], perm[v])) in edges for u, v in
               (tuple(e) for e in edges)):
            count += 1
    return count


def brute_count_subgraph(g: Graph, h_n: int, h_edges: list[tuple[int, int]]) -> int:
    """Copies of H in G as subgraphs: injective edge-preserving maps / |Aut H|."""
    h_set = frozenset(frozenset(e) for e in h_edges)
    h_adj = [0] * h_n
    for u, v in h_edges:
        h_adj[u] |= 1 << v
        h_adj[v] |= 1 << u
    maps = 0

    def place(k: int, image: list[int], used: int) -> None:
        nonlocal maps
        if k == h_n:
            maps += 1
            return
        for w in range(g.n):
            if used >> w & 1:
                continue
            ok = True
            for j in range(k):
                if h_adj[k] >> j & 1 and not g.adj[w] >> image[j] & 1:
                    ok = False
                    break
            if ok:
                image.append(w)
                place(k + 1, image, used | 1 << w)
                image.pop()

    place(0, [], 0)
    aut = _aut_edge_count(h_n, h_set)
    assert maps % aut == 0
    return maps // aut


TRIANGLE = (3, [(0, 1), (1, 2), (0, 2)])
FOUR_CYCLE = (4, [(0, 1), (1, 2), (2, 3), (3, 0)])
FIVE_CYCLE = (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
DIAMOND = (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


# ---------------------------------------------------------------------------
# Walks

def count_simple_paths_from(g: Graph, root: int) -> int:
    """Simple paths starting at root, including the trivial one."""
    total = 0

    def extend(v: int, used: int) -> None:
        nonlocal total
        total += 1
        rest = g.adj[v] & ~used
        while rest:
            w = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            extend(w, used | 1 << w)

    extend(root, 1 << root)
    return total


def closed_walks_by_power(adj_lists: list[list[int]], root: int, length: int) -> int:
    """(A^length)[root][root] by repeated vector multiplication."""
    vec = [0] * len(adj_lists)
    vec[root] = 1
    for _ in range(length):
        nxt = [0] * len(adj_lists)
        for v, ws in enumerate(adj_lists):
            if vec[v]:
                for w in ws:
                    nxt[w] += vec[v]
        vec = nxt
    return vec[root]


def truncated_tree_adj(d: int, depth: int) -> list[list[int]]:
    """Adjacency lists of the d-regular tree truncated at the given depth
    (root has d children, every other internal vertex d-1)."""
    adj = [[]]
    frontier = [0]
    for level in range(depth):
        nxt = []
        for v in frontier:
            kids = d if level == 0 else d - 1
            for _ in range(kids):
                w = len(adj)
                adj.append([v])
                adj[v].append(w)
                nxt.append(w)
        frontier = nxt
    return adj


# ---------------------------------------------------------------------------
# Necklaces and critical constants

def reference_trace_power(tm: TransferMatrix, k: int) -> Poly:
    """trace(B^k) from k - 1 explicit products of the 2x2 polynomial
    matrix B = [[M(G-e), M(G-u)], [lam M(G-v), lam M(G-uv)]]."""
    x = Poly([0, 1])
    b = ((tm.minus_edge, tm.minus_u), (x * tm.minus_v, x * tm.minus_both))
    power = b
    for _ in range(k - 1):
        power = tuple(tuple(power[i][0] * b[0][j] + power[i][1] * b[1][j]
                            for j in range(2)) for i in range(2))
    return power[0][0] + power[1][1]


_DIVISOR_CAP = 10 ** 12  # reference_divisors gives up above it


def reference_divisors(n: int) -> list[int]:
    """Sorted positive divisors of |n| by trial division of every i up to
    sqrt(|n|); empty for 0 and above the divisor cap."""
    n = abs(n)
    if n == 0 or n > _DIVISOR_CAP:
        return []
    out = set()
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.add(i)
            out.add(n // i)
        i += 1
    return sorted(out)


def reference_critical_constant(d: int, width=Fraction(1, 10 ** 10)) -> CriticalConstant:
    """c_d by a generic rational-root search over every divisor pair of
    Q_d's end coefficients, then bisection, with every zero and sign test a
    Fraction evaluation of Q_d."""
    width = Fraction(width)
    q = qd_recursive(d)
    coeffs = list(q.coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    for p in reference_divisors(int(coeffs[0])):
        for den in reference_divisors(int(coeffs[-1])):
            if q(Fraction(p, den)) == 0:
                root = Fraction(p, den)
                return CriticalConstant(d, root, root, Fraction(0), Fraction(0), True)
    lo = Fraction(1, 1024)
    while q(lo) <= 0:
        if q(lo) == 0:
            return CriticalConstant(d, lo, lo, Fraction(0), Fraction(0), True)
        lo /= 2
    hi = Fraction(d)
    while q(hi) >= 0:
        if q(hi) == 0:
            return CriticalConstant(d, hi, hi, Fraction(0), Fraction(0), True)
        hi *= 2
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = q(mid)
        if v == 0:
            return CriticalConstant(d, mid, mid, Fraction(0), Fraction(0), True)
        if v > 0:
            lo = mid
        else:
            hi = mid
    return CriticalConstant(d, lo, hi, q(lo), q(hi), False)


# ---------------------------------------------------------------------------
# Labeled regular-graph counts

@lru_cache(maxsize=None)
def _labeled_seq_count(residuals: tuple[int, ...]) -> int:
    """Labeled graphs realizing the residual-degree multiset, counted by
    eliminating the first vertex and distributing its edges."""
    if not residuals:
        return 1
    r, rest = residuals[0], list(residuals[1:])
    if r == 0:
        return _labeled_seq_count(tuple(rest))
    if r > len(rest):
        return 0
    # group the remaining residuals by value
    values = sorted(set(rest))
    groups = [(v, rest.count(v)) for v in values]
    total = 0
    for pick in _distributions(groups, r):
        ways = 1
        nxt = []
        for (value, size), chosen in zip(groups, pick):
            if chosen and value == 0:
                ways = 0
                break
            ways *= comb(size, chosen)
            nxt.extend([value - 1] * chosen)
            nxt.extend([value] * (size - chosen))
        if ways:
            total += ways * _labeled_seq_count(tuple(sorted(nxt)))
    return total


def _distributions(groups, r):
    if not groups:
        if r == 0:
            yield ()
        return
    _, size = groups[0]
    for take in range(min(size, r) + 1):
        for tail in _distributions(groups[1:], r - take):
            yield (take,) + tail


def labeled_regular_count(n: int, d: int) -> int:
    """Number of labeled d-regular simple graphs on n vertices."""
    if n * d % 2:
        return 0
    return _labeled_seq_count(tuple([d] * n))


def labeled_connected_regular_count(n: int, d: int) -> int:
    """Connected labeled count via the standard component deconvolution:
    g_n = sum_k C(n-1, k-1) c_k g_{n-k}."""
    g = {m: labeled_regular_count(m, d) for m in range(n + 1)}
    c = {}
    for m in range(1, n + 1):
        total = g[m]
        for k in range(1, m):
            if k in c and c[k]:
                total -= comb(m - 1, k - 1) * c[k] * g[m - k]
        c[m] = total
    return c[n]


def labeled_regular_graphs(n: int, d: int):
    """Literal enumeration of labeled d-regular graphs as edge tuples.

    Vertices are completed in index order; only feasible for small n."""
    out = []
    adj = [0] * n
    deg = [0] * n

    def complete_vertex(v: int) -> None:
        if v == n:
            out.append(tuple(sorted(
                (i, j) for i in range(n) for j in range(i + 1, n)
                if adj[i] >> j & 1)))
            return
        need = d - deg[v]
        candidates = [w for w in range(v + 1, n) if deg[w] < d]
        if need == 0:
            complete_vertex(v + 1)
            return
        for chosen in itertools.combinations(candidates, need):
            for w in chosen:
                adj[v] |= 1 << w
                adj[w] |= 1 << v
                deg[v] += 1
                deg[w] += 1
            complete_vertex(v + 1)
            for w in chosen:
                adj[v] &= ~(1 << w)
                adj[w] &= ~(1 << v)
                deg[v] -= 1
                deg[w] -= 1

    complete_vertex(0)
    return out


def is_connected_edge_list(n: int, edges) -> bool:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    seen = 1
    stack = [0]
    while stack:
        v = stack.pop()
        rest = adj[v] & ~seen
        while rest:
            w = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            seen |= 1 << w
            stack.append(w)
    return seen == (1 << n) - 1


# ---------------------------------------------------------------------------
# All graphs up to isomorphism (small n), by vertex extension

def all_graphs_upto(nmax: int) -> dict[int, list[Graph]]:
    """Every graph on 1..nmax vertices up to isomorphism."""
    from regmatch.graphs import canonical_key

    levels = {1: [Graph(1, [])]}
    for n in range(2, nmax + 1):
        seen = {}
        for g in levels[n - 1]:
            for mask in range(1 << (n - 1)):
                edges = list(g.edges)
                for w in range(n - 1):
                    if mask >> w & 1:
                        edges.append((w, n - 1))
                cand = Graph(n, edges)
                seen.setdefault(canonical_key(cand), cand)
        levels[n] = [seen[k] for k in sorted(seen)]
    return levels


# ---------------------------------------------------------------------------
# Canonical search, as a per-node rescan of every vertex's key

def reference_canonical_order_masks(n: int, adj: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Return (canonical order, automorphism count) for adjacency masks.

    The list-based search that predates the cell layout in
    graphs._canonical_order_masks: every node rebuilds all n keys and scans
    them for the maximum.  Same tree, same order, same automorphism count.
    """
    if n == 0:
        return (), 1
    best_levels = [-1] * n
    state = {"order": None, "aut": 0}

    def dfs(placed: list[int], keys: list[int]) -> None:
        k = len(placed)
        if k == n:
            if state["order"] is None:
                state["order"] = tuple(placed)
            state["aut"] += 1
            return
        cur = max(keys[u] for u in range(n) if keys[u] >= 0)
        rec = best_levels[k]
        if cur < rec:
            return
        if cur > rec:
            best_levels[k] = cur
            for i in range(k + 1, n):
                best_levels[i] = -1
            state["order"] = None
            state["aut"] = 0
        for u in range(n):
            if keys[u] == cur:
                placed.append(u)
                nkeys = [(kv << 1 | (adj[w] >> u & 1)) if kv >= 0 else -1
                         for w, kv in enumerate(keys)]
                nkeys[u] = -1
                dfs(placed, nkeys)
                placed.pop()

    dfs([], [0] * n)
    return state["order"], state["aut"]


# ---------------------------------------------------------------------------
# Regular-graph generation, by canonicalizing every labeled leaf

# The generator that graphs.generate_connected_regular's orderly search
# replaced: it builds every discovery-ordered labeling (vertex 0's
# neighborhood is {1..d}; vertices are completed in index order and fresh
# vertices are taken as the next consecutive block of indices) and removes
# duplicates by canonical form.

def reference_generate_connected_regular(n: int, d: int) -> list[Graph]:
    """All connected d-regular graphs on n vertices, up to isomorphism,
    canonically labeled and sorted by canonical key."""
    if n < 1:
        raise NoGraphsError("need n >= 1")
    if n * d % 2:
        raise NoGraphsError(f"no {d}-regular graph on {n} vertices (n*d odd)")
    if d >= n:
        raise NoGraphsError(f"no simple {d}-regular graph on {n} vertices (d >= n)")
    if d == 0:
        return [Graph(1, [])] if n == 1 else []
    if d == 1:
        return [complete(2)] if n == 2 else []
    cap = _GENERATION_CAPS.get(d)
    if cap is None:
        raise CapacityError(f"degree {d} above generation cap (d <= 7)")
    if n > cap:
        raise CapacityError(f"n={n} above generation cap {cap} for d={d}")

    adj = [0] * n
    deg = [0] * n
    found: dict[str, Graph] = {}

    def complete_vertex(v: int, intro: int) -> None:
        if v == n:
            g = Graph(n, [(i, j) for i in range(n) for j in _bits(adj[i]) if j > i])
            h = canonical_form(g)
            found.setdefault(h._canon, h)
            return
        if deg[v] == 0 and v > 0:
            return  # vertices 0..v-1 are saturated: closed component
        need = d - deg[v]
        if need == 0:
            complete_vertex(v + 1, intro)
            return
        old = [w for w in range(v + 1, intro) if deg[w] < d]
        for j in range(min(need, n - intro), -1, -1):
            r = need - j
            if r > len(old):
                continue
            fresh = list(range(intro, intro + j))
            for chosen in combinations(old, r):
                ws = list(chosen) + fresh
                for w in ws:
                    adj[v] |= 1 << w
                    adj[w] |= 1 << v
                    deg[w] += 1
                deg[v] = d
                complete_vertex(v + 1, intro + j)
                for w in ws:
                    adj[v] &= ~(1 << w)
                    adj[w] &= ~(1 << v)
                    deg[w] -= 1
                deg[v] = d - need

    complete_vertex(0, 1)
    return [found[key] for key in sorted(found)]


def brute_completable(d: int, adj: Sequence[int], deg: Sequence[int]) -> bool:
    """True if edges between non-adjacent vertices can raise every degree to
    exactly d, found by trying every partner set for the first vertex below
    d in turn (no pruning)."""
    n = len(adj)
    adj, deg = list(adj), list(deg)

    def extend() -> bool:
        u = next((w for w in range(n) if deg[w] < d), None)
        if u is None:
            return True
        need = d - deg[u]
        free = [w for w in range(u + 1, n) if deg[w] < d and not adj[u] >> w & 1]
        for chosen in combinations(free, need):
            for w in chosen:
                adj[u] |= 1 << w
                adj[w] |= 1 << u
                deg[w] += 1
            deg[u] = d
            done = extend()
            deg[u] = d - need
            for w in chosen:
                adj[u] &= ~(1 << w)
                adj[w] &= ~(1 << u)
                deg[w] -= 1
            if done:
                return True
        return False

    return all(k <= d for k in deg) and extend()


# ---------------------------------------------------------------------------
# Remez extrema, by a sign scan of e' on a grid

def reference_error_extrema(coeffs, A) -> list:
    """Extremum candidates of e(x) = ln(1+x) - P(x) on [0, A]: both
    endpoints plus the sign changes of e'(x) = 1/(1+x) - P'(x) seen on a
    grid of 1,024 cells, each bisected to 1e-30 of a cell.

    The grid scan that minimax._error_extrema replaced; it misses any two
    sign changes that fall in one cell.  Call under the working mp precision.
    """
    samples = 1024
    dcoeffs = [j * coeffs[j] for j in range(1, len(coeffs))]

    def deriv(x):
        return 1 / (1 + x) - _horner(dcoeffs, x)

    points = [mpf(0)]
    step = A / samples
    prev_x, prev_s = mpf(0), deriv(mpf(0))
    for i in range(1, samples + 1):
        x = A * i / samples
        s = deriv(x)
        if s == 0:
            points.append(x)
        elif prev_s != 0 and mpmath.sign(s) != mpmath.sign(prev_s):
            lo, hi = prev_x, x
            flo = prev_s
            for _ in range(200):
                mid = (lo + hi) / 2
                fm = deriv(mid)
                if fm == 0:
                    break
                if mpmath.sign(fm) == mpmath.sign(flo):
                    lo, flo = mid, fm
                else:
                    hi = mid
                if hi - lo < step * mpf(10) ** (-30):
                    break
            points.append((lo + hi) / 2)
        prev_x, prev_s = x, s
    points.append(A)
    return points


def reference_lambda_interval(res, dps: int = 40) -> tuple:
    """(lam_min, lam_max), the positive roots of
    (3/2)c_3 l^3 + 27 c_4 l^4 - eps, each by 4 * dps bisection steps: lam_min
    on (peak 10^-25, peak), lam_max on (peak, hi) with hi doubled from the
    peak -c_3/(24 c_4) until the margin is no longer positive.

    The bisection that minimax.lambda_interval's Newton search replaced."""
    with mpmath.mp.workdps(dps):
        c3, c4, eps = res.coeffs[3], res.coeffs[4], res.epsilon

        def margin(lam):
            return mpf(3) / 2 * c3 * lam ** 3 + 27 * c4 * lam ** 4 - eps

        def bisect(lo, hi, increasing):
            for _ in range(dps * 4):
                mid = (lo + hi) / 2
                if (margin(mid) > 0) == increasing:
                    hi = mid
                else:
                    lo = mid
            return (lo + hi) / 2

        peak = -c3 / (24 * c4)
        hi = peak
        while margin(hi) > 0:
            hi *= 2
        return bisect(peak * mpf(10) ** (-25), peak, True), bisect(peak, hi, False)


# ---------------------------------------------------------------------------
# The Remez fit on mpf objects under mpmath's global precision, as minimax ran
# it before it called libmp's mpf_* functions at an explicit precision: the
# library must return these numbers bit for bit

def remez_poly_at(res: RemezResult, x) -> mpf:
    """The fit's polynomial at x, at the caller's working mp precision."""
    return _horner(res.coeffs, x)


def remez_error_at(res: RemezResult, x) -> mpf:
    """ln(1 + x) - P(x), at the caller's working mp precision."""
    return mpmath.log(1 + x) - remez_poly_at(res, x)


def threshold_margin_at_log(rep: ThresholdReport, log_lam) -> mpf:
    """gap * ln(lam) - ln(d+1) for ln(lam) = log_lam, at the caller's
    working mp precision: zero exactly at the threshold log-activity."""
    return mpf(rep.gap.numerator) / rep.gap.denominator * log_lam - mpmath.log(rep.d + 1)


def mpf_solve_reference_system(refs, degree):
    """P's coefficients and the level h with P(x_i) + (-1)^i h = ln(1 + x_i)
    at the m = degree + 2 references, by Gaussian elimination on lists.

    It runs 10 bits above the working precision with mpmath.lu_solve's
    steps: the pivot is the entry largest against the sum of its row's
    remaining entries, and a pivot or row sum at or below ||M||_1 eps makes
    the system singular.  So it returns lu_solve's numbers."""
    n = degree + 2
    rows = [[x ** j for j in range(degree + 1)] + [(-1) ** i, mpmath.log(1 + x)]
            for i, x in enumerate(refs)]
    with mp.extraprec(10):
        tol = max(mpmath.fsum(abs(row[j]) for row in rows) for j in range(n)) * mp.eps
        for j in range(n):
            sums = [mpmath.fsum(abs(v) for v in row[j:n]) for row in rows[j:]]
            if min(sums) <= tol:
                raise ConvergenceError("singular Remez reference system")
            p = max(range(j, n), key=lambda k: 1 / sums[k - j] * abs(rows[k][j]))
            rows[j], rows[p] = rows[p], rows[j]
            pivot = rows[j]
            if abs(pivot[j]) <= tol:
                raise ConvergenceError("singular Remez reference system")
            for row in rows[j + 1:]:
                f = row[j] / pivot[j]
                for k in range(j + 1, n + 1):
                    row[k] -= f * pivot[k]
        sol = [mpf(0)] * n
        for i in reversed(range(n)):
            row = rows[i]
            x = row[n]
            for k in range(i + 1, n):
                x -= row[k] * sol[k]
            sol[i] = x / row[i]
    return sol[:-1], sol[-1]


def _mpf_newton_root(coeffs, dcoeffs, a, b, rising, tiny, x=None):
    """The root in (a, b) of the polynomial `coeffs` (derivative `dcoeffs`),
    which rises through it if `rising` and falls otherwise, by Newton's
    method from x (default the midpoint) inside a shrinking sign bracket.

    A Newton step of at most `tiny` ends the search, and is taken even when
    it rounds onto the bracket's end.  Any other step that leaves the
    bracket, or a zero derivative, is replaced by bisection, which ends the
    search once the bracket is within 2 tiny."""
    if x is None or not a < x < b:
        x = (a + b) / 2
    for _ in range(mp.prec):
        fx = _horner(coeffs, x)
        if fx == 0:
            return x
        if (fx < 0) == rising:
            a = x
        else:
            b = x
        dfx = _horner(dcoeffs, x)
        if dfx:
            step = fx / dfx
            if abs(step) <= tiny:
                return min(max(x - step, a), b)
            x -= step
        if not a < x < b:
            x = (a + b) / 2
            if b - a <= 2 * tiny:
                return x
    return x


def _mpf_sign_change_roots(coeffs, lo, hi, guesses, level=0):
    """Ascending roots in (lo, hi) at which the polynomial changes sign.
    They are sought between the derivative's sign changes, found the same
    way: the polynomial is monotone there, so each piece holds at most one.
    guesses[level] holds the roots this call found, and its previous value,
    the roots of a nearby polynomial, gives each piece its start point."""
    if len(coeffs) < 2:
        return []
    dcoeffs = [j * coeffs[j] for j in range(1, len(coeffs))]
    ends = [lo] + _mpf_sign_change_roots(dcoeffs, lo, hi, guesses, level + 1) + [hi]
    tiny = (hi - lo) * mpf(2) ** (8 - mp.prec)
    starts = guesses.get(level, ())
    roots = []
    for a, b in zip(ends, ends[1:]):
        fa = _horner(coeffs, a)
        if fa * _horner(coeffs, b) >= 0:
            continue
        start = next((x for x in starts if a < x < b), None)
        roots.append(_mpf_newton_root(coeffs, dcoeffs, a, b, fa < 0, tiny, start))
    guesses[level] = roots
    return roots


def mpf_error_extrema(coeffs, A, guesses=None):
    """Extremum candidates of e(x) = ln(1+x) - P(x) on [0, A]: both
    endpoints plus the sign changes of e'(x) = q(x)/(1+x), where
    q(x) = 1 - (1+x)P'(x) has the degree of P.  `guesses` (see
    _mpf_sign_change_roots) warm-starts the search from an earlier
    call's roots and is updated with this call's."""
    dp = [j * coeffs[j] for j in range(1, len(coeffs))]
    q = [-r for r in _poly_mul([1, 1], dp)]
    q[0] += 1
    roots = _mpf_sign_change_roots(q, mpf(0), A, {} if guesses is None else guesses)
    return [mpf(0)] + roots + [A]


def _mpf_select_alternating(points, errs, m):
    """Collapse same-sign runs to their largest-|e| member, then pick the
    window of m consecutive alternating extrema with the largest smallest
    deviation."""
    merged = []
    for x, e in zip(points, errs):
        if merged and mpmath.sign(e) == mpmath.sign(merged[-1][1]):
            if abs(e) > abs(merged[-1][1]):
                merged[-1] = (x, e)
        else:
            merged.append((x, e))
    if len(merged) < m:
        return None
    best = None
    for start in range(len(merged) - m + 1):
        window = merged[start:start + m]
        low = min(abs(e) for _, e in window)
        if best is None or low > best[0]:
            best = (low, [x for x, _ in window])
    return best[1]


def mpf_remez_best_approx(A, degree: int = 4, dps: int = 40) -> RemezResult:
    """Deterministic minimax fit of ln(1+x) on [0, A].

    Convergence: the solved equioscillation level agrees with the measured
    maximum deviation to a relative tolerance of 10^(10 - dps), or to within
    10^(2 - dps) ln(1 + A), a hundred times the rounding noise left by the
    cancellation in ln(1+x) - P(x), whichever is looser.
    """
    if degree < 1:
        raise DomainError("need degree >= 1")
    with mp.workdps(dps):
        A = mpf(str(A)) if not isinstance(A, mpf) else A
        if A <= 0:
            raise DomainError("need A > 0")
        tol = mpf(10) ** (-dps + 10)
        floor = mpf(10) ** (2 - dps) * mpmath.log(1 + A)
        m = degree + 2
        refs = [A / 2 * (1 - mpmath.cos(mpmath.pi * i / (m - 1)))
                for i in range(m)]
        guesses = {}  # each exchange's roots start the next one's search
        for it in range(1, _MAX_EXCHANGES + 1):
            coeffs, level = mpf_solve_reference_system(refs, degree)
            points = mpf_error_extrema(coeffs, A, guesses)
            errs = [mpmath.log(1 + x) - _horner(coeffs, x) for x in points]
            maxdev = max(abs(e) for e in errs)
            selected = _mpf_select_alternating(points, errs, m)
            if selected is None:
                raise ConvergenceError("equioscillation structure lost")
            if maxdev - abs(level) <= max(tol * maxdev, floor):
                return RemezResult(A, degree, tuple(coeffs), abs(level),
                                   tuple(selected), it, maxdev, dps)
            refs = selected
        raise ConvergenceError(
            f"Remez did not converge in {_MAX_EXCHANGES} exchanges")


def mpf_lambda_interval(res: RemezResult) -> LambdaInterval:
    """The positive roots lam_min < lam_max of the quartic
    -eps + (3/2)c_3 l^3 + 27 c_4 l^4, by _mpf_newton_root on either
    side of its peak at -c_3/(24 c_4), where it must be positive; at the
    fit's precision."""
    if res.degree < 4:
        raise DomainError("interval derivation needs a degree-4 result")
    with mp.workdps(res.dps):
        c3, c4, eps = res.coeffs[3], res.coeffs[4], res.epsilon
        if not (c3 > 0 and c4 < 0 and eps > 0):
            raise DomainError("need c_3 > 0, c_4 < 0, eps > 0")
        quartic = [-eps, 0, 0, mpf(3) / 2 * c3, 27 * c4]
        dquartic = [0, 0, mpf(9) / 2 * c3, 108 * c4]
        peak = -c3 / (24 * c4)
        if _horner(quartic, peak) <= 0:
            raise DomainError(
                f"approximation error {mpmath.nstr(eps, 10)} too large: "
                "no positive solution interval")
        tiny = peak * mpf(2) ** (8 - mp.prec)
        lam_min = _mpf_newton_root(quartic, dquartic, peak * mpf(10) ** (-25),
                                         peak, True, tiny)
        # the quartic is -6 c_3 peak^3 - eps < 0 at 2 peak
        lam_max = _mpf_newton_root(quartic, dquartic, peak, 2 * peak, False, tiny)
        return LambdaInterval(res.A, lam_min, lam_max, res.A / 8)


# ---------------------------------------------------------------------------
# Polynomial division and the graph6 decoder

def reference_poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """a = q*b + r with deg r < deg b, over Fractions: each step strips the
    zero leading entries of the remainder and cancels its leading term.

    The loop that polynomials.poly_divmod's single pass replaced."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(c) for c in a.coeffs]
    q = [Fraction(0)] * max(len(r) - len(b.coeffs) + 1, 0)
    blead = Fraction(b.leading)
    db = b.degree
    while len(r) - 1 >= db and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        shift = len(r) - 1 - db
        factor = r[-1] / blead
        q[shift] = factor
        for i, c in enumerate(b.coeffs):
            r[shift + i] -= factor * c
        r.pop()
    return Poly(q), Poly(r)


def reference_parse_graph6(text: str, line: int | None = None) -> Graph:
    """One short-form graph6 line, decoded bit by bit with each data byte's
    range checked at every one of its bits, then the padding bits.

    The decoder that graphs.parse_graph6's single range check replaced."""
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6ParseError("non-ASCII character", exc.start, line) from None
    data = data.rstrip(b"\r\n")
    if not data:
        raise Graph6ParseError("empty input", 0, line)
    head = data[0]
    if head == 126:
        raise Graph6ParseError("long-form header (n > 62) unsupported", 0, line)
    if not 63 <= head <= 63 + 62:
        raise Graph6ParseError(f"invalid header byte {head}", 0, line)
    n = head - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[1:]
    if len(body) < nbytes:
        raise Graph6ParseError(
            f"truncated bit vector ({nbytes} data bytes expected, {len(body)} found)",
            len(data), line)
    if len(body) > nbytes:
        raise Graph6ParseError("trailing data after bit vector", 1 + nbytes, line)
    edges = []
    bit = 0
    for j in range(1, n):
        for i in range(j):
            byte = body[bit // 6]
            if not 63 <= byte <= 126:
                raise Graph6ParseError(f"invalid data byte {byte}", 1 + bit // 6, line)
            if (byte - 63) >> (5 - bit % 6) & 1:
                edges.append((i, j))
            bit += 1
    if nbytes:
        pad = 6 * nbytes - nbits
        if (body[-1] - 63) & ((1 << pad) - 1):
            raise Graph6ParseError("nonzero padding bits", nbytes, line)
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# The cubic inequality on the whole interval

COVER_END = Fraction("0.3575")


def cubic_whole_interval_verdict(g: Graph) -> str:
    """'equality', 'holds' or 'fails' for M_G(lam)^4 >= M_{K_4}(lam)^n on all
    of (0, 0.3575], for a cubic G on n vertices, decided once for the whole
    interval instead of point by point: P_G = M_G^4 - M_{K_4}^n is zero
    (G = K_4), or, with its largest power of lam divided out, it has no root
    in (0, 0.3575) and is positive at 0.3575.  P_G need not be squarefree."""
    diff = Poly(reference_matching_counts(g)) ** 4 - Poly([1, 6, 3]) ** g.n
    if diff.is_zero():
        return "equality"
    low = next(k for k, c in enumerate(diff.coeffs) if c)
    p = Poly(diff.coeffs[low:])
    if p(COVER_END) > 0 and count_distinct_real_roots(p, 0, COVER_END) == 0:
        return "holds"
    return "fails"


# ---------------------------------------------------------------------------
# Certified numerics through mpmath's iv context (the library calls libmp's
# interval functions directly, at an explicit precision)

@contextmanager
def iv_precision(bits: int):
    """mpmath's iv context at bits + _GUARD_BITS, restored on exit."""
    iv = mpmath.iv
    old = iv.prec
    iv.prec = bits + _GUARD_BITS
    try:
        yield iv
    finally:
        iv.prec = old


def iv_to_enclosure(x) -> Enclosure:
    lo, hi = x._mpi_
    return Enclosure(Fraction(*mpmath.libmp.to_rational(lo)),
                     Fraction(*mpmath.libmp.to_rational(hi)))


def iv_fraction(iv, q: Fraction):
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def reference_log_enclosure(q: Fraction, bits: int) -> Enclosure:
    """ln q for a positive rational q in mpmath's iv context."""
    if q == 1:
        return Enclosure.exact(0)
    with iv_precision(bits) as iv:
        return iv_to_enclosure(iv.log(iv_fraction(iv, q)))


def reference_sqrt_enclosure(q: Fraction, bits: int) -> Enclosure:
    """sqrt q for a non-negative rational q in mpmath's iv context; exact
    when q is the square of a rational."""
    a, b = isqrt(q.numerator), isqrt(q.denominator)
    if a * a == q.numerator and b * b == q.denominator:
        return Enclosure.exact(Fraction(a, b))
    with iv_precision(bits) as iv:
        return iv_to_enclosure(iv.sqrt(iv_fraction(iv, q)))


def reference_tree_closed_form(d: int, lam: Fraction, bits: int) -> Enclosure:
    """(1/2) ln S_d(lam) for the infinite d-regular tree in mpmath's iv
    context.  Raises mpmath's ComplexResult where the rounded enclosure of
    1 + 4(d-1)lam reaches below 0."""
    if lam == 0:
        return Enclosure.exact(0)
    with iv_precision(bits) as iv:
        lam_iv = iv_fraction(iv, lam)
        disc = 1 + 4 * (d - 1) * lam_iv
        eta = (iv.sqrt(disc) - 1) / (2 * (d - 1) * lam_iv)
        s = 1 / (eta * eta)
        if d > 2:
            s = s * ((d - 1) / (d - eta)) ** (d - 2)
        return iv_to_enclosure(iv.log(s) / 2)
