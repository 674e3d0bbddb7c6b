"""Dense exact-coefficient univariate polynomials and Sturm-chain root counting.

Coefficients are Python ints or fractions.Fraction, stored lowest degree
first; all arithmetic is exact.  The zero polynomial has an empty
coefficient tuple and degree -1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


def _trim(coeffs: Sequence) -> tuple:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


def _horner(coeffs: Sequence, x):
    """sum_k coeffs[k] x^k (lowest degree first) by Horner's rule.  A nonempty
    sequence at a Fraction x gives a Fraction, even when it is constant."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _scaled_horner(coeffs: Sequence[int], p: int, q: int) -> int:
    """q^deg * P(p/q) for integer coefficients (lowest degree first) and
    q > 0, in integers: it has the sign of P(p/q) and is zero with it.  A
    power of two q, as at every bisection point, scales by shifts."""
    acc = 0
    if q & (q - 1):
        scale = 1
        for c in reversed(coeffs):
            acc = acc * p + c * scale
            scale *= q
        return acc
    e = q.bit_length() - 1
    for i, c in enumerate(reversed(coeffs)):
        acc = acc * p + (c << e * i)
    return acc


def _poly_mul(a: Sequence, b: Sequence) -> list:
    """Product of two coefficient sequences (lowest degree first); an empty
    factor gives an empty or all-zero list."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


class Poly:
    """Immutable dense polynomial over the rationals (ints allowed)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        object.__setattr__(self, "coeffs", _trim(tuple(coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self):
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int):
        """Coefficient of x**k (0 outside the stored range)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly()
            return Poly(tuple(c * other for c in self.coeffs))
        return Poly(_poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        result = Poly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, x):
        return _horner(self.coeffs, x)

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = Fraction(self.leading)
        return Poly(tuple(Fraction(c) / lead for c in self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Euclidean division over the rationals: a = q*b + r, deg r < deg b."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a.coeffs)
    db, blead = b.degree, Fraction(b.leading)
    q = [0] * max(len(r) - db, 0)
    # one pass from the top: step `shift` reads q[shift] off r[shift + db],
    # which no later step reads, so it is left as is; only r[:db] is kept
    for shift in reversed(range(len(q))):
        factor = q[shift] = r[shift + db] / blead
        if factor:
            for i, c in zip(range(shift, shift + db), b.coeffs):
                r[i] -= factor * c
    return Poly(q), Poly(r[:db])


def _remainders(a: Poly, b: Poly) -> list[Poly]:
    """The signed remainder sequence a, b, -rem(a, b), ... without zero
    entries, up to its last nonzero one: gcd(a, b) up to a constant."""
    seq = [a, b]
    while seq[-1].degree >= 1:
        _, r = poly_divmod(seq[-2], seq[-1])
        if r.is_zero():
            break
        seq.append(-r)
    return [q for q in seq if not q.is_zero()]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals (zero when a and b are both zero)."""
    return (_remainders(a, b) or [Poly()])[-1].monic()


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm sequence p, p', -rem(p, p'), ..., ending at gcd(p, p') up to a
    constant, which divides every entry: at a point that is not a root of p
    the sign variations count p's distinct roots, squarefree or not."""
    return _remainders(p, p.derivative())


def _gcd_levels(p: Poly) -> list[list[Poly]]:
    """Sturm chains of the gcd levels g_0 = p, g_{k+1} = gcd(g_k, g_k') (the
    last entry of g_k's chain), for as long as g_k is nonconstant.  A root
    of p of multiplicity m is a root of g_0..g_{m-1}, each counted once."""
    chains = []
    while p.degree >= 1:
        chains.append(sturm_chain(p))
        p = chains[-1][-1]
    return chains


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """[(f_i, i)] for the nonconstant f_i, in increasing i, where p = lead *
    prod f_i**i with f_i squarefree and monic: f_k = h_k / h_{k+1} made
    monic, where h_k = g_{k-1} / g_k has the factors of multiplicity >= k."""
    g = [chain[0] for chain in _gcd_levels(p)] + [Poly.const(1)]
    h = [poly_divmod(a, b)[0] for a, b in zip(g, g[1:])] + [Poly.const(1)]
    fs = (poly_divmod(a, b)[0] for a, b in zip(h, h[1:]))
    return [(f.monic(), i) for i, f in enumerate(fs, start=1) if f.degree >= 1]


def squarefree_part(p: Poly) -> Poly:
    chain = sturm_chain(p)  # [] for p = 0, which is returned as is
    return poly_divmod(p, chain[-1])[0].monic() if chain else p


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations(signs: Sequence[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def _sturm_count(chain: Sequence[Poly], lo, hi) -> int:
    """Distinct real roots in (lo, hi) of the nonconstant chain[0], given its
    Sturm chain; 0 when lo >= hi.  A None lo is -inf and a None hi +inf, where
    q's sign is its leading coefficient's, times (-1)^deg q at -inf."""
    a = None if lo is None else Fraction(lo)
    b = None if hi is None else Fraction(hi)
    variations = []
    for x, far in ((a, -1), (b, 1)):
        if x is None:
            signs = [_sign(q.leading) * far ** q.degree for q in chain]
        else:
            signs = [_sign(q(x)) for q in chain]
            if signs[0] == 0:  # chain[0] is the polynomial itself
                raise ValueError(f"interval endpoint {x} is a root")
        variations.append(_variations(signs))
    if a is not None and b is not None and a >= b:
        return 0
    return variations[0] - variations[1]


def count_distinct_real_roots(p: Poly, lo=None, hi=None) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi).

    None endpoints mean -inf / +inf.  Finite endpoints must be exact
    rationals and must not be roots of p (raises ValueError if they are):
    with that restriction the open/closed distinction is immaterial and the
    Sturm count is exact.
    """
    if p.degree < 1:
        return 0
    return _sturm_count(sturm_chain(p), lo, hi)


def count_real_roots_with_multiplicity(p: Poly, lo=None, hi=None) -> int:
    """Total number of real roots in (lo, hi) counted with multiplicity, as
    the sum of the distinct counts over the gcd levels."""
    return sum(_sturm_count(chain, lo, hi) for chain in _gcd_levels(p))
