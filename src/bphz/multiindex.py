"""Multi-index algebra: monomials z^beta, forests, insertion, extraction.

A multi-index records how many vertices of each arity a diagram has; the
monomial z^beta with beta(k) vertices of arity k is a "pre-Feynman
diagram".  This module provides symmetry factors, degrees, the derivation
D, the insertion products (single and simultaneous), and the reduced
extraction-contraction coproduct computed from its explicit coefficient
formula.  Everything is exact.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial, prod
from typing import Iterable, Iterator, Tuple

from . import pairings
from .lincomb import Forest, LinComb, RationalLike, Scalar, apply_linear, as_scalar, multiplicative
from .symvalue import SymbolicValue

_TOKEN = re.compile(r"z(\d+)(?:\^(\d+))?")


class ExpressionError(ValueError):
    """Syntax error carrying the byte offset of the offending input."""

    def __init__(self, offset: int, reason: str):
        self.offset = offset
        self.reason = reason
        super().__init__("syntax error at byte {}: {}".format(offset, reason))


def _skip_ws(text: str, pos: int, end: int | None = None) -> int:
    end = len(text) if end is None else end
    while pos < end and text[pos].isspace():
        pos += 1
    return pos


class MultiIndex:
    """Immutable finitely supported map arity -> multiplicity (monomial z^beta).

    The empty monomial (the unit) is representable as an internal
    intermediate; elements of the monomial space proper are nonempty.
    """

    __slots__ = ("_entries",)

    def __init__(self, beta: Mapping[int, int] | Iterable[Tuple[int, int]] = ()):
        items = beta.items() if type(beta) is dict or isinstance(beta, Mapping) else beta
        acc: dict[int, int] = {}
        for k, mult in items:
            if k < 0 or mult < 0:
                raise ValueError("arities and multiplicities must be nonnegative")
            if mult:
                acc[k] = acc.get(k, 0) + mult
        self._entries = tuple(sorted(acc.items()))

    @classmethod
    def unit(cls) -> "MultiIndex":
        return cls()

    @classmethod
    def single(cls, k: int, mult: int = 1) -> "MultiIndex":
        return cls(((k, mult),))

    @classmethod
    def parse(cls, text: str) -> "MultiIndex":
        """Parse 'z2 z4^2'-style monomial text (whitespace-separated tokens).

        Syntax errors are ExpressionErrors with the offending byte offset.
        """
        return cls._parse_span(text, 0, len(text))

    @classmethod
    def _parse_span(cls, text: str, start: int, end: int) -> "MultiIndex":
        """Parse text[start:end], reporting offsets into the whole text."""
        pos = _skip_ws(text, start, end)
        if pos == end:
            raise ExpressionError(pos, "expected a monomial")
        acc: dict[int, int] = {}
        while pos < end:
            match = _TOKEN.match(text, pos, end)
            if not match:
                raise ExpressionError(pos, "expected token like z4 or z4^2")
            if pos > start and not text[pos - 1].isspace():
                raise ExpressionError(pos, "expected whitespace between tokens")
            k = int(match.group(1))
            mult = int(match.group(2) or 1)
            if mult < 1:
                raise ExpressionError(match.start(2), "expected a positive multiplicity")
            acc[k] = acc.get(k, 0) + mult
            pos = _skip_ws(text, match.end(), end)
        return cls(acc)

    def beta(self) -> dict[int, int]:
        return dict(self._entries)

    def get(self, k: int) -> int:
        for arity, mult in self._entries:
            if arity == k:
                return mult
        return 0

    def support(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self._entries)

    def arity_list(self) -> tuple[int, ...]:
        """All vertex arities with multiplicity, ascending."""
        return tuple(k for k, mult in self._entries for _ in range(mult))

    def is_empty(self) -> bool:
        return not self._entries

    def norm(self) -> int:
        """Vertex count |beta|."""
        return sum(m for _, m in self._entries)

    def half_edges(self) -> int:
        """Total half-edge count: sum of k * beta(k)."""
        return sum(k * m for k, m in self._entries)

    def mul(self, other: "MultiIndex") -> "MultiIndex":
        acc = dict(self._entries)
        for k, mult in other._entries:
            acc[k] = acc.get(k, 0) + mult
        return MultiIndex(acc)

    def shift(self, k: int, delta: int) -> "MultiIndex":
        acc = dict(self._entries)
        acc[k] = acc.get(k, 0) + delta
        if acc[k] < 0:
            raise ValueError("negative multiplicity")
        return MultiIndex(acc)

    def submonomial_of(self, other: "MultiIndex") -> bool:
        return all(other.get(k) >= m for k, m in self._entries)

    def minus(self, other: "MultiIndex") -> "MultiIndex":
        if not other.submonomial_of(self):
            raise ValueError("not a pointwise submonomial")
        acc = dict(self._entries)
        for k, mult in other._entries:
            acc[k] -= mult
        return MultiIndex(acc)

    def max_arity(self) -> int:
        return self._entries[-1][0] if self._entries else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiIndex):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __lt__(self, other: "MultiIndex") -> bool:
        return self._entries < other._entries

    def __str__(self) -> str:
        if not self._entries:
            return "1"
        return " ".join(
            "z{}^{}".format(k, m) if m > 1 else "z{}".format(k) for k, m in self._entries
        )

    def __repr__(self) -> str:
        return "MultiIndex({})".format(self)


class MIForest(Forest):
    """Forest of multi-indices; the empty monomial is not a component."""

    __slots__ = ()

    def __init__(self, parts: Iterable[MultiIndex] = ()):
        parts = tuple(parts)
        if any(p.is_empty() for p in parts):
            raise ValueError("forests may not contain the empty monomial")
        super().__init__(parts)

    @classmethod
    def parse(cls, text: str) -> "MIForest":
        """Parse 'z2 . z3^2'-style forest text; '1' is the empty forest."""
        if text.strip() == "1":
            return cls()
        parts = []
        start = 0
        for chunk in text.split("."):
            parts.append(MultiIndex._parse_span(text, start, start + len(chunk)))
            start += len(chunk) + 1
        return cls(parts)

    def product(self) -> MultiIndex:
        """Forget the partition: the product monomial of all components."""
        out = MultiIndex.unit()
        for part in self._parts:
            out = out.mul(part)
        return out


@dataclass(frozen=True)
class DegreeParams:
    """Kernel Hoelder degree ell (< 1) and spatial dimension d."""

    ell: Fraction
    d: int

    def __post_init__(self) -> None:
        # a Fraction even when integral, so that ell / 2 stays exact
        object.__setattr__(self, "ell", Fraction(self.ell))
        if self.ell >= 1:
            raise ValueError("ell must be < 1")
        if self.d < 1:
            raise ValueError("dimension must be positive")


@dataclass(frozen=True)
class Rule:
    """Set of allowed vertex arities (positive integers, nonempty)."""

    arities: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arities", frozenset(self.arities))
        if not self.arities:
            raise ValueError("rule must be nonempty")
        if any(k < 1 for k in self.arities):
            raise ValueError("rule arities must be positive")

    @classmethod
    def parse(cls, text: str) -> "Rule":
        return cls(frozenset(int(tok) for tok in text.split(",")))

    def admits(self, m: MultiIndex) -> bool:
        return all(k in self.arities for k in m.support())

    def __str__(self) -> str:
        return ",".join(str(k) for k in sorted(self.arities))


def sym_factor(m: MultiIndex) -> int:
    """S(z^beta) = prod_k beta(k)! * (k!)^beta(k)."""
    out = 1
    for k, mult in m.beta().items():
        out *= factorial(mult) * factorial(k) ** mult
    return out


def sym_factor_forest(f: MIForest) -> int:
    """Forest symmetry factor: prod_i r_i! * S(component_i)^{r_i}."""
    out = 1
    for part, count in f.counts():
        out *= factorial(count) * sym_factor(part) ** count
    return out


def hat_sym_factor(m: MultiIndex) -> int:
    """S-hat(z^beta) = prod_k beta(k)!."""
    out = 1
    for _, mult in m.beta().items():
        out *= factorial(mult)
    return out


def upsilon(couplings: Mapping[int, SymbolicValue | RationalLike], m: MultiIndex) -> SymbolicValue:
    """Coupling monomial prod_k (-alpha_k)^beta(k); missing couplings are 0."""
    out = SymbolicValue.one()
    for k, mult in m.beta().items():
        base = couplings.get(k)
        if base is None:
            return SymbolicValue.zero()
        if not isinstance(base, SymbolicValue):
            base = SymbolicValue.constant(as_scalar(base))
        out = out * (-base) ** mult
    return out


def degree(m: MultiIndex, p: DegreeParams) -> Fraction:
    """deg z^beta = (ell/2) * sum k*beta(k) + d * (|beta| - 1)."""
    return _degree(m.half_edges(), m.norm(), p)


def _degree(half_edges: int, vertices: int, p: DegreeParams) -> Fraction:
    return p.ell / 2 * half_edges + p.d * (vertices - 1)


def _scaled_degree(half_edges: int, vertices: int, p: DegreeParams) -> int:
    """2 * den(ell) * degree, an integer with the sign of the degree."""
    ell = p.ell
    return ell.numerator * half_edges + 2 * ell.denominator * p.d * (vertices - 1)


def is_divergent(m: MultiIndex, p: DegreeParams) -> bool:
    return _scaled_degree(m.half_edges(), m.norm(), p) <= 0


@cache
def _D_power(gamma: MultiIndex, k: int) -> LinComb[MultiIndex]:
    """D^k gamma, memoized: the one place the derivation D is applied.

    D = sum_j z_{j+1} d/dz_j moves one vertex of arity j to arity j + 1,
    weighted by the beta(j) vertices it may pick; D^k applies D once to
    each monomial of D^(k-1) gamma.
    """
    if k == 0:
        return LinComb.single(gamma)
    if k == 1:
        return LinComb((gamma.shift(j, -1).shift(j + 1, 1), mult) for j, mult in gamma.beta().items())
    return apply_linear(lambda mono: _D_power(mono, 1), _D_power(gamma, k - 1))


def apply_D(p: LinComb[MultiIndex] | MultiIndex, times: int = 1) -> LinComb[MultiIndex]:
    """Apply the derivation D = sum_k z_{k+1} d/dz_k the given number of times."""
    if times < 0:
        raise ValueError("D is applied a nonnegative number of times")
    if isinstance(p, MultiIndex):
        return _D_power(p, times)
    return apply_linear(lambda mono: _D_power(mono, times), p)


def _project_rule(comb: LinComb[MultiIndex], rule: Rule | None) -> LinComb[MultiIndex]:
    if rule is None:
        return comb
    return LinComb((mono, coef) for mono, coef in comb._terms.items() if rule.admits(mono))


def insert(b: MultiIndex, a: MultiIndex, rule: Rule | None = None) -> LinComb[MultiIndex]:
    """Insertion z^b |> z^a = sum_k (D^k z^b) * (d/dz_k z^a), rule-projected.

    The one-part case of `simultaneous_insert`.  The rule, when present,
    keeps only result monomials whose support lies inside the allowed
    arities (the trunk condition).
    """
    return simultaneous_insert(MIForest.of(b), a, rule)


def _falling(n: int, steps: int) -> int:
    out = 1
    for i in range(steps):
        out *= n - i
    return out


def _poly_mul(a: LinComb[MultiIndex], b: LinComb[MultiIndex], bound: MultiIndex) -> LinComb[MultiIndex]:
    """Multiply monomial combinations, keeping the products that divide bound.

    Like `lincomb.product` and the other kernels of this module, it walks
    the stored terms unsorted (`LinComb.items` sorts them by their text):
    the coefficients are exact, so the order cannot change a sum.
    """
    return LinComb(
        (joined, coef_a * coef_b)
        for mono_a, coef_a in a._terms.items()
        for mono_b, coef_b in b._terms.items()
        if (joined := mono_a.mul(mono_b)).submonomial_of(bound)
    )


def simultaneous_insert(
    f: MIForest, a: MultiIndex, rule: Rule | None = None
) -> LinComb[MultiIndex]:
    """Simultaneous insertion of a forest into z^a over ordered arity tuples.

    For components (gamma_1, ..., gamma_n) the result sums over ordered
    (k_1, ..., k_n) the monomial (prod_i D^{k_i} gamma_i) times the iterated
    partial (prod_i d/dz_{k_i}) z^a; the rule, when present, projects the
    result support.  `insert` is the single-component case.
    """
    if f.is_empty():
        raise ValueError("simultaneous insertion needs a nonempty forest")
    parts = f.parts()
    acc: list[tuple[MultiIndex, Scalar]] = []
    for ks in product(a.support(), repeat=len(parts)):
        taken = MultiIndex((k, 1) for k in ks)
        if not taken.submonomial_of(a):
            continue
        weight = prod(_falling(a.get(k), t) for k, t in taken.beta().items())
        start = LinComb.single(a.minus(taken), weight)
        poly = multiplicative(lambda part: _D_power(*part), zip(parts, ks), start, MultiIndex.mul)
        acc.extend(poly._terms.items())
    return _project_rule(LinComb(acc), rule)


def inner_product(a: MIForest | MultiIndex, b: MIForest | MultiIndex) -> Scalar:
    """Dirac pairing: S(a) when the forests coincide, else 0."""
    fa = MIForest.of(a) if isinstance(a, MultiIndex) else a
    fb = MIForest.of(b) if isinstance(b, MultiIndex) else b
    if fa != fb:
        return 0
    return sym_factor_forest(fa)


def is_populatable(m: MultiIndex, free_legs: int = 0) -> bool:
    """True iff the half-edges pair into a connected loopless graph.

    Exactly free_legs half-edges stay unpaired; every vertex must be
    spanned.  Decided by Hakimi's degree criterion (`pairings.matching_exists`).
    """
    return pairings.matching_exists(m.arity_list(), free_legs)


def iter_monomials_within(max_half_edges: int, max_vertices: int) -> Iterator[MultiIndex]:
    """All nonempty monomials with bounded half-edge and vertex counts."""

    def recurse(min_arity: int, he_left: int, verts_left: int, acc: list[tuple[int, int]]):
        if acc:
            yield MultiIndex(acc)
        if verts_left == 0:
            return
        for k in range(min_arity, he_left + 1):
            for mult in range(1, verts_left + 1):
                if k * mult > he_left:
                    break
                acc.append((k, mult))
                yield from recurse(k + 1, he_left - k * mult, verts_left - mult, acc)
                acc.pop()

    yield from recurse(1, max_half_edges, max_vertices, [])


def extraction_candidates(m: MultiIndex, p: DegreeParams) -> tuple[MultiIndex, ...]:
    """Populatable non-positive-degree monomials with at least one edge that fit m.

    These are the monomials allowed as components of the left leg of the
    reduced coproduct of m.  The edge requirement (half-edge count >= 2)
    rules out the lone arity-0 vertex, which pairs vacuously but
    corresponds to no extractable subdiagram.

    Only the arity cone of m is enumerated: gamma (arities >= 1) whose
    arities, sorted descending, are bounded entry by entry by the top
    |gamma| arities of m, also sorted descending.  Nothing outside the
    cone can contribute: D raises one vertex arity by one and keeps the
    vertex count, and its coefficients are positive multiplicities, so
    some D^k gamma has a monomial dividing m exactly when gamma's vertices
    inject into m's with no arity decreasing, which is the cone condition.
    A branch stops early once its degree is positive and no further vertex can
    lower it.  The result is sorted, hence an order-preserving subset of
    the same filters applied to every monomial within m's half-edge and
    vertex counts.
    """
    bounds = sorted(m.arity_list(), reverse=True)
    out: list[MultiIndex] = []

    def recurse(cap: int, half_edges: int, acc: list[int]) -> None:
        deg = _scaled_degree(half_edges, len(acc), p)
        if half_edges >= 2 and deg <= 0:
            gamma = MultiIndex((k, 1) for k in acc)
            if is_populatable(gamma):
                out.append(gamma)
        # deg (the degree times 2 den(ell)) is -c plus num(ell)*k + c per
        # vertex of arity k, with c = 2 den(ell) d.  At deg > 0 some vertex,
        # of arity >= cap, adds a positive amount; that amount is linear in
        # k and positive (c) at k = 0, so a further vertex of any arity
        # k <= cap raises deg too and no extension is divergent.
        if deg > 0:
            return
        if len(acc) < len(bounds):
            for k in range(1, min(cap, bounds[len(acc)]) + 1):
                acc.append(k)
                recurse(k, half_edges + k, acc)
                acc.pop()

    recurse(m.max_arity(), 0, [])
    return tuple(sorted(out))


def coproduct_reduced(
    m: MultiIndex,
    p: DegreeParams,
    rule: Rule | None = None,
    *,
    trunk_in_image: bool = False,
) -> LinComb[Tuple[MIForest, MultiIndex]]:
    """Reduced extraction-contraction coproduct from the explicit formula.

    Left legs range over nonempty forests whose components are populatable
    with non-positive degree; right legs (trunks) are formal monomials,
    projected by the rule's support condition when a rule is given, and
    further restricted to populatable monomials when trunk_in_image is set
    (the variant the renormalisation recursions consume).  The trunk z0,
    the whole of m contracted to one vertex, is left out: that extraction
    is the primitive term m (x) 1 of the full coproduct, as on the diagram
    side, where the whole diagram is never a proper extraction.

    Forests are walked as multisets of entries (gamma, k, D^k gamma cut
    to the divisors of m), one recursion taking entries in list order with
    repeats.  A multiset that puts c_gamma copies of each component gamma
    at shifts with counts t_{gamma,k} stands for c_gamma! / prod_k
    t_{gamma,k}! ordered insertion tuples, so the coefficient of
    forest (x) trunk is

        S(beta) / (S(forest) * S(trunk)) * sum over multisets of
        (ordered-tuple count) * (iterated-partial falling factorial) *
        (matching coefficient in the product of the cut shifts).

    D has positive coefficients, so when a multiset's product has a term
    dividing m, so does the product of every prefix: a branch can end at
    the first entry that exceeds the budgets or leaves no such term.

    Components are drawn from `extraction_candidates(m, p)`, the arity cone
    of m: monomials whose descending arity list is bounded entry by entry
    by the top arities of m.  A component contributes only through some
    D^k gamma dividing m, and D only raises arities (with positive
    coefficients, so nothing cancels), hence every monomial outside the
    cone has no usable shift and every one inside has at least one.
    """
    he_m = m.half_edges()
    top = m.max_arity()
    # D^k gamma has he(gamma) + k half-edges on |gamma| vertices, so it
    # divides m only for he(gamma) + k <= min(he(m), top * |gamma|).
    entries = [
        (gamma, k, cut, gamma.half_edges() + k, gamma.norm() - 1)
        for gamma in extraction_candidates(m, p)
        for k in range(min(he_m, top * gamma.norm()) - gamma.half_edges() + 1)
        if (cut := LinComb(
            (mono, c) for mono, c in _D_power(gamma, k)._terms.items() if mono.submonomial_of(m)
        ))
    ]

    raw: dict[Tuple[MIForest, MultiIndex], int] = {}
    chosen: list[tuple[MultiIndex, int, LinComb[MultiIndex], int, int]] = []

    def emit(poly: LinComb[MultiIndex]) -> None:
        # chosen follows the order of entries, so the copies of a component,
        # and of an entry, are consecutive.  The ordered insertion tuples
        # realizing chosen number prod_gamma c_gamma! / prod_k t_{gamma,k}!,
        # built up one entry at a time as weight * count(gamma) // count(entry).
        weight = in_gamma = in_entry = 1
        taken: dict[int, int] = {}
        for i, entry in enumerate(chosen):
            if i:
                in_gamma = in_gamma + 1 if chosen[i - 1][0] is entry[0] else 1
                in_entry = in_entry + 1 if chosen[i - 1] is entry else 1
                weight = weight * in_gamma // in_entry
            taken[entry[1]] = taken.get(entry[1], 0) + 1
        forest = MIForest(entry[0] for entry in chosen)
        for sigma, coef in poly._terms.items():
            alpha_hat = m.minus(sigma)
            trunk = alpha_hat
            coef_partial = 1
            for k, t in taken.items():
                coef_partial *= _falling(alpha_hat.get(k) + t, t)
                trunk = trunk.shift(k, t)
            key = (forest, trunk)
            raw[key] = raw.get(key, 0) + weight * coef_partial * coef

    def choose(start: int, he_left: int, contractions_left: int, poly: LinComb[MultiIndex]) -> None:
        # The he_left and contractions_left budgets are implied by the bound
        # in _poly_mul, but they skip a product before it is computed;
        # without them the phi4-tower bench plan runs about 1.9x slower
        # (0.36 s against 0.66 s in process, median of nine fresh
        # processes each, 2-vCPU VM, Python 3.11.7).  Sharing one kernel
        # with simultaneous_insert was tried: it branched on its caller
        # (bound vs caps, emit at node vs leaf) and ran the phi4 antipode
        # ladder about 20% slower.
        if chosen:
            emit(poly)
        for j in range(start, len(entries)):
            _, _, cut, cost, shrink = entry = entries[j]
            if cost > he_left or shrink > contractions_left:
                continue
            extended = _poly_mul(poly, cut, bound=m)
            if extended:
                chosen.append(entry)
                choose(j, he_left - cost, contractions_left - shrink, extended)
                chosen.pop()

    choose(0, he_m, m.norm() - 1, LinComb.single(MultiIndex.unit()))

    s_m = sym_factor(m)
    z0 = MultiIndex.single(0)
    out: list[tuple[Tuple[MIForest, MultiIndex], Scalar]] = []
    for (forest, trunk), value in raw.items():
        if trunk == z0:
            continue
        if rule is not None and not rule.admits(trunk):
            continue
        if trunk_in_image and not is_populatable(trunk):
            continue
        coefficient = Fraction(value * s_m, sym_factor_forest(forest) * sym_factor(trunk))
        out.append(((forest, trunk), coefficient))
    return LinComb(out)


def coproduct_full(
    m: MultiIndex,
    p: DegreeParams,
    rule: Rule | None = None,
    *,
    trunk_in_image: bool = False,
) -> LinComb[Tuple[MIForest, MIForest]]:
    """Full coproduct: both primitive terms plus the reduced part.

    Keys are pairs of forests so that the empty right leg of the term
    (m, empty) is representable; reduced trunks appear as singletons.

    The default (formal trunks) is the explicit-formula coproduct, e.g.
    [z3^2] (x) [z2] for z4^2, and it is not coassociative, not even with
    the middle factor projected onto divergent forests (z5^2 at ell=-1,
    d=3 under rule {2,4} fails).  The recursions use trunk_in_image=True.
    The tests check that variant coassociative, with the middle factor
    projected onto divergent forests, on every monomial of at most 10
    half-edges and 4 vertices at ell in {-1, -3/2}, with and without the
    rule {2,4}.  Beyond that range it is not coassociative under the rule
    off ell = -1: z3^4 (16 half-edges) fails at ell=-3/2, d=3, and so do
    z4^5 and z4^6 in `bphz verify --ell=-3/2` (the ROADMAP open item on
    the rule-projected coproduct).
    """
    acc: list[tuple[Tuple[MIForest, MIForest], Scalar]] = [
        ((MIForest.empty(), MIForest.of(m)), 1),
        ((MIForest.of(m), MIForest.empty()), 1),
    ]
    reduced = coproduct_reduced(m, p, rule, trunk_in_image=trunk_in_image)
    for (forest, trunk), coef in reduced.items():
        acc.append(((forest, MIForest.of(trunk)), coef))
    return LinComb(acc)


def coproduct_full_forest(
    f: MIForest,
    p: DegreeParams,
    rule: Rule | None = None,
    *,
    trunk_in_image: bool = False,
) -> LinComb[Tuple[MIForest, MIForest]]:
    """Multiplicative extension of the full coproduct to forests."""
    return multiplicative(
        lambda part: coproduct_full(part, p, rule, trunk_in_image=trunk_in_image),
        f.parts(),
        LinComb.single((MIForest.empty(), MIForest.empty())),
        lambda a, b: (a[0].merge(b[0]), a[1].merge(b[1])),
    )
