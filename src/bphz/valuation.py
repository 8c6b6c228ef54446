"""Valuations: exact symbolic and numeric evaluation of diagrams and monomials.

A diagram evaluates either to a formal generator (one symbol per
isomorphism class) or to an exact rational: the normalized lattice sum of
kernel products over all vertex placements on a torus, computed by vertex
elimination over integers.  Monomial values are pushed through the lift;
the moments of the pairing census, cut to cumulants by a recursion over
sub-monomials, give an independent route to the same numbers.  On top of
these sit the coupling series, the counterterms, and the quartic report.

Two ``functools`` caches memoize the numeric values: `_lattice_sum` per
(canonical class, kernel) and `_connected_value` per (monomial, kernel).
The unrestricted pairing census behind the moments is memoized in
`bphz.bridge`.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial, lcm, prod
from operator import mul
from typing import Iterable, Mapping

from . import feynman as fy
from . import multiindex as mi
from .bridge import enumerate_pairings, lift_P
from .feynman import CanonDiagram, DiagForest, Diagram, Edge
from .lincomb import LinComb, Scalar, as_scalar
from .multiindex import DegreeParams, MIForest, MultiIndex, Rule
from .renorm import Character, RenormOutput, antipode_M, bphz_M, in_negative_part_M
from .symvalue import SymbolicValue


class KernelSpec:
    """A symmetric kernel on the discrete torus (Z/N)^d, with exact values.

    Values are stored flat in row-major order over offsets in [0, N)^d as
    ``Fraction``s; an int, a ``p/q`` string or a float converts exactly
    (``Fraction(v)``).  Symmetry under negation of the offset is required.
    The hash is computed once, because the valuation memos look the
    kernel up on every call.
    """

    __slots__ = ("d", "N", "values", "_hash")

    def __init__(self, d: int, N: int, values):
        if d < 1 or N < 1:
            raise ValueError("kernel needs d >= 1 and N >= 1")
        values = tuple(Fraction(v) for v in values)
        if len(values) != N**d:
            raise ValueError(
                "kernel needs {} values for d={}, N={}".format(N**d, d, N)
            )
        self.d = d
        self.N = N
        self.values = values
        self._hash = hash((d, N, values))
        for offset in product(range(N), repeat=d):
            mirror = tuple((N - x) % N for x in offset)
            if values[self._flat(offset)] != values[self._flat(mirror)]:
                raise ValueError("kernel is not symmetric under negation")

    def _flat(self, offset) -> int:
        idx = 0
        for x in offset:
            idx = idx * self.N + x
        return idx

    def at(self, x, y) -> Fraction:
        """Kernel value at the offset x - y, componentwise mod N."""
        offset = tuple((a - b) % self.N for a, b in zip(x, y))
        return self.values[self._flat(offset)]

    @classmethod
    def from_json(cls, payload: Mapping) -> "KernelSpec":
        return cls(int(payload["d"]), int(payload["N"]), payload["K"])

    def to_json(self) -> dict:
        return {"d": self.d, "N": self.N, "K": [str(v) for v in self.values]}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KernelSpec):
            return NotImplemented
        return (self.d, self.N, self.values) == (other.d, other.N, other.values)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "KernelSpec(d={}, N={})".format(self.d, self.N)


def sample_kernel(d: int = 1, N: int = 4) -> KernelSpec:
    """A generic smooth-ish kernel: 1 / (1 + torus distance squared)."""
    values = []
    for offset in product(range(N), repeat=d):
        dist2 = sum(min(x, N - x) ** 2 for x in offset)
        values.append(Fraction(1, 1 + dist2))
    return KernelSpec(d, N, values)


_LATTICE_LIMIT = 2_000_000


def _pi_name(canon: CanonDiagram) -> str:
    return "Pi[{}]".format(canon.key)


def value_F_symbolic(g: Diagram | CanonDiagram) -> SymbolicValue:
    """Formal value: one generator per isomorphism class (forests go
    through ``Character``, which multiplies the parts)."""
    if isinstance(g, Diagram):
        g = fy.canonicalize(g)
    return SymbolicValue.symbol(_pi_name(g))


def value_F_numeric(g: Diagram | CanonDiagram | DiagForest, kernel: KernelSpec) -> Scalar:
    """Normalized lattice sum: average the kernel product over vertex placements.

    Forests multiply their parts; a diagram is summed once per class and
    kernel (see `_lattice_sum`).  The value is exact.
    """
    if isinstance(g, DiagForest):
        acc = 1
        for part in g.parts():
            acc *= value_F_numeric(part, kernel)
        return as_scalar(acc)
    if isinstance(g, Diagram):
        g = fy.canonicalize(g)
    return as_scalar(_lattice_sum(g, kernel))


def _elimination_order(n: int, pairs: Iterable[Edge], sites: int) -> tuple[list[tuple[int, list[int]]], int]:
    """Min-degree elimination of vertices 1..n-1, and its work estimate.

    Vertex 0 is fixed, so only edges between two other vertices link
    them.  Each step removes a vertex of fewest remaining neighbours
    (ties to the lowest label), joins those neighbours pairwise, and
    costs sites^(neighbours + 1) products.  Returns the (vertex, sorted
    neighbours) steps and the summed cost.
    """
    neighbours: dict[int, set[int]] = {v: set() for v in range(1, n)}
    for u, v in pairs:
        if u:
            neighbours[u].add(v)
            neighbours[v].add(u)
    steps = []
    work = 0
    while neighbours:
        v = min(neighbours, key=lambda w: (len(neighbours[w]), w))
        scope = neighbours.pop(v)
        for u in scope:
            neighbours[u].discard(v)
            neighbours[u] |= scope - {u}
        steps.append((v, sorted(scope)))
        work += sites ** (len(scope) + 1)
    return steps, work


def _site_table(kernel: KernelSpec, sites: list) -> tuple[int, list[int]]:
    """L = lcm of the kernel's denominators, and L times the kernel between
    every two sites, flat and row-major: all ints."""
    scale = lcm(*(v.denominator for v in kernel.values))
    return scale, [(kernel.at(x, y) * scale).numerator for x in sites for y in sites]


def _broadcast(scope: tuple[int, ...], table: list[int], full: list[int], sites: int) -> list[int]:
    """A factor's table re-indexed row-major over the vertices of full."""
    if list(scope) == full:
        return table
    stride = {u: sites ** (len(scope) - 1 - i) for i, u in enumerate(scope)}
    index = [0]
    for u in full:
        step = stride.get(u, 0)
        index = [i + s * step for i in index for s in range(sites)]
    return [table[i] for i in index]


@cache
def _lattice_sum(canon: CanonDiagram, kernel: KernelSpec) -> Fraction:
    """The lattice sum of one class's representative, by vertex elimination.

    The sum of the kernel product over all S^n placements of the n
    vertices on the S sites is a sum-product over a graph, so vertices
    are summed out one at a time (bucket elimination; Dechter, Artif.
    Intell. 113, 1999), all in integers:

    - the site table is scaled by L, the lcm of the kernel's
      denominators, so every entry is an int;
    - parallel edges merge into one elementwise power of the table;
    - the kernel depends only on the offset, so vertex 0 is fixed at
      site 0 and the sum multiplied by S (translation on the torus);
    - the other vertices go in min-degree order (`_elimination_order`);
      eliminating one multiplies the tables that contain it, broadcast
      to the union of their vertices, and sums its axis out.

    The result is total * S / (L^E * S^n) for E edges.  It is exact, so
    the elimination order cannot change it; tests check it against the
    longhand placement loop.  The size guard reads the elimination's own
    work estimate before any table is built.
    """
    diagram = canon.diagram
    n = diagram.vertex_count
    sites = list(product(range(kernel.N), repeat=kernel.d))
    size = len(sites)
    multiplicity = Counter(diagram.edges)
    steps, work = _elimination_order(n, multiplicity, size)
    if work > _LATTICE_LIMIT:
        raise ValueError("lattice sum exceeds the size limit")
    scale, table = _site_table(kernel, sites)
    factors = []
    for (u, v), count in multiplicity.items():
        powered = [t**count for t in table]
        factors.append(((v,), powered[:size]) if u == 0 else ((u, v), powered))
    total = 1
    for v, scope in steps:
        touching = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        full = scope + [v]
        joint = _broadcast(*touching[0], full, size)
        for f in touching[1:]:
            joint = list(map(mul, joint, _broadcast(*f, full, size)))
        summed = [sum(joint[i : i + size]) for i in range(0, len(joint), size)]
        if scope:
            factors.append((tuple(scope), summed))
        else:
            total *= summed[0]
    return Fraction(total * size, scale ** len(diagram.edges) * size**n)


def value_M(m: MultiIndex, kernel: KernelSpec | None = None):
    """Monomial value through the lift: sum of N(Gamma) times the diagram value.

    Symbolic (polynomial in the diagram generators) without a kernel, an
    exact rational with one.
    """
    lifted = lift_P(m)
    if kernel is None:
        return SymbolicValue(((((_pi_name(canon), 1),), coef) for canon, coef in lifted.items()))
    return as_scalar(sum(coef * value_F_numeric(canon, kernel) for canon, coef in lifted.items()))


def moment_oracle(m: MultiIndex, kernel: KernelSpec) -> Scalar:
    """Expectation of the monomial by direct pairing census.

    Sums, over all loopless pairings of the half-edges (connected or
    not), the product of component diagram values.
    """
    outcome = enumerate_pairings(m, connected_only=False)
    return as_scalar(sum(count * value_F_numeric(forest, kernel) for forest, count in outcome.items()))


@cache
def _connected_value(m: MultiIndex, kernel: KernelSpec) -> Scalar:
    """kappa(m) = mu(m) - sum of w(B) kappa(B) mu(m - B), mu = `moment_oracle`.

    B runs over the sub-monomials of m other than m holding a vertex of
    the least arity a0, the block of one fixed such vertex; w(B) =
    prod_k C(beta_k - [k=a0], beta_B(k) - [k=a0]) counts its labelings
    (Speed, Cumulants and partition lattices, 1983).  That is at most
    prod_k (beta_k + 1) terms against Bell(|m|) set partitions; mu is
    skipped where kappa(B) = 0.
    """
    beta = m.beta()
    first = min(beta)
    total = moment_oracle(m, kernel)
    for counts in product(*(range(k == first, b + 1) for k, b in beta.items())):
        block = MultiIndex(zip(beta, counts))
        if block == m:
            continue
        kappa = _connected_value(block, kernel)
        if kappa:
            w = prod(comb(b - (k == first), c - (k == first)) for (k, b), c in zip(beta.items(), counts))
            total -= w * kappa * moment_oracle(m.minus(block), kernel)
    return as_scalar(total)


def value_M_recursive(m: MultiIndex, kernel: KernelSpec) -> Scalar:
    """Connected value by the moment recursion, independent of the lift.

    The moment sums the products of blocks' connected values over the set
    partitions of the vertices; grouped by the block of one least-arity
    vertex, that is `_connected_value`'s recursion over sub-monomials, at
    most prod_k (beta_k + 1) terms, memoized per (monomial, kernel).
    """
    if 0 in m.arity_list():
        raise ValueError("arity-0 vertices have no connected value")
    return _connected_value(m, kernel)


def cumulant_series(
    couplings: Mapping[int, SymbolicValue | int | Fraction],
    p: DegreeParams,
    rule: Rule,
    max_half_edges: int,
) -> RenormOutput:
    """The coupling expansion: populatable admissible monomials with weight
    upsilon(m) / hat-symmetry-factor."""
    # every exponent vector over the rule's arities within the half-edge budget
    monomials = [MultiIndex.unit()]
    for k in sorted(rule.arities):
        monomials = [
            m.shift(k, e) for m in monomials for e in range((max_half_edges - m.half_edges()) // k + 1)
        ]
    terms = []
    for m in monomials:
        if not mi.is_populatable(m):
            continue
        weight = mi.upsilon(couplings, m)
        if weight.is_zero():
            continue
        coeff = weight * SymbolicValue.constant(Fraction(1, mi.hat_sym_factor(m)))
        terms.append((m, coeff))
    return RenormOutput(terms)


def pi_character_M() -> Character:
    """The symbolic monomial valuation as a character."""
    return Character(lambda m: value_M(m), name="Pi_M")


def pi_character_F() -> Character:
    """The symbolic diagram valuation as a character."""
    return Character(lambda canon: value_F_symbolic(canon), name="Pi_F")


def counterterms(
    couplings: Mapping[int, SymbolicValue | int | Fraction],
    p: DegreeParams,
    rule: Rule,
    max_half_edges: int = 12,
) -> dict[int, SymbolicValue]:
    """Renormalised-measure counterterms gamma_k for k in the rule and k = 0.

    gamma_k = - sum over negative-part monomials a and the admissible
    k-leg monomials b of D^k a of Pi(A(a)) <D^k a, b> / (k! Shat(b) S(a))
    upsilon(b), truncated by half-edge count.
    """
    pi = pi_character_M()
    out: dict[int, SymbolicValue] = {}
    for k in sorted(rule.arities | {0}):
        gamma = SymbolicValue.zero()
        he_source = max_half_edges - k
        for source in mi.iter_monomials_within(he_source, he_source):
            if not in_negative_part_M(source, p):
                continue
            subtracted = None
            for target, coef in mi.apply_D(source, k).items():
                if not rule.admits(target):
                    continue
                weight = mi.upsilon(couplings, target)
                if weight.is_zero() or not mi.is_populatable(target, k):
                    continue
                if subtracted is None:
                    subtracted = pi.on_lincomb(antipode_M(source, p, rule))
                gamma = gamma - subtracted * weight * SymbolicValue.constant(
                    Fraction(
                        coef * mi.sym_factor(target),
                        factorial(k) * mi.hat_sym_factor(target) * mi.sym_factor(source),
                    )
                )
        out[k] = gamma
    return out


def phi4_couplings(symbol: str = "alpha") -> dict[int, SymbolicValue]:
    """The quartic model: a single coupling on arity 4."""
    return {4: SymbolicValue.symbol(symbol)}


def _z4(n: int) -> MultiIndex:
    return MultiIndex.single(4, n)


def _closed_form_coproduct_ok(n: int, p: DegreeParams, rule: Rule) -> bool:
    """Reduced coproduct of z4^n against its closed form.

    The only admissible extractions are m copies of z3^2 (1 <= m <= n/2)
    with coefficient 2^(3m) n! / (m! (n-2m)!) and trunk z2^m z4^(n-2m).
    """
    got = mi.coproduct_reduced(_z4(n), p, rule)
    expected = []
    z32 = MultiIndex({3: 2})
    for m_count in range(1, n // 2 + 1):
        forest = MIForest([z32] * m_count)
        trunk = MultiIndex({2: m_count, 4: n - 2 * m_count})
        coef = Fraction(
            2 ** (3 * m_count) * factorial(n),
            factorial(m_count) * factorial(n - 2 * m_count),
        )
        expected.append(((forest, trunk), coef))
    return got == LinComb(expected)


def _closed_form_bphz_ok(n: int, p: DegreeParams, rule: Rule) -> bool:
    """Twisted subtraction of z4^n against its closed form."""
    got = bphz_M(_z4(n), pi_character_M(), p, rule)
    z32 = MultiIndex({3: 2})
    pi_z32 = value_M(z32)
    terms = []
    if n in (2, 3):
        terms.append((MIForest.of(_z4(n)), SymbolicValue.one()))
        terms.append((MIForest.empty(), -value_M(_z4(n))))
    else:
        for m_count in range(0, n // 2 + 1):
            trunk = MultiIndex({2: m_count, 4: n - 2 * m_count})
            if not trunk.is_empty() and not mi.is_populatable(trunk):
                continue
            coef = (pi_z32 * SymbolicValue.constant(-8)) ** m_count
            coef = coef * SymbolicValue.constant(
                Fraction(factorial(n), factorial(m_count) * factorial(n - 2 * m_count))
            )
            terms.append((MIForest.of(trunk), coef))
    return got == RenormOutput(terms)


def resummation_check(
    p: DegreeParams, rule: Rule, order: int = 8, symbol: str = "alpha"
) -> bool:
    """Resummation of the subtracted quartic series against shifted couplings.

    Sum of (-alpha)^n / n! times the subtracted z4^n over n up to the
    given order, compared with the cumulant series of the counterterm-
    shifted couplings (z2 carries two powers of alpha) minus gamma_0 on
    the empty basis.
    """
    alpha = SymbolicValue.symbol(symbol)
    pi = pi_character_M()
    lhs = RenormOutput.zero()
    for n in range(2, order + 1):
        scale = (-alpha) ** n * SymbolicValue.constant(Fraction(1, factorial(n)))
        lhs = lhs + bphz_M(_z4(n), pi, p, rule).scale(scale)

    gamma = counterterms(phi4_couplings(symbol), p, rule, max_half_edges=12)
    shifted = {2: gamma[2], 4: alpha + gamma[4]}
    series = cumulant_series(shifted, p, rule, max_half_edges=4 * order)
    rhs_terms = [(MIForest.empty(), -gamma[0])]
    for m, coeff in series.items():
        if 2 * m.get(2) + m.get(4) > order:
            continue
        rhs_terms.append((MIForest.of(m), coeff))
    return lhs == RenormOutput(rhs_terms)


def phi4_report(
    p: DegreeParams,
    rule: Rule,
    max_n: int = 6,
    trunc: int = 12,
    symbol: str = "alpha",
) -> dict:
    """The quartic running example end to end, as a JSON-friendly table."""
    pi = pi_character_M()
    coproduct_rows = []
    for n in range(2, max_n + 1):
        coproduct_rows.append(
            {"n": n, "closed_form_ok": _closed_form_coproduct_ok(n, p, rule)}
        )
    antipode_rows = []
    for n in range(2, max_n + 1):
        value = antipode_M(_z4(n), p, rule)
        antipode_rows.append({"n": n, "antipode": str(value)})
    bphz_rows = []
    for n in range(2, max_n + 1):
        bphz_rows.append({"n": n, "closed_form_ok": _closed_form_bphz_ok(n, p, rule)})
    gamma = counterterms(phi4_couplings(symbol), p, rule, max_half_edges=trunc)
    return {
        "params": {"ell": str(p.ell), "d": p.d, "rule": str(rule)},
        "coproduct": coproduct_rows,
        "antipode": antipode_rows,
        "bphz": bphz_rows,
        "counterterms": {str(k): str(v) for k, v in sorted(gamma.items())},
        "resummation_order": 8,
        "resummation_ok": resummation_check(p, rule, order=8, symbol=symbol),
    }
