"""Continued fractions of the partial sums S_n = sum 1/x_j and of the limit.

Two mechanisms produce certified coefficients of the infinite expansion:

  * the doubling recursions. For a generic factor sequence (z_2 >= 3,
    z_j >= 2) the expansion of S_{n+1} copies that of S_n, appends
    z_{n+1}-1, 1, a-1 (a the last coefficient of S_n), then replays the
    interior of S_n reversed; lengths follow l_n = 3*2^(n-2) - 1. When
    z_2 = 2 a parallel recursion starting from the 10-coefficient S_4 keeps
    lengths at 5*2^(n-3). Both preserve the emitted prefix, which is what
    certifies finality.

  * the interval oracle. For the remaining (degenerate or mixed) factor
    sequences: S lies strictly between S_n and S_n + 2/x_{n+1}, because
    x_{j+1} >= x_j^2 and x_{n+1} >= 2 bound the tail by a geometric sum.
    Expanding both endpoints and keeping their common prefix, minus its
    final coefficient as the standard safety margin, certifies coefficients
    with no structural knowledge at all. The bound is crude but rigorous,
    chosen over tighter ones for auditability.

Partial-sum constructions are pure; a stream is a stateful single-consumer
object (distinct streams are independent).
"""

from dataclasses import dataclass
from typing import Callable
from fractions import Fraction

from .cf import CFExpansion, convergents, expand_rational
from .exceptions import ClassMismatch, IdentityViolation
from .sequences import (  # SeriesSource and SourceLike are re-exported from here
    BitBudget,
    FactorSequence,
    SeriesClass,
    SeriesSource,
    SourceLike,
    as_store,
)


@dataclass(frozen=True)
class PartialCF:
    """Continued fraction of the n-th partial sum."""

    n: int
    cf: CFExpansion

    @property
    def length(self) -> int:
        return len(self.cf)


# ---------------------------------------------------------------------------
# Doubling recursions
# ---------------------------------------------------------------------------


def _generic_step(cur: list[int], z_next: int) -> list[int]:
    # Copy, append z-1, 1, (last-1), then the interior reversed: indices
    # l-2 down to 1. Grows l to 2l+1.
    return cur + [z_next - 1, 1, cur[-1] - 1] + cur[-2:0:-1]


def _z2_step(cur: list[int], z_next: int) -> list[int]:
    # z_2 = 2 variant: the final coefficient 2 is replaced by 1, 1, then
    # z-1, the block a_{l-1}..a_3 reversed, and a closing 2. Grows l to 2l.
    return cur[:-1] + [1, 1, z_next - 1] + cur[-1:2:-1] + [2]


@dataclass(frozen=True)
class _Doubling:
    """One class's doubling recursion. ``seed`` maps [z_2, ..., z_start] to
    the expansion of S_start; ``step`` maps the expansion of S_n and z_{n+1}
    to that of S_{n+1}, rewriting the last ``mutable`` coefficients of S_n
    and keeping the rest; ``bonus`` lists the coefficients that follow the
    kept prefix and that z_{n+1} alone already fixes."""

    start: int
    seed: Callable[[list[int]], list[int]]
    step: Callable[[list[int], int], list[int]]
    mutable: int
    bonus: Callable[[int], list[int]]


_DOUBLING = {
    SeriesClass.GENERIC: _Doubling(
        start=3,
        seed=lambda z: [1, z[0] - 1, 1, z[1] - 1, z[0]],
        step=_generic_step,
        mutable=0,
        bonus=lambda z_next: [z_next - 1],
    ),
    SeriesClass.Z2_EQUALS_2: _Doubling(
        start=4,
        seed=lambda z: [1, 1, 1, z[1] - 1, 2, z[2] - 1, 1, 1, z[1] - 1, 2],
        step=_z2_step,
        mutable=1,
        bonus=lambda z_next: [1, 1, z_next - 1],
    ),
}


def _unfold(d: _Doubling, z: list[int]) -> list[int]:
    # The expansion of S_n from z = [z_2, ..., z_n], n >= d.start.
    cur = d.seed(z)
    for z_next in z[d.start - 1:]:
        cur = d.step(cur, z_next)
    return cur


def generic_recursion_raw(zs: FactorSequence, n: int) -> list[int]:
    """The generic doubling recursion run formally, with no class guard.

    For z_2 = 2 or unit factors the output contains zero coefficients; it is
    the raw material the zero-removal rule is checked against.
    """
    if n < 3:
        raise ValueError("raw recursion starts at n = 3")
    return _unfold(_DOUBLING[SeriesClass.GENERIC], SeriesSource(zs).factors_through(n))


def generic_partial_cf(zs: FactorSequence, n: int) -> PartialCF:
    """Expansion of S_n for a generic factor sequence (z_2 >= 3, z_j >= 2).

    Length is 3*2^(n-2) - 1 counting a_0; the final convergent denominator
    equals x_n.
    """
    if zs.series_class is not SeriesClass.GENERIC:
        raise ClassMismatch(f"need a generic factor sequence, got {zs.series_class.value}")
    if n < 3:
        raise ValueError("the recursion starts at n = 3")
    coeffs = generic_recursion_raw(zs, n)
    assert len(coeffs) == 3 * 2 ** (n - 2) - 1
    return PartialCF(n, CFExpansion(tuple(coeffs)))


def z2eq2_partial_cf(zs: FactorSequence, n: int) -> PartialCF:
    """Expansion of S_n when z_2 = 2 and z_j >= 2 for j >= 3.

    Starts from the 10-coefficient S_4 and doubles: length 5*2^(n-3), final
    coefficient always 2. Equals the raw generic recursion after zero
    removal and the trailing-unit merge.
    """
    if zs.series_class is not SeriesClass.Z2_EQUALS_2:
        raise ClassMismatch(f"need a z_2 = 2 factor sequence, got {zs.series_class.value}")
    if n < 4:
        raise ValueError("the z_2 = 2 recursion starts at n = 4")
    coeffs = _unfold(_DOUBLING[SeriesClass.Z2_EQUALS_2], SeriesSource(zs).factors_through(n))
    assert len(coeffs) == 5 * 2 ** (n - 3)
    return PartialCF(n, CFExpansion(tuple(coeffs)))


def _split_representative(src: SeriesSource, n: int) -> bool:
    # The ones-tail base u = 2 reports S_n, n >= 4, in the other
    # representative of the same rational, one coefficient longer:
    # [..., a] -> [..., a-1, 1].
    return src.series_class is SeriesClass.ONES_TAIL and src.u == 2 and n >= 4


def partial_cf(source: SourceLike, n: int, budget: BitBudget | None = None) -> PartialCF:
    """Expansion of S_n for any source, dispatching on its class.

    Generic and z_2 = 2 sources use their doubling recursions from the
    recursion's start index on; below it, and for ones-tail and mixed
    sources, the Euclidean expansion of the exact partial sum is used.
    For the ones-tail base u = 2 and n >= 4 the expansion is reported with
    the final quotient split ([..., a] -> [..., a-1, 1]), the representative
    whose lengths follow the 2^(n-3) + 3 doubling pattern; the value is
    unchanged.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    src = as_store(source, budget)
    d = _DOUBLING.get(src.series_class)
    if d is not None and n >= d.start:
        return PartialCF(n, CFExpansion(tuple(_unfold(d, src.factors_through(n)))))
    cf = expand_rational(src.partial_sum(n))
    if _split_representative(src, n):
        cf = CFExpansion(cf.coeffs[:-1] + (cf.coeffs[-1] - 1, 1))
    return PartialCF(n, cf)


def partial_lengths(source: SourceLike, n_max: int, budget: BitBudget | None = None) -> list[int]:
    """Lengths of the partial-sum expansions for n = 1..n_max, computed from
    the Euclidean oracle (plus the u = 2 representative convention)."""
    src = as_store(source, budget)
    return [len(expand_rational(src.partial_sum(n))) + _split_representative(src, n)
            for n in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# Certified streaming
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamResult:
    """A certified batch: coefficients proven final, with provenance."""

    series_class: SeriesClass
    n_used: int
    certified: tuple[int, ...]
    lengths: tuple[int, ...]

    def to_json_dict(self) -> dict:
        # Coefficients as decimal strings: they outgrow 64 bits quickly.
        return {
            "class": self.series_class.value,
            "n_used": self.n_used,
            "certified": [str(a) for a in self.certified],
            "lengths": list(self.lengths),
        }


class EngelStream:
    """Single-consumer stream of certified coefficients of the limit S.

    Classes with a doubling recursion extend their partial expansion, hold
    back the trailing coefficients the next step rewrites, and additionally
    emit what the next factor alone pins down (z_{n+1}-1, preceded by the
    forced 1, 1 in the z_2 = 2 class). Every other class, and any stream
    with ``force_oracle``, emits the interval oracle's common prefix. Emitted
    coefficients never change; that is asserted on every advance.
    """

    def __init__(self, source: SourceLike, budget: BitBudget | None = None,
                 force_oracle: bool = False):
        self._src = as_store(source, budget)
        self.series_class = self._src.series_class
        self._doubling = None if force_oracle else _DOUBLING.get(self.series_class)
        self.emitted: list[int] = []
        self.lengths: list[int] = []
        self.n_used = 0
        self._cur: list[int] | None = None
        self._n = 1

    @property
    def certified_through(self) -> int:
        return len(self.emitted) - 1

    def take(self, count: int) -> list[int]:
        """Advance until at least ``count`` coefficients are certified and
        return the full certified prefix (possibly longer than asked)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        while len(self.emitted) < count:
            self._advance()
        return list(self.emitted)

    def result(self) -> StreamResult:
        return StreamResult(self.series_class, self.n_used,
                            tuple(self.emitted), tuple(self.lengths))

    def _set_emitted(self, coeffs: list[int]):
        if len(coeffs) < len(self.emitted):
            return
        if coeffs[: len(self.emitted)] != self.emitted:
            raise IdentityViolation("previously emitted coefficients changed")
        self.emitted = coeffs

    def _advance(self):
        d = self._doubling
        if d is None:
            self._advance_oracle()
            return
        if self._cur is None:
            self._n = d.start
            self._cur = d.seed(self._src.factors_through(d.start))
        else:
            self._n += 1
            self._cur = d.step(self._cur, self._src.factors_through(self._n)[-1])
        self.lengths.append(len(self._cur))
        self.n_used = self._n
        z_next = self._src.factor(self._n + 1)
        bonus = d.bonus(z_next) if z_next is not None else []
        self._set_emitted(self._cur[:len(self._cur) - d.mutable] + bonus)

    def _advance_oracle(self):
        n = max(self._n + 1, 2)
        self._n = n
        x_next = self._src.x(n + 1)  # raises when the factor list ends
        lo = self._src.partial_sum(n)
        hi = lo + Fraction(2, x_next)
        a = expand_rational(lo).coeffs
        b = expand_rational(hi).coeffs
        shared = 0
        for va, vb in zip(a, b):
            if va != vb:
                break
            shared += 1
        certified = list(a[: max(shared - 1, 0)])
        self.lengths.append(len(a) + _split_representative(self._src, n))
        self.n_used = n
        self._set_emitted(certified)


def stream(source: SourceLike, count: int, budget: BitBudget | None = None,
           force_oracle: bool = False) -> StreamResult:
    """Certify at least ``count`` coefficients of the limit expansion."""
    es = EngelStream(source, budget, force_oracle=force_oracle)
    es.take(count)
    return es.result()


# ---------------------------------------------------------------------------
# Step identities and certified enclosures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepIdentityReport:
    """Convergent identities linking S_n to S_{n+1} for a generic source."""

    n: int
    ell_n: int
    ell_next: int
    det_m: int
    p: int
    q: int
    p_tilde: int
    q_tilde: int
    x_next: int


def verify_step_identities(zs: FactorSequence, n: int) -> StepIdentityReport:
    """Check, exactly, the convergent relations of one doubling step:

        p~ = z_{n+1} * q * p + 1,   q~ = z_{n+1} * q^2 = x_{n+1},

    where (p, q) is the final convergent of S_n and (p~, q~) of S_{n+1},
    plus det M_n = -1 (the expansion length is odd). Failure raises
    IdentityViolation and indicates an implementation bug.
    """
    if n < 3:
        raise ValueError("steps start at n = 3")
    here = generic_partial_cf(zs, n)
    there = generic_partial_cf(zs, n + 1)
    t_here = convergents(here.cf)
    t_there = convergents(there.cf)
    p, q = t_here.final
    p2, q2 = t_here.rows[-2]
    det = p * q2 - p2 * q
    if det != -1:
        raise IdentityViolation(f"det M_{n} = {det}, expected -1")
    pt, qt = t_there.final
    z_next = zs.factor(n + 1)
    if pt != z_next * q * p + 1:
        raise IdentityViolation(f"numerator identity failed at step {n}")
    x_next = SeriesSource(zs).x(n + 1)
    if qt != z_next * q * q or qt != x_next:
        raise IdentityViolation(f"denominator identity failed at step {n}")
    return StepIdentityReport(n, here.length, there.length, det, p, q, pt, qt, x_next)


def enclosure(source: SourceLike, max_width: Fraction,
              budget: BitBudget | None = None) -> tuple[Fraction, Fraction]:
    """A closed interval [lo, hi] containing the limit S, of width at most
    ``max_width``: the tail past S_n lies strictly between 1/x_{n+1} and
    2/x_{n+1}."""
    if max_width <= 0:
        raise ValueError("max_width must be positive")
    src = as_store(source, budget)
    n = 2
    while True:
        x_next = src.x(n + 1)
        if Fraction(1, x_next) <= max_width:
            s = src.partial_sum(n)
            return s + Fraction(1, x_next), s + Fraction(2, x_next)
        n += 1


def certified_decimal(lo: Fraction, hi: Fraction, max_digits: int = 30) -> str:
    """Decimal string of a bracketed value, printing only digits that are
    the same for every number in [lo, hi] (truncated, not rounded)."""
    if lo > hi:
        raise ValueError("empty interval")
    for d in range(max_digits, -1, -1):
        scale = 10**d
        vlo = (lo.numerator * scale) // lo.denominator
        vhi = (hi.numerator * scale) // hi.denominator
        if vlo == vhi:
            digits = str(vlo).rjust(d + 1, "0")
            if d == 0:
                return digits
            return f"{digits[:-d]}.{digits[-d:]}"
    return ""
