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
from fractions import Fraction

from .cf import CFExpansion, convergents, expand_rational
from .exceptions import ClassMismatch, IdentityViolation, InsufficientFactors
from .sequences import (  # SeriesSource and SourceLike are re-exported from here
    BitBudget,
    FactorSequence,
    SeriesClass,
    SeriesSource,
    SourceLike,
    as_store,
    from_factors,
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


def _require_factors(zs: FactorSequence, n: int) -> list[int]:
    out = []
    for j in range(2, n + 1):
        z = zs.factor(j)
        if z is None:
            raise InsufficientFactors(f"need z_{j} but the factor list ends earlier")
        out.append(z)
    return out


def generic_recursion_raw(zs: FactorSequence, n: int) -> list[int]:
    """The generic doubling recursion run formally, with no class guard.

    For z_2 = 2 or unit factors the output contains zero coefficients; it is
    the raw material the zero-removal rule is checked against.
    """
    if n < 3:
        raise ValueError("raw recursion starts at n = 3")
    z = _require_factors(zs, n)
    cur = [1, z[0] - 1, 1, z[1] - 1, z[0]]
    for m in range(3, n):
        cur = _generic_step(cur, z[m - 1])
    return cur


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
    z = _require_factors(zs, n)
    cur = [1, 1, 1, z[1] - 1, 2, z[2] - 1, 1, 1, z[1] - 1, 2]
    for m in range(4, n):
        cur = _z2_step(cur, z[m - 1])
    assert len(cur) == 5 * 2 ** (n - 3)
    return PartialCF(n, CFExpansion(tuple(cur)))


def _split_representative(src: SeriesSource, n: int) -> bool:
    # The ones-tail base u = 2 reports S_n, n >= 4, in the other
    # representative of the same rational, one coefficient longer:
    # [..., a] -> [..., a-1, 1].
    return src.series_class is SeriesClass.ONES_TAIL and src.u == 2 and n >= 4


def partial_cf(source: SourceLike, n: int, budget: BitBudget | None = None) -> PartialCF:
    """Expansion of S_n for any source, dispatching on its class.

    Generic and z_2 = 2 sources use their recursions; ones-tail and mixed
    sources fall back to the Euclidean expansion of the exact partial sum.
    For the ones-tail base u = 2 and n >= 4 the expansion is reported with
    the final quotient split ([..., a] -> [..., a-1, 1]), the representative
    whose lengths follow the 2^(n-3) + 3 doubling pattern; the value is
    unchanged.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    src = as_store(source, budget)
    if n == 1:
        return PartialCF(1, CFExpansion((1,)))
    if n == 2:
        return PartialCF(2, CFExpansion((1, src.x(2))))
    klass = src.series_class
    if klass is SeriesClass.GENERIC:
        return generic_partial_cf(FactorSequence(tuple(src.factors_through(n))), n)
    if klass is SeriesClass.Z2_EQUALS_2:
        zs = FactorSequence(tuple(src.factors_through(n)))
        if n == 3:
            return PartialCF(3, CFExpansion((1, 1, 1, zs.factor(3) - 1, 2)))
        return z2eq2_partial_cf(zs, n)
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

    Recursion-backed classes extend their partial expansion and additionally
    emit the one coefficient the next step pins down from the next factor
    alone (z_{n+1}-1, preceded by the forced 1, 1 in the z_2 = 2 class).
    Oracle-backed classes emit the interval oracle's common prefix. Emitted
    coefficients never change; that is asserted on every advance.
    """

    def __init__(self, source: SourceLike, budget: BitBudget | None = None,
                 force_oracle: bool = False):
        self._src = as_store(source, budget)
        self.series_class = self._src.series_class
        self._oracle = force_oracle or self.series_class in (
            SeriesClass.ONES_TAIL,
            SeriesClass.MIXED,
        )
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
        if self._oracle:
            self._advance_oracle()
        elif self.series_class is SeriesClass.GENERIC:
            self._advance_generic()
        else:
            self._advance_z2()

    def _need_factor(self, j: int) -> int:
        z = self._src.factor(j)
        if z is None:
            raise InsufficientFactors(f"certification needs z_{j}; the factor list ends earlier")
        return z

    def _advance_generic(self):
        if self._cur is None:
            z2, z3 = self._need_factor(2), self._need_factor(3)
            self._cur = [1, z2 - 1, 1, z3 - 1, z2]
            self._n = 3
        else:
            self._cur = _generic_step(self._cur, self._need_factor(self._n + 1))
            self._n += 1
        self.lengths.append(len(self._cur))
        self.n_used = self._n
        z_next = self._src.factor(self._n + 1)
        bonus = [z_next - 1] if z_next is not None else []
        self._set_emitted(self._cur + bonus)

    def _advance_z2(self):
        if self._cur is None:
            z3, z4 = self._need_factor(3), self._need_factor(4)
            self._cur = [1, 1, 1, z3 - 1, 2, z4 - 1, 1, 1, z3 - 1, 2]
            self._n = 4
        else:
            self._cur = _z2_step(self._cur, self._need_factor(self._n + 1))
            self._n += 1
        self.lengths.append(len(self._cur))
        self.n_used = self._n
        z_next = self._src.factor(self._n + 1)
        # Only the final coefficient of the partial is still mutable; the
        # next step replaces it by 1, 1, z_{n+1}-1.
        bonus = [1, 1, z_next - 1] if z_next is not None else []
        self._set_emitted(self._cur[:-1] + bonus)

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
    x_next = from_factors(zs, n + 1).x[n]
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
