"""Integer sequences with the square-divisibility property x_n^2 | x_{n+1}.

A sequence of this kind is determined by its factor sequence (z_n) via

    x_1 = 1,   x_{k+1} = z_{k+1} * x_k^2,

so x_n is the product of z_j^(2^(n-j)) for j = 2..n. The module builds such
sequences from explicit factors, from second- and third-order nonlinear
recurrences whose all-ones initial data force integrality, and from
power-sum exponent lists; it also inverts a sequence back to its factors
and computes exact partial sums of the reciprocals.

Every source supplies z_{k+1} by its step rule, and one runner,
SeriesSource._run, forms x_{k+1} in a number kind: exact ints, which the
store keeps, or brackets, which bound a term without forming it. The
stored terms satisfy x_k^2 | x_{k+1} by construction and are never
re-checked. Terms from outside the program are checked where they come in:
factors_from_sequence and partial_sum divide each one exactly. A
recurrence's step identities write z_{k+1} as a product of integer powers,
so nothing is divided; the tests keep the dividing recurrence as the
oracle and run the same runner on residues mod a 61-bit prime.

Terms grow doubly exponentially, so the term store charges the exact
size of each term a call forms, read from the term's head, against an
explicit bit budget before the call forms any of them. The budget is set
on the store (SeriesSource) and nowhere else; reading a head is free.
"""

import enum
import operator
from typing import Sequence, Union

from ._value import _Value
from .exceptions import (
    BitBudgetExceeded,
    DivisibilityViolation,
    IdentityViolation,
    InsufficientFactors,
    InvalidSpec,
    NegativeGap,
)

DEFAULT_BITS = 1 << 26


class BudgetMeter:
    """Charges generated terms against ``bits`` in all, and half of it per term."""

    def __init__(self, bits: int):
        bits = operator.index(bits)
        if bits < 1:
            raise InvalidSpec(f"the bit budget must be at least 1, got {bits}")
        self.single, self.total = max(1, bits >> 1), bits
        self.total_bits = 0

    def charge(self, sizes):
        """Charge the (what, bits) pairs of ``sizes`` in order: each against
        the single-term cap, then the running sum against the total. All of
        them are charged or, when one passes a cap, none."""
        total = self.total_bits
        for what, bits in sizes:
            if bits > self.single:
                raise BitBudgetExceeded(bits, self.single, what)
            total += bits
            if total > self.total:
                raise BitBudgetExceeded(total, self.total, "cumulative size")
        self.total_bits = total


class SeriesClass(enum.Enum):
    GENERIC = "generic"
    Z2_EQUALS_2 = "z2_equals_2"
    ONES_TAIL = "ones_tail"
    MIXED = "mixed"


class FactorSequence(_Value):
    """The factors z_2, z_3, ... defining a square-divisibility sequence.

    ``tail_ones`` marks a source that continues with z_j = 1 forever past the
    explicit entries, which is how the power-sum series u^(-1) + u^(-2) +
    u^(-4) + ... arise (all factors 1 from z_3 on).
    """

    __slots__ = _fields = ("z", "tail_ones")

    def __init__(self, z: Sequence[int], tail_ones: bool = False):
        self._init(tuple(map(operator.index, z)), tail_ones)
        if not self.z:
            raise InvalidSpec("need at least the first factor z_2")
        if self.z[0] < 2:
            raise InvalidSpec(f"z_2 must be >= 2, got {self.z[0]}")
        for j, v in enumerate(self.z[1:], start=3):
            if v < 1:
                raise InvalidSpec(f"z_{j} must be positive, got {v}")

    @property
    def series_class(self) -> SeriesClass:
        rest = self.z[1:]
        if self.tail_ones:
            if all(v == 1 for v in rest):
                return SeriesClass.ONES_TAIL
            return SeriesClass.MIXED
        if all(v >= 2 for v in rest):
            return SeriesClass.GENERIC if self.z[0] >= 3 else SeriesClass.Z2_EQUALS_2
        if rest and all(v == 1 for v in rest):
            return SeriesClass.ONES_TAIL
        return SeriesClass.MIXED

    def factor(self, j: int) -> int | None:
        """z_j for j >= 2, or None when the finite list is exhausted."""
        j = operator.index(j)
        if j < 2:
            raise IndexError("factors start at j = 2")
        idx = j - 2
        if idx < len(self.z):
            return self.z[idx]
        return 1 if self.tail_ones else None

    def require(self, j: int) -> int:
        """z_j; raises InsufficientFactors when the finite list is exhausted."""
        z = self.factor(j)
        if z is None:
            raise InsufficientFactors(f"need z_{j} but only {len(self.z)} factors given")
        return z


def ones_tail(u: int) -> FactorSequence:
    """The unbounded source z = (u, 1, 1, ...), i.e. x_n = u^(2^(n-2))."""
    if operator.index(u) < 2:
        raise InvalidSpec("u must be >= 2")
    return FactorSequence((u,), tail_ones=True)


def _factor_walk(xs: Sequence[int]) -> list[int]:
    # z_i = x_i / x_{i-1}^2 for i = 2..len(xs), each division checked exact.
    z = []
    for i in range(1, len(xs)):
        if xs[i] <= 0:
            raise InvalidSpec(f"non-positive term at position {i + 1}")
        q, r = divmod(xs[i], xs[i - 1] ** 2)
        if r:
            raise DivisibilityViolation(i + 1)
        z.append(q)
    return z


def from_factors(source: "SourceLike", n: int) -> list[int]:
    """x_1..x_n of any source in the Engel indexing (leading 1s collapsed),
    as a new list. The store forms x_{k+1} = z_{k+1} * x_k^2, so x_k^2
    divides x_{k+1} by construction and no term is divided again."""
    n = operator.index(n)
    if n < 1:
        raise InvalidSpec("n must be >= 1")
    src = as_store(source)
    src._grow(n + src._pad)
    return src._terms[src._pad:n + src._pad]


def strip_leading_ones(raw: Sequence[int]) -> tuple[int, ...]:
    """Normalize raw recurrence output to the x_1 = 1 indexing.

    Recurrence initial data contribute several leading 1s; all but one are
    dropped so the two numbering schemes meet deterministically.
    """
    terms = list(map(operator.index, raw))
    if not terms or terms[0] != 1:
        raise InvalidSpec("sequence must start with 1")
    i = 0
    while i < len(terms) and terms[i] == 1:
        i += 1
    return (1,) + tuple(terms[i:])


def factors_from_sequence(raw: Sequence[int]) -> FactorSequence:
    """Invert a sequence to its factors z_n = x_n / x_{n-1}^2 exactly.

    Leading 1s beyond a single one are stripped first. Raises InvalidSpec
    at the first non-positive term and DivisibilityViolation at the first
    index where the square fails to divide.
    """
    xs = strip_leading_ones(raw)
    if len(xs) < 2:
        raise InvalidSpec("need at least one term beyond the leading 1")
    return FactorSequence(tuple(_factor_walk(xs)))


# ---------------------------------------------------------------------------
# Recurrence specs
# ---------------------------------------------------------------------------


class SecondOrderSpec(_Value):
    """x_{n+2} x_n = x_{n+1}^d1 * G(x_{n+1}) with x_0 = x_1 = 1.

    G is a dense coefficient list, constant term first, so the integrality
    requirements (G(0) != 0, non-negative coefficients) are syntactic checks.
    G(1) >= 3 gives the generic family; G(1) = 2 forces G = x^d2 + 1, the
    degenerate family whose series has z_2 = 2.
    """

    __slots__ = _fields = ("d1", "g")

    def __init__(self, d1: int, g: Sequence[int]):
        self._init(operator.index(d1), tuple(map(operator.index, g)))
        if self.d1 < 3:
            raise InvalidSpec(f"d1 must be >= 3, got {self.d1}")
        if not self.g:
            raise InvalidSpec("G has no coefficients")
        if any(c < 0 for c in self.g):
            raise InvalidSpec("G must have non-negative coefficients")
        if self.g[0] == 0:
            raise InvalidSpec("G(0) must be nonzero")
        if len(self.g) > 1 and self.g[-1] == 0:
            raise InvalidSpec("leading coefficient of G is zero; drop trailing zeros")
        if self.g1 < 2:
            raise InvalidSpec(f"G(1) must be >= 2, got {self.g1}")

    @property
    def d2(self) -> int:
        return len(self.g) - 1

    @property
    def c(self) -> int:
        """Leading coefficient of G."""
        return self.g[-1]

    @property
    def g1(self) -> int:
        return sum(self.g)

    def G(self, x: int) -> int:
        acc = 0
        for coeff in reversed(self.g):
            acc = acc * x + coeff
        return acc


class ThirdOrderSpec(_Value):
    """X_{n+3} X_n = X_{n+1}^e1 * X_{n+2}^e2 * H(X_{n+1}, X_{n+2}),
    X_0 = X_1 = X_2 = 1.

    H is a sparse term list (i, j, coeff). It must not be divisible by
    either argument, i.e. some term has i = 0 and some term has j = 0.
    """

    __slots__ = _fields = ("e1", "e2", "h")

    def __init__(self, e1: int, e2: int, h: Sequence[tuple[int, int, int]]):
        index = operator.index
        self._init(index(e1), index(e2),
                   tuple(sorted((index(i), index(j), index(c)) for (i, j, c) in h)))
        if self.e1 < 1:
            raise InvalidSpec(f"e1 must be >= 1, got {self.e1}")
        if self.e2 < 2:
            raise InvalidSpec(f"e2 must be >= 2, got {self.e2}")
        if not self.h:
            raise InvalidSpec("H has no terms")
        seen = set()
        for (i, j, coeff) in self.h:
            if i < 0 or j < 0:
                raise InvalidSpec("H exponents must be non-negative")
            if coeff <= 0:
                raise InvalidSpec("H terms must have positive coefficients")
            if (i, j) in seen:
                raise InvalidSpec(f"duplicate H term for exponents ({i},{j})")
            seen.add((i, j))
        if min(i for (i, _, _) in self.h) != 0 or min(j for (_, j, _) in self.h) != 0:
            raise InvalidSpec("H must not be divisible by either argument")
        if self.h11 < 2:
            raise InvalidSpec(f"H(1,1) must be >= 2, got {self.h11}")

    @property
    def h11(self) -> int:
        return sum(c for (_, _, c) in self.h)

    def H(self, x: int, y: int) -> int:
        return sum(c * x**i * y**j for (i, j, c) in self.h)


RecurrenceSpec = Union[SecondOrderSpec, ThirdOrderSpec]


def lift_spec(spec2: SecondOrderSpec) -> ThirdOrderSpec:
    """Lift x_{n+2} x_n = x_{n+1}^d1 G(x_{n+1}) to third order by the
    factorization x_n = X_n X_{n+1}:

        X_{n+3} X_n = (X_{n+1} X_{n+2})^(d1-1) * G(X_{n+1} X_{n+2}).

    The lifted sequence satisfies X_n * X_{n+1} = x_n for all n.
    """
    terms = tuple((k, k, c) for k, c in enumerate(spec2.g) if c)
    return ThirdOrderSpec(spec2.d1 - 1, spec2.d1 - 1, terms)


# ---------------------------------------------------------------------------
# The term store
# ---------------------------------------------------------------------------


def _factor_step(factors: FactorSequence, xs: list[int], _: list[int]) -> int:
    # z_{k+1} from the list, where xs holds x_1..x_k.
    return factors.require(len(xs) + 1)


def _second_order_step(spec: SecondOrderSpec, xs: list[int], zs: list[int]) -> int:
    # x_{m+1} x_{m-1} = x_m^d1 G(x_m) and x_m = z_m x_{m-1}^2 give
    # z_{m+1} = z_m^(d1-2) x_{m-1}^(2 d1-5) G(x_m), integral as d1 >= 3.
    return zs[-1] ** (spec.d1 - 2) * xs[-2] ** (2 * spec.d1 - 5) * spec.G(xs[-1])


def _third_order_step(spec: ThirdOrderSpec, xs: list[int], zs: list[int]) -> int:
    # The recurrence and X_{n+1} = Z_{n+1} X_n^2 give Z_{n+3} = Z_{n+1}^e1
    # X_n^(2 e1-1) X_{n+2}^(e2-2) H(X_{n+1}, X_{n+2}), integral as e1 >= 1, e2 >= 2.
    return (zs[-2] ** spec.e1 * xs[-3] ** (2 * spec.e1 - 1) * xs[-1] ** (spec.e2 - 2)
            * spec.H(xs[-2], xs[-1]))


_HEAD_PRECISION = 128  # bits of a store's first bracket run
_HEAD_BITS = 64  # top bits of a term that head returns, as log_big reads them


def _ceil_shift(v: int, s: int) -> int:
    return -(-v >> s)


class _Bracket:
    """lo * 2^e <= v <= hi * 2^e for a non-negative integer v, with hi cut
    to ``prec`` bits (lo rounded down, hi up). Products, sums and powers
    with ints and other brackets keep the enclosure, since every operand is
    non-negative; 0 and 1 stay exact ints so that G and H evaluate on it."""

    __slots__ = ("lo", "hi", "e", "prec")

    def __init__(self, lo: int, hi: int, e: int, prec: int):
        s = hi.bit_length() - prec
        if s > 0:
            lo, hi, e = lo >> s, _ceil_shift(hi, s), e + s
        self.lo, self.hi, self.e, self.prec = lo, hi, e, prec

    def __mul__(self, other):
        if not isinstance(other, _Bracket):
            if other in (0, 1):
                return self if other else 0
            other = _Bracket(other, other, 0, self.prec)
        return _Bracket(self.lo * other.lo, self.hi * other.hi, self.e + other.e, self.prec)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, _Bracket):
            if not other:
                return self
            other = _Bracket(other, other, 0, self.prec)
        e = max(self.e, other.e)
        s, t = e - self.e, e - other.e
        return _Bracket((self.lo >> s) + (other.lo >> t),
                        _ceil_shift(self.hi, s) + _ceil_shift(other.hi, t), e, self.prec)

    __radd__ = __add__

    def __pow__(self, k: int):
        if k in (0, 1):
            return self if k else 1
        return _Bracket(self.lo**k, self.hi**k, self.e * k, self.prec)


def _enclose(v, prec: int):
    # v as a bracket when it has more than prec bits; smaller ints stay exact.
    if isinstance(v, int) and v.bit_length() > prec:
        return _Bracket(v, v, 0, prec)
    return v


def _int_head(v: int) -> tuple[int, int]:
    length = v.bit_length()
    return length, v >> max(length - _HEAD_BITS, 0)


def _bracket_head(v):
    # head's read: both ends of a bracket must agree on the bit length and
    # the top bits.
    if isinstance(v, int):
        return _int_head(v)
    length = v.hi.bit_length() + v.e
    if v.lo.bit_length() + v.e != length:
        return None
    s = max(length - _HEAD_BITS, 0) - v.e
    lo, hi = (v.lo >> s, v.hi >> s) if s >= 0 else (v.lo << -s, v.hi << -s)
    return (length, lo) if lo == hi else None


class SeriesSource:
    """The memoized term store: lazy terms x_n, factors z_j and exact
    partial sums S_n of one series.

    Accepts explicit factors or a recurrence spec (terms re-indexed so that
    x_1 = 1); factors_from_sequence turns a built sequence into factors.
    ``rule`` is the factor list or spec the terms come from. _run steps it
    in a number kind: _exact forms each term once, after _grow has charged
    its exact size to the store's bit budget, and the bracket kind encloses
    terms it does not form.
    Functions that accept a ``SourceLike`` share a store's terms and budget.
    """

    def __init__(self, source: "SourceLike", bits: int = DEFAULT_BITS):
        self._meter = BudgetMeter(bits)
        self._nums: list[int] = [1]  # numerator of S_n over x_n
        self.rule = source
        # _terms is the raw sequence: a spec's all-ones initial data, then
        # x_2, x_3, ...; x_n sits at _terms[n - 1 + _pad] and z_n at the
        # same index of _factors (1 for each initial 1).
        if isinstance(source, FactorSequence):
            self.series_class = source.series_class
            self._step, self._terms = _factor_step, [1]
        elif isinstance(source, (SecondOrderSpec, ThirdOrderSpec)):
            second = isinstance(source, SecondOrderSpec)
            g1 = source.g1 if second else source.h11
            self.series_class = SeriesClass.GENERIC if g1 >= 3 else SeriesClass.Z2_EQUALS_2
            self._step = _second_order_step if second else _third_order_step
            self._terms = [1, 1] if second else [1, 1, 1]
        else:
            raise TypeError(f"cannot stream from {type(source).__name__}")
        self._factors = [1] * len(self._terms)
        self._pad = len(self._terms) - 1
        self._bracket = None  # the bracket run (prec, xs, zs), see _bracket_term

    def _run(self, xs: list, zs: list, count: int, form):
        # The one step loop, on raw lists: the step rule gives z_{k+1} and
        # the number kind form(z_{k+1}, x_k) the (z_{k+1}, x_{k+1}) to append.
        while len(xs) < count:
            z, x = form(self._step(self.rule, xs, zs), xs[-1])
            xs.append(x)
            zs.append(z)

    def _exact(self, z: int, x: int) -> tuple[int, int]:
        # The exact kind: x_{k+1}; a formed term ends the bracket run.
        self._bracket = None
        return z, z * x ** 2

    def _grow(self, count: int):
        # The one place a term is refused or formed. The meter charges the
        # heads' exact sizes before anything is formed, read lazily and in
        # order, so a short factor list fails at the term a run would reach.
        first = len(self._terms) + 1 - self._pad
        self._meter.charge((f"x_{n}", self.head(n)[0])
                           for n in range(first, count + 1 - self._pad))
        self._run(self._terms, self._factors, count, self._exact)

    def _raw(self, n: int, first: int = 1) -> int:
        # The raw index of x_n and z_n, checked before anything is formed:
        # an int index, n >= 1 for terms and n >= 2 for factors.
        n = operator.index(n)
        if n < first:
            raise IndexError("terms start at n = 1" if first == 1 else "factors start at j = 2")
        return n - 1 + self._pad

    def x(self, n: int) -> int:
        i = self._raw(n)
        self._grow(i + 1)
        return self._terms[i]

    def head(self, n: int) -> tuple[int, int]:
        """(bit_length, top) of x_n, with top = x_n >> max(bit_length - 64, 0).

        A term the store holds is read exactly. Any other is never formed,
        and nothing is charged: the store's bracket run is stepped to x_n,
        and its precision doubles until both ends of x_n's bracket give the
        same bit length and top bits (Ziv's strategy, ACM TOMS 17(3), 1991).
        That ends: a run of prec bits keeps every value of at most prec bits
        an exact int, and no value a step forms exceeds the term it forms,
        so once prec covers x_n the whole run is exact. A head starts at the
        precision of the run the store holds, so it never falls within a run.
        """
        i = self._raw(n)
        if i < len(self._terms):
            return _int_head(self._terms[i])
        prec = self._bracket[0] if self._bracket else _HEAD_PRECISION
        while (value := _bracket_head(self._bracket_term(i, prec))) is None:
            prec *= 2
        return value

    def _bracket_term(self, i: int, prec: int):
        # The term at raw index i, by _run with the bracket kind on copies of
        # the term lists, which keep their length; the rules read at most
        # the last three entries. The store holds one run, restarted from the
        # formed terms at another prec and ended when the exact kind appends
        # a term, so reads through n at one prec take n steps in all.
        if self._bracket is None or self._bracket[0] != prec:
            self._bracket = (prec,
                             self._terms[:-3] + [_enclose(v, prec) for v in self._terms[-3:]],
                             self._factors[:-3] + [_enclose(v, prec) for v in self._factors[-3:]])
        _, xs, zs = self._bracket

        def form(z, x):
            z = _enclose(z, prec)
            return z, _enclose(z * x ** 2, prec)

        self._run(xs, zs, i + 1, form)
        return xs[i]

    def factor(self, j: int) -> int | None:
        """z_j for j >= 2, or None when a finite factor list is exhausted."""
        i = self._raw(j, 2)
        if isinstance(self.rule, FactorSequence):
            return self.rule.factor(i + 1)  # a factor list has no pad
        self._grow(i + 1)
        return self._factors[i]

    def require(self, j: int) -> int:
        """z_j for j >= 2; raises InsufficientFactors past a finite list."""
        if isinstance(self.rule, FactorSequence):
            return self.rule.require(self._raw(j, 2) + 1)  # a factor list has no pad
        return self.factor(j)

    def factors_through(self, j_max: int) -> list[int]:
        """z_2..z_{j_max}; raises InsufficientFactors past a finite list."""
        return [self.require(j) for j in range(2, j_max + 1)]

    def numerator(self, n: int) -> int:
        """N_n with S_n = N_n / x_n, maintained incrementally:
        N_n = N_{n-1} * y_n + 1 with y_n = x_n / x_{n-1} = z_n * x_{n-1}.
        The paper's congruence makes it coprime to x_n, so no gcd is taken."""
        i = self._raw(n)
        self._grow(i + 1)
        terms, zs, pad = self._terms, self._factors, self._pad
        while len(self._nums) + pad <= i:
            k = len(self._nums) + pad
            self._nums.append(self._nums[-1] * zs[k] * terms[k - 1] + 1)
        return self._nums[i - pad]

    def partial_sum(self, n: int) -> "Fraction":
        """Exact S_n as a reduced Fraction."""
        from fractions import Fraction

        return Fraction(self.numerator(n), self.x(n))


SourceLike = Union[SeriesSource, FactorSequence, SecondOrderSpec, ThirdOrderSpec]


def as_store(source: SourceLike) -> SeriesSource:
    """``source`` as a term store. A SeriesSource passes through unchanged
    and keeps charging its own budget; anything else gets a fresh store."""
    return source if isinstance(source, SeriesSource) else SeriesSource(source)


def generate_recurrence(source: SourceLike, n: int) -> list[int]:
    """First n raw terms of any source: x_1..x_n for factors, and for a
    recurrence from its all-ones initial data (x_0 = x_1 = 1, or X_0 = X_1 = X_2 = 1).

    Nothing is divided: the term store's step identities build each term
    of a valid spec from integer powers. The tests check the result against
    the dividing recurrence with every division checked exact.
    """
    n = operator.index(n)
    if n < 1:
        raise InvalidSpec("n must be >= 1")
    store = as_store(source)
    store._grow(n)
    return store._terms[:n]


# ---------------------------------------------------------------------------
# Partial sums
# ---------------------------------------------------------------------------


def closed_form_numerator(z: Sequence[int], n: int) -> int:
    """Numerator of S_n over the denominator x_n, evaluated term by term:

        sum_{j=1}^{n-1} prod_{k=2}^{j} z_k^(2^(n-k) - 2^(j-k))
                        * prod_{l=j+1}^{n} z_l^(2^(n-l))   + 1.

    ``z[0]`` is z_2. Independent of the naive summation path; partial_sum
    checks the two against each other.
    """
    n = operator.index(n)
    if n < 1:
        raise InvalidSpec("n must be >= 1")
    z = tuple(map(operator.index, z))
    if len(z) < n - 1:
        raise InvalidSpec(f"S_{n} needs z_2..z_{n}; z_{len(z) + 2} is missing")
    total = 1
    for j in range(1, n):
        term = 1
        for k in range(2, j + 1):
            term *= z[k - 2] ** (2 ** (n - k) - 2 ** (j - k))
        for l in range(j + 1, n + 1):
            term *= z[l - 2] ** (2 ** (n - l))
        total += term
    return total


def partial_sum(x: Sequence[int], n: int) -> "Fraction":
    """Exact S_n = sum_{j=1}^{n} 1/x_j of a list of terms x_1, x_2, ...

    The terms may come from anywhere, so x_1..x_n are checked before they
    are summed: InvalidSpec unless x_1 = 1 and every term is positive,
    DivisibilityViolation where x_{j-1}^2 does not divide x_j.

    The reduced denominator equals x_n: the closed-form numerator is
    congruent to 1 modulo every prime dividing x_n. The naive summation is
    cross-checked against the closed form, which shares no code with it.
    """
    from fractions import Fraction

    xs = tuple(map(operator.index, x))
    if not 1 <= n <= len(xs):
        raise InvalidSpec(f"n must be in 1..{len(xs)}")
    if xs[0] != 1:
        raise InvalidSpec("sequence must start with x_1 = 1")
    z = _factor_walk(xs[:n])
    naive = Fraction(0)
    for v in xs[:n]:
        naive += Fraction(1, v)
    if naive.denominator != xs[n - 1]:
        raise IdentityViolation(f"reduced denominator {naive.denominator} != x_{n}")
    if closed_form_numerator(z, n) != naive.numerator:
        raise IdentityViolation(f"closed-form numerator mismatch at n = {n}")
    return naive


# ---------------------------------------------------------------------------
# Power-sum (exponent list) import
# ---------------------------------------------------------------------------


def shallit_factors(u: int, c: Sequence[int]) -> FactorSequence:
    """Factors of the series 1 + sum_k u^(-c_k).

    Requires d_k = c_{k+1} - 2*c_k >= 0 for every k, in which case
    z_2 = u^(c_0) and z_j = u^(d_(j-3)) for j >= 3, and the partial sums
    satisfy S_n - 1 = sum_{k=0}^{n-2} u^(-c_k) exactly.
    """
    if operator.index(u) < 2:
        raise InvalidSpec("u must be >= 2")
    cs = list(map(operator.index, c))
    if not cs:
        raise InvalidSpec("need at least one exponent")
    if any(v < 1 for v in cs):
        raise InvalidSpec("exponents must be positive")
    gaps = []
    for k in range(len(cs) - 1):
        d = cs[k + 1] - 2 * cs[k]
        if d < 0:
            raise NegativeGap(f"d_{k} = c_{k + 1} - 2*c_{k} = {d} < 0")
        gaps.append(d)
    z = (u ** cs[0],) + tuple(u**d for d in gaps)
    return FactorSequence(z)


# ---------------------------------------------------------------------------
# Spec text: integer lists and the single-line spec file format
# ---------------------------------------------------------------------------


def parse_ints(text: str, what: str, width: int = 0) -> tuple:
    """The integer lists of the spec grammar: ``3,9,81`` (factors, G) as a
    tuple, or with ``width`` k the terms ``i,j,coeff;...`` (H, k = 3) as
    k-tuples. InvalidSpec names the first bad token and ``what``."""
    if width:
        terms = []
        for chunk in text.split(";"):
            terms.append(parse_ints(chunk, what))
            if len(terms[-1]) != width:
                raise InvalidSpec(f"{what}: term {chunk!r} needs {width} integers")
        return tuple(terms)
    values = []
    for token in text.split(","):
        try:
            values.append(int(token))
        except ValueError:
            raise InvalidSpec(f"{what}: {token!r} is not an integer") from None
    return tuple(values)


def _pop_int(fields: dict, key: str) -> int:
    # A scalar field of a spec line; KeyError when it is missing.
    token = fields.pop(key)
    try:
        return int(token)
    except ValueError:
        raise InvalidSpec(f"{key}=: {token!r} is not an integer") from None


def parse_spec_line(line: str) -> RecurrenceSpec:
    """A validated spec from one key=value line, such as
    ``order=2 d1=3 G=1,2`` or ``order=3 e1=2 e2=2 H=0,0,1;1,1,2``
    (G constant term first; H terms are i,j,coeff separated by ';').
    """
    fields = {}
    for token in line.split():
        key, eq, value = token.partition("=")
        if not eq:
            raise InvalidSpec(f"malformed token {token!r}")
        if key in fields:
            raise InvalidSpec(f"repeated key {key}=")
        fields[key] = value
    try:
        order = _pop_int(fields, "order")
    except KeyError:
        raise InvalidSpec("missing order=") from None
    if order == 2:
        try:
            d1 = _pop_int(fields, "d1")
            g = parse_ints(fields.pop("G"), "G=")
        except KeyError as exc:
            raise InvalidSpec(f"missing {exc} for order=2") from None
        spec: RecurrenceSpec = SecondOrderSpec(d1, g)
    elif order == 3:
        try:
            e1 = _pop_int(fields, "e1")
            e2 = _pop_int(fields, "e2")
            terms = parse_ints(fields.pop("H"), "H=", 3)
        except KeyError as exc:
            raise InvalidSpec(f"missing {exc} for order=3") from None
        spec = ThirdOrderSpec(e1, e2, terms)
    else:
        raise InvalidSpec(f"unsupported order {order}")
    if fields:
        raise InvalidSpec(f"unknown keys: {sorted(fields)}")
    return spec
