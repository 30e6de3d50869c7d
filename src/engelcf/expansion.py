"""Continued fractions of the partial sums S_n = sum 1/x_j and of the limit.

Two mechanisms produce the coefficients:

  * the folding rule. S_{n+1} = S_n + 1/(z_{n+1} x_n^2), and x_n is the
    final convergent denominator of S_n, so when [a_0; a_1, ..., a_l] is
    the odd-length representative of S_n (det M = -1),

        [a_0; a_1, ..., a_l, z_{n+1}-1, 1, a_l-1, a_{l-1}, ..., a_1]

    is S_{n+1} (the folding lemma; Mendes France 1973, van der Poorten and
    Shallit 1992). A factor z = 1 or a final a_l = 1 leaves zeros at the
    junction, which [a, 0, b] -> [a+b] removes. Seeded from
    S_2 = [1; z_2-1, 1], it gives every partial sum of every class without
    Euclid; generic lengths follow l_n = 3*2^(n-2) - 1 and z_2 = 2 lengths
    5*2^(n-3). For factors z_j >= 2 a fold keeps the representative it
    starts from, which is why the stream can certify it.

  * the interval oracle, which streams ones-tail and mixed factor lists:
    S lies strictly between S_n and S_n + 2/x_{n+1}, because
    x_{j+1} >= x_j^2 and x_{n+1} >= 2 bound the tail by a geometric sum.
    The common prefix of both endpoints' expansions, minus its final
    coefficient as the standard safety margin, is certified with no
    structural knowledge at all. The bound is crude but rigorous, chosen
    over tighter ones for auditability.

    The intervals nest, so each advance resumes where the last one
    stopped (Gosper, HAKMEM item 101, 1972). The stream keeps the product
    M of the matrices [[a, 1], [1, 0]] of the c emitted coefficients, with
    det M = (-1)^c, and maps the lower endpoint lo, an integer pair with no
    gcd, through M^-1. The store builds lo_n = s'*lo_{n-1} + (1, 0) with
    s' = z_n*x_{n-1}, so the image is s'*M^-1 lo_{n-1} + M^-1 (1, 0), on
    half-size operands. A mapped pair (A, B) with A > B > 0 proves that lo
    expands as the emitted prefix followed by the expansion of A/B, which
    Euclid computes, with g = gcd(A, B) and the second column of the tail's
    convergent matrix T. F = M*T maps (g, 0) to lo, so only F's second
    column is multiplied out. The upper endpoint is neither mapped nor
    expanded: with s = z_{n+1}*x_n it is s*lo + (2, 0) exactly, so at each
    point of the lower tail its mapped pair is s times lo's Euclid
    remainders plus twice a column of the convergent matrix there. A walk
    back from the tail's end finds, within two steps, a point where that
    pair is ordered, and divmod steps from there find where the upper
    endpoint's expansion leaves the lower one's (see _walk). The newly
    certified block extends the emitted prefix in place, and M becomes the
    convergent matrix the walk passed at its end. The checks cannot fail
    on a state the stream built (see EngelStream._advance_oracle), so a
    failed one raises IdentityViolation.

Partial-sum constructions are pure; a stream is a stateful single-consumer
object (distinct streams are independent).
"""

import operator
from typing import NamedTuple

from .cf import (
    CFExpansion,
    Matrix,
    _merge_zeros,
    expand_rational,
)
from .exceptions import IdentityViolation, InvalidSpec
from .sequences import (  # SeriesSource and SourceLike are re-exported from here
    SeriesClass,
    SeriesSource,
    SourceLike,
    as_store,
)


# ---------------------------------------------------------------------------
# The folding rule
# ---------------------------------------------------------------------------


def _fold(cur: list[int], z: int) -> list[int]:
    # The odd-length representative of S_n to that of S_{n+1}: fold and
    # remove the junction's zeros. Only z-1 and a_l-1 can be 0, and
    # [a, 0, b] -> [a+b] never forms a 0, so normalize_zeros' rule repairs
    # the window [a_l, z-1, 1, a_l-1, a_{l-1}]. From L = len(cur) entries
    # and m merges the result has (L-1) + (5-2m) + (L-3) = 2L+1-2m: odd.
    window = [cur[-1], z - 1, 1, cur[-1] - 1, cur[-2]]
    _merge_zeros(window)
    out = cur[:-1]
    out += window
    out += cur[-3:0:-1]
    return out


def _folded(z: list[int]) -> list[int]:
    # The odd-length representative of S_n from z = [z_2, ..., z_n], n >= 2.
    cur = [1, z[0] - 1, 1]
    for z_next in z[1:]:
        cur = _fold(cur, z_next)
    return cur


def _split_representative(src: SeriesSource, n: int) -> bool:
    # The ones-tail base u = 2 reports S_n, n >= 4, in the other
    # representative of the same rational, one coefficient longer:
    # [..., a] -> [..., a-1, 1].
    return src.series_class is SeriesClass.ONES_TAIL and src.x(2) == 2 and n >= 4


def partial_cf(source: SourceLike, n: int) -> CFExpansion:
    """Expansion of S_n for any source, by the folding rule.

    The result is the canonical form, except for the ones-tail base u = 2
    and n >= 4, which is reported with the final quotient split
    ([..., a] -> [..., a-1, 1]), the representative whose lengths follow
    the 2^(n-3) + 3 doubling pattern; the value is unchanged. The final
    convergent denominator is x_n.
    """
    n = operator.index(n)
    if n < 1:
        raise InvalidSpec("n must be >= 1")
    src = as_store(source)
    src.x(n)  # charging x_n caps the fold too: its length is below 2^n <= 4*bits(x_n)
    if n == 1:
        return CFExpansion((1,))
    cur = _folded(src.factors_through(n))
    if cur[-1] == 1 and not _split_representative(src, n):  # zero-free: merge a final 1 only
        cur[-2:] = [cur[-2] + 1]
    return CFExpansion._trusted(cur)


def _euclid_cf(src: SeriesSource, n: int) -> tuple[int, ...]:
    # Euclid's expansion of S_n = N_n/x_n in the representative partial_cf
    # reports, which `cf --check oracle` compares coefficient for coefficient.
    coeffs = expand_rational(src.numerator(n), src.x(n)).coeffs
    if _split_representative(src, n):
        return coeffs[:-1] + (coeffs[-1] - 1, 1)
    return coeffs


def partial_lengths(source: SourceLike, n_max: int) -> list[int]:
    """Lengths of the partial-sum expansions for n = 1..n_max, computed from
    the Euclidean oracle in the reported representative."""
    n_max = operator.index(n_max)
    src = as_store(source)
    return [len(_euclid_cf(src, n)) for n in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# Certified streaming
# ---------------------------------------------------------------------------


class StreamResult(NamedTuple):
    """A certified batch: coefficients proven final, with provenance."""

    series_class: SeriesClass
    n_used: int
    certified: tuple[int, ...]
    lengths: tuple[int, ...]


class EngelStream:
    """Single-consumer stream of certified coefficients of the limit S.

    The generic and z_2 = 2 classes fold their partial expansion from
    n = 3 on and emit its odd-length representative followed by z_{n+1}-1,
    which every later fold keeps. When z_{n+1} is unknown they emit the
    representative, less a split final 1 and the coefficient before it.
    Every other class emits the interval oracle's common prefix; the class
    alone makes that choice, once per stream. The oracle resumes from the
    matrix of the emitted prefix: it expands only the tail of S_n past that
    prefix and places the upper endpoint against those quotients from their
    last remainders (_walk). Emitted coefficients never change: the checks
    prove it on every advance, and a failed check raises
    IdentityViolation.
    """

    def __init__(self, source: SourceLike):
        self._src = as_store(source)
        self.series_class = self._src.series_class
        self._folds = self.series_class in (SeriesClass.GENERIC, SeriesClass.Z2_EQUALS_2)
        self.emitted: list[int] = []
        self.lengths: list[int] = []
        self.n_used = 0
        self._cur: list[int] | None = None
        self._n = 1
        # The oracle's resume state: the product of the matrices
        # [[a, 1], [1, 0]] of the emitted coefficients.
        self._m = (1, 0, 0, 1)

    def take(self, count: int) -> list[int]:
        """Advance until at least ``count`` coefficients are certified and
        return the full certified prefix (possibly longer than asked)."""
        count = operator.index(count)
        if count < 1:
            raise InvalidSpec("count must be >= 1")
        while len(self.emitted) < count:
            self._advance()
        return list(self.emitted)

    def result(self) -> StreamResult:
        return StreamResult(self.series_class, self.n_used,
                            tuple(self.emitted), tuple(self.lengths))

    def _set_emitted(self, coeffs: list[int]):
        if coeffs[: len(self.emitted)] != self.emitted:
            raise IdentityViolation("previously emitted coefficients changed")
        self.emitted = coeffs

    def _advance(self):
        if not self._folds:
            self._advance_oracle()
            return
        if self._cur is None:
            self._n, self._cur = 3, _folded(self._src.factors_through(3))
        else:
            self._n += 1
            self._cur = _fold(self._cur, self._src.factors_through(self._n)[-1])
        cur = self._cur
        ends_in_one = cur[-1] == 1  # the canonical form of S_n is one shorter
        self.lengths.append(len(cur) - ends_in_one)
        self.n_used = self._n
        z_next = self._src.factor(self._n + 1)
        if z_next is not None:
            self._set_emitted(cur + [z_next - 1])
        else:
            self._set_emitted(cur[:-2] if ends_in_one else cur)

    def _advance_oracle(self):
        """Advance the interval oracle by one partial sum, resuming from M.

        lo = S_n is mapped as s'*lo_{n-1} + (1, 0) from the store's S_{n-1},
        and F*(g, 0) = lo gives F's first column. No check in _walk fails on
        a state built here. det M = (-1)^c, as M is the product of the c
        emitted coefficients' matrices. The enclosures nest: for n >= 2,
        x_{n+1} = z_{n+1} x_n^2 >= 2 x_n puts [S_n, S_n + 2/x_{n+1}] inside
        [S_{n-1}, S_{n-1} + 2/x_n]. The emitted prefix is an earlier
        advance's shared prefix less its last shared coefficient, so M maps
        the tails (1, inf) onto an interval holding both of that advance's
        endpoints, hence every point between them: lo, and hi at k = 0, map
        to ordered pairs. The first advance has M = I and lo = S_2 > 1. So a
        failed check is a broken invariant.
        """
        n = self._n = self._n + 1
        src = self._src
        src.x(n + 1)  # raises when the factor list ends
        # lo = S_n as a pair; hi = S_n + 2/x_{n+1} is s*lo + (2, 0).
        lo = (src.numerator(n), src.x(n))
        s = src.factor(n + 1) * lo[1]
        prev = (src.factor(n) * src.x(n - 1), src.numerator(n - 1), src.x(n - 1))
        c = len(self.emitted)
        walk = _walk(self._m, c, lo, s, prev)
        if walk is None:
            raise IdentityViolation(f"the interval oracle's resume state fails its check at n = {n}")
        tail, _, shared, f = walk
        self.lengths.append(c + len(tail) + _split_representative(src, n))
        self.n_used = n
        if shared > 1:
            # M is the matrix of the c emitted coefficients, and _walk's
            # checks proved that lo's expansion continues them: the new
            # coefficients extend them in place.
            self.emitted += tail[:shared - 1]
            self._m = f


def _step_back(f: Matrix, a: int) -> Matrix:
    # F * [[a, 1], [1, 0]]^-1 = F * [[0, 1], [1, -a]]: drop the last coefficient.
    p, p2, q, q2 = f
    return p2, p - a * p2, q2, q - a * q2


def _mapped(m: Matrix, det: int, s1: int, num: int, den: int) -> tuple[int, int]:
    # M^-1 (s1*(num, den) + (1, 0)) as s1*M^-1 (num, den) + M^-1 (1, 0), det M = det.
    p, p2, q, q2 = m
    return det * (s1 * (q2 * num - p2 * den) + q2), det * (s1 * (p * den - q * num) - q)


def _walk(m: Matrix, c: int, lo: tuple[int, int], s: int, prev: tuple[int, int, int]):
    """One advance of the interval oracle from M = m, the product of the
    matrices [[a, 1], [1, 0]] of c emitted coefficients: (tail, start,
    shared, F), or None when a check fails.

    lo = (N_n, x_n) = s'*lo_{n-1} + (1, 0) with prev = (s', N_{n-1},
    x_{n-1}) (or (1, N - 1, x) for any lo) maps to (A, B) = s'*M^-1 lo_{n-1}
    + M^-1 (1, 0). With det M = (-1)^c and 0 < B < A, lo expands as the
    emitted prefix followed by tail, Euclid's expansion of A/B. shared counts
    the leading tail quotients that are also those of hi = S_n + 2/x_{n+1},
    and F is M times the matrices of the first max(shared - 1, 0) of them.

    hi is never mapped through M^-1: x_{n+1} = s*x_n and N_{n+1} =
    s*N_n + 1, so hi = s*lo + (2, 0). At point k of the tail, F_k =
    [[p, p'], [q, q']], M times the first k tail matrices, has det
    D = (-1)^(c+k) and maps lo to Euclid's remainders (r_k, r_{k+1}) of
    A/B, so it maps hi to H_k = s*(r_k, r_{k+1}) + 2D*(q', -q). The walk
    starts at k = len(tail), where the remainders are (g, 0) with
    g = gcd(A, B) and F = M*T for the tail's convergent matrix T. As
    M (A, B) = lo, F*(g, 0) = lo: F's first column is lo/g, exactly, and
    only its second, M times T's, is multiplied. Euclid's pass over A/B
    yields g and T's second column, so no quotient is multiplied out
    twice. The walk steps back (r <- a*r + r', F <- F*[[0, 1], [1, -a]])
    until H_k is ordered, 0 < H_k[1] < H_k[0]. As in
    expand_rational, hi then shares the first k tail quotients. For k up
    to the shared count H_k is hi's own Euclid pair, ordered unless hi's
    expansion ends at k, so the walk stops at that count or one before
    it, and one divmod step from H_k settles which. A step back keeps a
    pair ordered, so a walk that passes k = 0 is hi's failed check.

    When M is a prefix of lo's expansion (no negative entries), the walk
    stops by start = L - 2, L = len(tail) >= 2. The last quotient is at
    least 2, so r_{L-1} >= 2g, r_{L-2} >= 3g and r_{L-2} - r_{L-1} >= g.
    F_{L-2}'s second row gives x_n = q*r_{L-2} + q'*r_{L-1} >= 3q + 2q',
    and s >= x_n. So s*r_{L-1} >= 2x_n > 2q and s*(r_{L-2} - r_{L-1})
    >= x_n > 2(q + q') when q > 0, and q = 0 forces D = p*q' = 1: either
    way H_{L-2} is ordered.
    """
    p, p2, q, q2 = m
    det = -1 if c % 2 else 1
    if p * q2 - p2 * q != det:
        return None
    a, b = _mapped(m, det, *prev)
    if not 0 < b < a:
        return None
    euclid = expand_rational(a, b)
    tail, r, r2 = euclid.coeffs, euclid.gcd, 0
    t, t2 = euclid.penultimate
    f = lo[0] // r, p * t + p2 * t2, lo[1] // r, q * t + q2 * t2
    k = len(tail)
    sign = -det if k % 2 else det
    while True:
        hp, hq = s * r + 2 * sign * f[3], s * r2 - 2 * sign * f[2]
        if 0 < hq < hp:
            break
        if not k:
            return None
        k -= 1
        r, r2 = tail[k] * r + r2, r
        f = _step_back(f, tail[k])
        sign = -sign
    if k < len(tail) and hp // hq == tail[k]:
        return tail, k, k + 1, f
    return tail, k, k, _step_back(f, tail[k - 1]) if k else f


def stream(source: SourceLike, count: int) -> StreamResult:
    """Certify at least ``count`` coefficients of the limit expansion."""
    es = EngelStream(source)
    es.take(count)
    return es.result()


# ---------------------------------------------------------------------------
# Certified enclosures
# ---------------------------------------------------------------------------


def enclosure(source: SourceLike, max_width: "Fraction") -> tuple["Fraction", "Fraction"]:
    """A closed interval [lo, hi] containing the limit S, of width at most
    ``max_width``: the tail past S_n lies strictly between 1/x_{n+1} and
    2/x_{n+1}, so S lies between S_{n+1} = N_{n+1}/x_{n+1} and
    (N_{n+1} + 1)/x_{n+1}."""
    from fractions import Fraction

    if max_width <= 0:
        raise InvalidSpec("max_width must be positive")
    src = as_store(source)
    n = 2
    while True:
        x_next = src.x(n + 1)
        if Fraction(1, x_next) <= max_width:
            num = src.numerator(n + 1)
            return Fraction(num, x_next), Fraction(num + 1, x_next)
        n += 1
