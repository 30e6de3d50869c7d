"""Exact continued fraction machinery.

Convergents by 2x2 integer matrix products, the canonical Euclidean
expansion of a non-negative rational, and the zero-removal rule
[..., a, 0, b, ...] -> [..., a+b, ...] (_merge_zeros), which repairs the
junction of expansion._fold.

The Euclidean expansion batches its quotients on large operands (Lehmer,
1938): Euclid on the leading bits proposes many quotients at once, four
multiplies apply them to the full pair, and the batch is kept only when the
new remainders satisfy 0 < B < A. A continued fraction whose tail exceeds 1
has those coefficients as its integer parts, so a kept batch is exactly
Euclid's; otherwise one divmod step is taken. See expand_rational. The
interval oracle (expansion._walk) uses the same test the other way round:
an ordered pair at some point of a known expansion proves that a second
rational shares every quotient before that point.

A kept batch's quotients multiply out to the inverse of its cosequence
matrix [[u0, v0], [u1, v1]]: (-1)^k [[v1, -v0], [-u1, u0]] for k
quotients. expand_rational records that product for every kept batch and
returns the gcd g of its pair (p, q). The convergent matrix maps (g, 0)
to (p, q), so the oracle reads only its second column, the penultimate
convergent (CFExpansion.penultimate), formed on each read as a balanced
product of the batches' products and of convergent_matrix over the single
divmod steps between them, whose right spine carries only that column;
callers that read only the coefficients pay nothing.

Everything here is a pure function of immutable values and safe to call
concurrently.

Conventions:
  * a_0 >= 0, a_j >= 1 for j >= 1 in a normalized expansion;
  * canonical form additionally has final coefficient >= 2 when the
    expansion is longer than one term, which makes it unique;
  * lengths count every coefficient including a_0.
"""

import operator
from typing import Sequence, Union

from ._value import _Value
from .exceptions import InvalidSpec, ZeroCoefficient


class CFExpansion(_Value):
    """A finite continued fraction [a_0; a_1, ..., a_m] with no zero entries
    after a_0. Raw coefficient lists that may contain zeros stay plain
    sequences; _merge_zeros removes their interior zeros.

    Besides its value, the coeffs, an expansion carries the pair it stands
    for, ``gcd`` times its last convergent, and the penultimate convergent.
    Built from coefficients, gcd is 1; from expand_rational(p, q), gcd is
    gcd(p, q) and ``penultimate`` is formed from the batches Euclid kept.
    Neither takes part in equality, hash, repr or pickling."""

    __slots__ = ("coeffs", "gcd", "_batches")  # _batches: (start, stop, product) of each kept batch
    _fields = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        if not coeffs:
            raise InvalidSpec("empty continued fraction")
        self._init(tuple(map(operator.index, coeffs)))
        object.__setattr__(self, "gcd", 1)
        object.__setattr__(self, "_batches", ())
        if self.coeffs[0] < 0:
            raise InvalidSpec(f"a_0 must be non-negative, got {self.coeffs[0]}")
        if min(self.coeffs[1:], default=1) > 0:
            return
        for j, a in enumerate(self.coeffs[1:], start=1):
            if a == 0:
                raise ZeroCoefficient(f"a_{j} = 0")
            if a < 0:
                raise InvalidSpec(f"a_{j} must be positive, got {a}")

    @classmethod
    def _trusted(cls, coeffs: list[int], gcd: int = 1, batches=()) -> "CFExpansion":
        # A non-empty list of ints built here, a_0 >= 0 and the rest >= 1:
        # Euclid's quotients or a fold's. __init__'s checks are not run again.
        out = cls.__new__(cls)
        out._init(tuple(coeffs))
        object.__setattr__(out, "gcd", gcd)
        object.__setattr__(out, "_batches", batches)
        return out

    @property
    def penultimate(self) -> tuple[int, int]:
        """(p_{m-1}, q_{m-1}), the second column of the convergent matrix
        [[p_m, p_{m-1}], [q_m, q_{m-1}]] of a_0..a_m; (1, 0) for m = 0. It
        is formed on every read, not cached, from the kept batches'
        products and convergent_matrix of the runs between them."""
        coeffs, mats, done = self.coeffs, [], 0
        for start, stop, m in self._batches:
            if start > done:
                mats.append(convergent_matrix(coeffs[done:start]))
            mats.append(m)
            done = stop
        if done < len(coeffs):
            mats.append(convergent_matrix(coeffs[done:]))
        # With the last factor's first column zeroed, the right spine of the
        # balanced product carries only the second: four multiplies a level.
        p, p2, q, q2 = mats[-1]
        mats[-1] = 0, p2, 0, q2
        return _product(mats)[1::2]

    def __len__(self):
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, j):
        return self.coeffs[j]

    def __str__(self):
        return cf_text(self.coeffs)


CFLike = Union[CFExpansion, Sequence[int]]

# Bits of the small pair's window in expand_rational, which batches
# quotients while the divisor has more than 4 * _WINDOW_BITS bits.
_WINDOW_BITS = 256


def convergents(cf: CFLike) -> tuple[tuple[int, int], ...]:
    """Rows (p_j, q_j), j = 0..m, of a normalized continued fraction.

    Row j is the first column of the product of the first j+1 matrices
    [[a_i, 1], [1, 0]]; the final row gives the exact value. This plain
    loop is the reference convergent_matrix is tested against.
    """
    rows = []
    p_prev, q_prev = 1, 0
    p_prev2, q_prev2 = 0, 1
    for a in CFExpansion(tuple(cf)).coeffs:
        p = a * p_prev + p_prev2
        q = a * q_prev + q_prev2
        rows.append((p, q))
        p_prev2, q_prev2, p_prev, q_prev = p_prev, q_prev, p, q
    return tuple(rows)


def expand_rational(p: int, q: int) -> CFExpansion:
    """Canonical continued fraction of p/q for integers p >= 0, q > 0, with
    gcd(p, q) as its ``gcd``.

    The pair is expanded as given, with no gcd: Euclid's quotients do not
    change when both operands share a factor, and its last nonzero
    remainder is that factor.

    The Euclidean algorithm already yields the canonical representative:
    the last quotient divides exactly with remainder strictly smaller, so
    the final coefficient is >= 2 whenever the expansion has length > 1.
    This is the independent oracle the recursive constructions are tested
    against.

    While the divisor has more than 4*_WINDOW_BITS bits, quotients come in
    batches (Lehmer, "Euclid's algorithm for large numbers", 1938): plain
    Euclid on the top 2*_WINDOW_BITS bits of p > q gives quotients
    a_1..a_k, stopping while the small remainder still has more than
    _WINDOW_BITS bits, and their cosequence matrix C = [[u0, v0], [u1, v1]]
    gives the pair (A, B) = C (p, q) with p/q = [a_1; ..., a_k, A/B] from
    the full integers in four multiplies. That identity holds for any a_i;
    the batch is kept only if 0 < B < A. Then the tail A/B exceeds 1 and
    every a_i >= 1, so each partial value [a_i; ..., a_k, A/B] has integer
    part a_i and a fractional part in (0, 1): a_1..a_k are Euclid's next
    quotients and (A, B) its remainder pair. A rejected or empty batch (a
    quotient too large for the window) takes one divmod step instead, so
    the output is Euclid's exactly. The rest, from 4*_WINDOW_BITS bits
    down, is plain divmod.

    The small Euclid updates only u0 and u1: C maps the window pair
    (x0, y0) to the last small pair (x, y), so v0 = (x - u0*x0)/y0 and
    v1 = (y - u1*x0)/y0, both exact. C is the product of the inverses
    [[0, 1], [1, -a_i]], and det C = (-1)^k, so the product of the batch's
    matrices [[a_i, 1], [1, 0]] is C^-1 = (-1)^k [[v1, -v0], [-u1, u0]].
    Each kept batch records it, which costs nothing on entries of
    _WINDOW_BITS bits; the result's ``penultimate`` is formed only when
    read. Both loops take two quotients a pass, swapping no tuple.
    """
    p, q = operator.index(p), operator.index(q)
    if p < 0 or q <= 0:
        raise InvalidSpec(f"need p >= 0 and q > 0, got {p}/{q}")
    w = _WINDOW_BITS
    low, batched = 1 << w, 1 << 4 * w
    a, r = divmod(p, q)
    coeffs = [a]
    append = coeffs.append
    batches = []
    p, q = q, r
    # Past a_0, p > q: each proposed quotient is >= 1.
    while q >= batched:
        shift = p.bit_length() - 2 * w
        x0, y0 = x, y = p >> shift, q >> shift
        u0, u1 = 1, 0
        start = len(coeffs)
        while y >= low:
            a, z = divmod(x, y)
            if z < low:
                break
            append(a)
            x, u0 = z, u0 - a * u1
            a, z = divmod(y, x)
            if z < low:
                x, y, u0, u1 = y, x, u1, u0
                break
            append(a)
            y, u1 = z, u1 - a * u0
        stop = len(coeffs)
        if stop > start:
            v0, v1 = (x - u0 * x0) // y0, (y - u1 * x0) // y0
            big_a, big_b = u0 * p + v0 * q, u1 * p + v1 * q
            if 0 < big_b < big_a:
                m = (v1, -v0, -u1, u0) if (stop - start) % 2 == 0 else (-v1, v0, u1, -u0)
                batches.append((start, stop, m))
                p, q = big_a, big_b
                continue
            del coeffs[start:]
        a, r = divmod(p, q)
        append(a)
        p, q = q, r
    while q:
        a, p = divmod(p, q)
        append(a)
        if not p:
            p = q
            break
        a, q = divmod(q, p)
        append(a)
    return CFExpansion._trusted(coeffs, p, batches)


# Quotients whose matrices convergent_matrix multiplies one at a time.
_LEAF = 32

Matrix = tuple[int, int, int, int]  # [[m00, m01], [m10, m11]], row by row


def matrix_mul(m: Matrix, n: Matrix) -> Matrix:
    """The 2x2 product m*n."""
    a, b, c, d = m
    e, f, g, h = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def convergent_matrix(coeffs: Sequence[int]) -> Matrix:
    """The product of the matrices [[a, 1], [1, 0]] of a_0..a_m, which is
    [[p_m, p_{m-1}], [q_m, q_{m-1}]] with determinant (-1)^(m+1); the
    identity for no coefficients. Long lists are split in halves, so the
    big multiplies pair operands of similar size (a balanced product tree:
    Bernstein, "Fast multiplication and its applications", 2008)."""
    if len(coeffs) > _LEAF:
        mid = len(coeffs) // 2
        return matrix_mul(convergent_matrix(coeffs[:mid]), convergent_matrix(coeffs[mid:]))
    p, p2, q, q2 = 1, 0, 0, 1
    for a in coeffs:
        p, p2, q, q2 = a * p + p2, p, a * q + q2, q
    return p, p2, q, q2


def _product(mats: list[Matrix]) -> Matrix:
    # The balanced product of one or more matrices, as in convergent_matrix.
    if len(mats) == 1:
        return mats[0]
    mid = len(mats) // 2
    return matrix_mul(_product(mats[:mid]), _product(mats[mid:]))


def _merge_zeros(coeffs: list[int]):
    # [..., a, 0, b, ...] -> [..., a+b, ...] in place, always at the leftmost
    # zero past coeffs[0], until none is left before the final entry.
    j = 1
    while 0 in coeffs[j:-1]:
        j = coeffs.index(0, j)
        coeffs[j - 1:j + 2] = [coeffs[j - 1] + coeffs[j + 1]]
        # The merge can expose a new zero at the merged position's
        # neighborhood; step back one slot instead of rescanning.
        j = max(j - 1, 1)


def render_each(values: Sequence[int]) -> list[str]:
    """``str`` of each value, in order. The fold's coefficients are a few
    distinct ints repeated, so each distinct value is rendered once."""
    text = {v: str(v) for v in set(values)}
    return list(map(text.__getitem__, values))


def cf_text(cf: CFLike) -> str:
    """Render in the bracket grammar: ``[a0;a1,a2,...]``, no whitespace.
    Raw coefficient lists are rendered as given, zeros included."""
    return _bracket(render_each(tuple(cf)))


def _bracket(texts: list[str]) -> str:
    # cf_text from coefficients already rendered by render_each.
    if not texts:
        raise InvalidSpec("empty continued fraction")
    if len(texts) == 1:
        return f"[{texts[0]}]"
    return "[{};{}]".format(texts[0], ",".join(texts[1:]))
