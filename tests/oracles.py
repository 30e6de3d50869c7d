"""Independent helpers that only the tests read: exact evaluation of a continued
fraction, the parser of cf_text's grammar and the writer of parse_spec_line's,
and a product tree that checks known quotients against a rational."""

from fractions import Fraction

from engelcf.cf import _LEAF, CFExpansion, convergent_matrix, matrix_mul
from engelcf.exceptions import TrailingZero
from engelcf.sequences import RecurrenceSpec, SecondOrderSpec


def evaluate(cf) -> Fraction:
    """Exact value of a normalized continued fraction. Accepts non-canonical
    input (a trailing 1, or a_0 = 0); only zeros past a_0 are rejected."""
    return fold_value(CFExpansion(tuple(cf)).coeffs)


def fold_value(coeffs) -> Fraction:
    """Right fold of a raw list; tolerates interior zeros, not a final one."""
    if coeffs[-1] == 0 and len(coeffs) > 1:
        raise TrailingZero("cannot evaluate a raw expansion ending in 0")
    value = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        value = a + 1 / value
    return value


def parse_cf_text(text: str) -> CFExpansion:
    """Parse the bracket grammar produced by cf_text."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"not a bracketed continued fraction: {text!r}")
    body = s[1:-1]
    if ";" in body:
        head, _, tail = body.partition(";")
        coeffs = [int(head)] + [int(t) for t in tail.split(",")]
    else:
        coeffs = [int(body)]
    return CFExpansion(tuple(coeffs))


def spec_line(spec: RecurrenceSpec) -> str:
    """A spec as one key=value line: ``order=2 d1=3 G=1,2`` or
    ``order=3 e1=2 e2=2 H=0,0,1;1,1,2``."""
    if isinstance(spec, SecondOrderSpec):
        return f"order=2 d1={spec.d1} G={','.join(str(c) for c in spec.g)}"
    hs = ";".join(f"{i},{j},{c}" for (i, j, c) in spec.h)
    return f"order=3 e1={spec.e1} e2={spec.e2} H={hs}"


class ProductTree:
    """Balanced product tree of the matrices [[a, 1], [1, 0]] of a list of
    coefficients (Bernstein, "Fast multiplication and its applications",
    2008). The product of a_0..a_m is [[p_m, p_{m-1}], [q_m, q_{m-1}]],
    with determinant (-1)^(m+1)."""

    def __init__(self, coeffs):
        self._qs = coeffs
        self._root = self._build(0, len(coeffs))

    def _build(self, i: int, j: int):
        # (product of qs[i:j], i, j, left, right); a leaf has no children.
        if j - i <= _LEAF:
            return convergent_matrix(self._qs[i:j]), i, j, None, None
        mid = (i + j) // 2
        left, right = self._build(i, mid), self._build(mid, j)
        return matrix_mul(left[0], right[0]), i, j, left, right

    def product(self, k: int | None = None):
        """The product of the first k matrices (all by default)."""
        node = self._root
        k = node[2] if k is None else k
        out = (1, 0, 0, 1)
        while k:
            m, i, j, left, right = node
            if k >= j - i:
                return matrix_mul(out, m)
            if left is None:
                return matrix_mul(out, convergent_matrix(self._qs[i:i + k]))
            if k <= left[2] - i:
                node = left
            else:
                out = matrix_mul(out, left[0])
                k -= left[2] - i
                node = right
        return out

    def follow(self, p: int, q: int) -> int:
        """How many leading coefficients are also the leading Euclidean
        quotients of p/q, for p > q > 0 and coefficients >= 1.

        This checks Euclid's quotients instead of computing them. A block
        b_1..b_k with product M maps the pair to (A, B) = M^-1 (p, q), so
        p/q = [b_1; ..., b_k, A/B]; as in expand_rational, a block with
        0 < B < A is exactly Euclid's next k quotients and (A, B) its
        remainder pair. A block that fails is split into its two halves,
        and a failing leaf is walked by single divmod steps to the exact
        quotient where p/q leaves the list or its expansion ends.
        """
        return self._follow(self._root, p, q)[0] if self._qs else 0

    def _follow(self, node, p: int, q: int) -> tuple[int, int, int]:
        (m00, m01, m10, m11), i, j, left, right = node
        det = -1 if (j - i) % 2 else 1
        a, b = det * (m11 * p - m01 * q), det * (m00 * q - m10 * p)
        if 0 < b < a:
            return j - i, a, b
        if left is None:
            count = 0
            for quotient in self._qs[i:j]:
                if not q:
                    break
                d, rem = divmod(p, q)
                if d != quotient:
                    break
                count += 1
                p, q = q, rem
            return count, p, q
        count, p, q = self._follow(left, p, q)
        if count < left[2] - i:
            return count, p, q
        more, p, q = self._follow(right, p, q)
        return count + more, p, q
