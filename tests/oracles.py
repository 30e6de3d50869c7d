"""Independent helpers that only the tests read: exact evaluation of a continued
fraction, the parser of cf_text's grammar and the writer of parse_spec_line's."""

from fractions import Fraction

from engelcf.cf import CFExpansion
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
