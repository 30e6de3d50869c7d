"""Randomized oracle-equivalence suites.

The recursive constructions never trust themselves: every suite rebuilds
the same expansion through the independent Euclidean route and demands
coefficient-for-coefficient equality, together with the length formulas,
the final-denominator identity q = x_n, the coefficient alphabet, and the
determinant identity at every convergent. Trials are pure and seeded, so
runs are reproducible.
"""

import random

from .cf import convergents, expand_rational
from .exceptions import IdentityViolation, InvalidSpec
from .expansion import partial_cf
from .sequences import (
    FactorSequence,
    SecondOrderSpec,
    SeriesClass,
    SeriesSource,
    from_factors,
    generate_recurrence,
    lift_spec,
    partial_sum,
)


def generic_alphabet(z: tuple[int, ...]) -> set[int]:
    """Coefficients that may appear for a generic factor list: 1, z_2,
    z_2 - 2, and z_j - 1 for every factor."""
    out = {1, z[0], z[0] - 2}
    out.update(v - 1 for v in z)
    return out


def _fail(message: str):
    raise IdentityViolation(message)


def check_instance(zs: FactorSequence, n_max: int) -> int:
    """All invariants of a generic or z_2 = 2 factor list, from n = 3 or 4
    on; returns the number of expansions checked.

    These checks imply the step identities of the fold. The fold must equal
    Euclid's expansion of S_n = N_n/x_n, whose final convergent is the
    reduced pair, and its final denominator must be x_n, so
    (p, q) = (N_n, x_n). For consecutive n, N_{n+1} = z_{n+1} x_n N_n + 1
    and x_{n+1} = z_{n+1} x_n^2 then give p~ = z_{n+1} q p + 1 and
    q~ = z_{n+1} q^2 = x_{n+1}. The determinant rule at every convergent
    with the odd generic length gives det M_n = -1.
    """
    z2 = zs.series_class is SeriesClass.Z2_EQUALS_2
    if not z2 and zs.series_class is not SeriesClass.GENERIC:
        raise InvalidSpec(f"need a generic or z_2 = 2 factor sequence, got {zs.series_class.value}")
    src = SeriesSource(zs)
    checked = 0
    for n in range(4 if z2 else 3, n_max + 1):
        rec = partial_cf(src, n)
        xs = from_factors(zs, n)
        oracle = expand_rational(partial_sum(xs, n))
        if rec.cf.coeffs != oracle.coeffs:
            _fail(f"fold != Euclid oracle at n={n}, z={zs.z}")
        if rec.length != (5 * 2 ** (n - 3) if z2 else 3 * 2 ** (n - 2) - 1):
            _fail(f"length {rec.length} at n={n}, z={zs.z}")
        if z2 and rec.cf.coeffs[-1] != 2:
            _fail(f"z2 final coefficient != 2 at n={n}, z={zs.z}")
        table = convergents(rec.cf)
        if table.final[1] != xs.x[n - 1]:
            _fail(f"final denominator != x_{n} for z={zs.z}")
        if not table.determinant_ok():
            _fail(f"determinant identity failed at n={n}, z={zs.z}")
        if not z2 and not set(rec.cf.coeffs) <= generic_alphabet(zs.z[: n - 1]):
            _fail(f"alphabet violation at n={n}, z={zs.z}")
        checked += 1
    return checked


def run_generic_suite(trials: int = 100, n_max: int = 7, seed: int = 0) -> int:
    rng = random.Random(seed)
    checked = 0
    for _ in range(trials):
        z = (rng.randint(3, 20),) + tuple(rng.randint(2, 20) for _ in range(n_max - 2))
        checked += check_instance(FactorSequence(z), n_max)
    return checked


def run_z2_suite(trials: int = 100, n_max: int = 7, seed: int = 0) -> int:
    rng = random.Random(seed)
    checked = 0
    for _ in range(trials):
        z = (2,) + tuple(rng.randint(2, 20) for _ in range(n_max - 2))
        checked += check_instance(FactorSequence(z), n_max)
    return checked


def run_lift_suite(spec2: SecondOrderSpec, n: int = 7) -> int:
    """X_k * X_{k+1} = x_k for the lifted recurrence, all computed k."""
    lifted = lift_spec(spec2)
    xs = generate_recurrence(spec2, n)
    bigxs = generate_recurrence(lifted, n + 1)
    for k in range(n):
        if bigxs[k] * bigxs[k + 1] != xs[k]:
            _fail(f"lift identity failed at k={k}")
    return n
