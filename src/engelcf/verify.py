"""Randomized oracle-equivalence suites.

The recursive constructions never trust themselves: every suite rebuilds
the same expansion through the independent Euclidean route and demands
coefficient-for-coefficient equality, together with the length formulas,
the final coefficient of the z_2 = 2 class and the coefficient alphabet.
Trials are pure and seeded, so runs are reproducible.
"""

import random

from .cf import expand_rational
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


def check_instance(zs: FactorSequence, n_max: int) -> int:
    """All invariants of a generic or z_2 = 2 factor list, from n = 3 or 4
    on; returns the number of expansions checked.

    These checks imply the step identities of the fold. partial_sum checks
    that the reduced denominator of S_n = N_n/x_n is x_n, and the fold must
    equal Euclid's expansion of that reduced pair, so the fold's final
    convergent is (p, q) = (N_n, x_n). For consecutive n,
    N_{n+1} = z_{n+1} x_n N_n + 1 and x_{n+1} = z_{n+1} x_n^2 then give
    p~ = z_{n+1} q p + 1 and q~ = z_{n+1} q^2. The length, the final
    coefficient and the alphabet pin the shape the fold is claimed to have.
    """
    z2 = zs.series_class is SeriesClass.Z2_EQUALS_2
    if not z2 and zs.series_class is not SeriesClass.GENERIC:
        raise InvalidSpec(f"need a generic or z_2 = 2 factor sequence, got {zs.series_class.value}")
    src = SeriesSource(zs)
    xs = from_factors(src, max(n_max, 1))  # shares src's terms
    checked = 0
    for n in range(4 if z2 else 3, n_max + 1):
        coeffs = partial_cf(src, n).coeffs
        s_n = partial_sum(xs, n)  # checks that the pair (N_n, x_n) is reduced
        if coeffs != expand_rational(s_n.numerator, s_n.denominator).coeffs:
            raise IdentityViolation(f"fold != Euclid oracle at n={n}, z={zs.z}")
        if len(coeffs) != (5 * 2 ** (n - 3) if z2 else 3 * 2 ** (n - 2) - 1):
            raise IdentityViolation(f"length {len(coeffs)} at n={n}, z={zs.z}")
        if z2 and coeffs[-1] != 2:
            raise IdentityViolation(f"z2 final coefficient != 2 at n={n}, z={zs.z}")
        if not z2 and not set(coeffs) <= generic_alphabet(zs.z[: n - 1]):
            raise IdentityViolation(f"alphabet violation at n={n}, z={zs.z}")
        checked += 1
    return checked


def run_suite(suite: str, trials: int = 100, n_max: int = 7, seed: int = 0) -> int:
    """check_instance on ``trials`` random factor lists z_2..z_{n_max} of
    the ``suite`` class: "generic" (z_2 in 3..20) or "z2" (z_2 = 2), with
    z_3.. in 2..20."""
    if suite not in ("generic", "z2"):
        raise InvalidSpec(f"unknown suite {suite!r}")
    rng = random.Random(seed)
    checked = 0
    for _ in range(trials):
        z2 = rng.randint(3, 20) if suite == "generic" else 2
        z = (z2,) + tuple(rng.randint(2, 20) for _ in range(n_max - 2))
        checked += check_instance(FactorSequence(z), n_max)
    return checked


def run_lift_suite(spec2: SecondOrderSpec, n: int = 7) -> int:
    """X_k * X_{k+1} = x_k for the lifted recurrence, all computed k."""
    lifted = lift_spec(spec2)
    xs = generate_recurrence(spec2, n)
    bigxs = generate_recurrence(lifted, n + 1)
    for k in range(n):
        if bigxs[k] * bigxs[k + 1] != xs[k]:
            raise IdentityViolation(f"lift identity failed at k={k}")
    return n
