"""The memoized term store: agreement with an independent dividing stepper,
sharing between calls, and one budget charge per term."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engelcf.asymptotics import estimate_C, full_report, log_big, roth_exponents
from engelcf.cli import main
from engelcf import sequences
from engelcf.exceptions import BitBudgetExceeded, InsufficientFactors
from engelcf.expansion import EngelStream, enclosure, partial_cf, partial_lengths, stream
from engelcf.sequences import (
    BudgetMeter,
    FactorSequence,
    SecondOrderSpec,
    SeriesSource,
    ThirdOrderSpec,
    as_store,
    factors_from_sequence,
    from_factors,
    generate_recurrence,
    lift_spec,
    ones_tail,
)
from engelcf.verify import check_instance
from oracles import MERSENNE_61, Residue, next_prime, spec_or_none

AFFINE = SecondOrderSpec(3, (1, 2))

SPECS = [
    AFFINE,
    SecondOrderSpec(4, (1, 1, 1)),
    SecondOrderSpec(5, (1, 3)),
    SecondOrderSpec(3, (1, 1)),
    lift_spec(AFFINE),
    ThirdOrderSpec(1, 2, ((0, 1, 2), (1, 0, 1))),
    # Shapes at the exponent edges of the step identities.
    SecondOrderSpec(6, (1, 0, 2, 1)),
    ThirdOrderSpec(3, 4, ((0, 1, 1), (1, 0, 2), (2, 2, 1))),
    ThirdOrderSpec(1, 2, ((0, 0, 2),)),
]


# x_9 of SecondOrderSpec(6, (1, 0, 2, 1)) has 9.2M bits and takes seconds to
# form, so the tests that form x_9 exactly leave that spec out.
SPECS_TO_X9 = [spec for spec in SPECS if spec != SecondOrderSpec(6, (1, 0, 2, 1))]


def reference_raw(spec, count: int, one=1) -> list:
    """The dividing recurrence from the all-ones initial data, in raw
    indexing, with every division checked exact. It evaluates G and H
    itself and shares no code with the library's stepper. With ``one`` a
    Residue of 1 it runs modulo that residue's prime."""
    if isinstance(spec, SecondOrderSpec):
        xs = [one, one]
        while len(xs) < count:
            x = xs[-1]
            g = sum(c * x**i for i, c in enumerate(spec.g))
            q, r = divmod(x**spec.d1 * g, xs[-2])
            assert r == 0
            xs.append(q)
    else:
        xs = [one, one, one]
        while len(xs) < count:
            a, b = xs[-2], xs[-1]
            h = sum(c * a**i * b**j for i, j, c in spec.h)
            q, r = divmod(a**spec.e1 * b**spec.e2 * h, xs[-3])
            assert r == 0
            xs.append(q)
    return xs


def reference_engel(raw: list[int]):
    """x_1..x_n in the Engel indexing, z_2..z_n and S_1..S_n, from raw
    recurrence output."""
    engel = [1] + [v for v in raw if v > 1]
    zs = []
    for j in range(2, len(engel) + 1):
        z, r = divmod(engel[j - 1], engel[j - 2] ** 2)
        assert r == 0
        zs.append(z)
    sums = [sum(Fraction(1, v) for v in engel[:k]) for k in range(1, len(engel) + 1)]
    return engel, zs, sums


def check_store(spec, engel, zs, sums):
    n = len(engel)
    store = SeriesSource(spec)
    assert [store.x(k) for k in range(1, n + 1)] == engel
    assert [store.factor(j) for j in range(2, n + 1)] == zs
    assert [store.partial_sum(k) for k in range(1, n + 1)] == sums

    # The same values when partial sums are asked for first.
    store = SeriesSource(spec)
    assert store.partial_sum(n) == sums[-1]
    assert store.factors_through(n) == zs


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_store_agrees_with_reference_stepper(spec):
    raw = reference_raw(spec, 8)
    engel, zs, sums = reference_engel(raw)
    n = len(engel)

    assert generate_recurrence(spec, len(raw)) == raw
    assert from_factors(spec, n) == engel
    assert from_factors(factors_from_sequence(raw), n) == engel
    check_store(spec, engel, zs, sums)


SECOND_ORDER = st.builds(
    spec_or_none,
    st.just(SecondOrderSpec),
    st.integers(3, 5),
    st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple),
).filter(bool)


@st.composite
def third_order_specs(draw):
    # One term free of each argument, so H is divisible by neither.
    terms = {(0, draw(st.integers(0, 2))): draw(st.integers(1, 3)),
             (draw(st.integers(0, 2)), 0): draw(st.integers(1, 3))}
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                           st.integers(1, 3)), max_size=2)):
        terms[i, j] = c
    h = tuple((i, j, c) for (i, j), c in terms.items())
    return spec_or_none(ThirdOrderSpec, draw(st.integers(1, 3)), draw(st.integers(2, 3)), h)


@given(st.one_of(SECOND_ORDER, third_order_specs().filter(bool)))
@settings(max_examples=60, deadline=None)
def test_step_identities_on_random_specs(spec):
    # Seven Engel terms: the raw data carry one (second order) or two
    # (third order) extra leading ones.
    pad = 1 if isinstance(spec, SecondOrderSpec) else 2
    check_store(spec, *reference_engel(reference_raw(spec, 7 + pad)))


def residue_shadow(spec, n: int):
    """(p, xs, zs, want): the shipped step rules run through the store's
    one runner on residues of a fresh store's initial lists, with the
    residue kind x_{k+1} = z * x_k^2, and reference_raw on the same
    residues, in raw indexing through x_n. p is 2^61 - 1, or the next prime
    when p divides one of the oracle's divisors."""
    store = SeriesSource(spec)
    count, p = n + store._pad, MERSENNE_61
    while True:
        try:
            want = reference_raw(spec, count, Residue(1, p))
            break
        except ZeroDivisionError:
            p = next_prime(p)
    xs = [Residue(v, p) for v in store._terms]
    zs = [Residue(v, p) for v in store._factors]
    store._run(xs, zs, count, lambda z, x: (z, z * x * x))
    return p, xs, zs, want


@pytest.mark.parametrize("spec", [AFFINE, lift_spec(AFFINE)], ids=repr)
def test_step_rules_match_the_dividing_recurrence_mod_a_prime(spec):
    # x_2000 of AFFINE has about 2^1998 bits; its residue does not.
    _, xs, _, want = residue_shadow(spec, 2000)
    assert xs == want


@given(st.one_of(SECOND_ORDER, third_order_specs().filter(bool), st.sampled_from(SPECS)))
@settings(max_examples=40, deadline=None)
def test_step_identities_mod_a_prime_on_random_specs(spec):
    _, xs, _, want = residue_shadow(spec, 500)
    assert xs == want


@pytest.mark.parametrize("spec", SPECS_TO_X9, ids=repr)
def test_numerator_matches_its_recurrence_mod_a_prime(spec):
    # N_1 = 1 and N_n = N_{n-1} * z_n * x_{n-1} + 1, on the residues.
    p, xs, zs, _ = residue_shadow(spec, 9)
    store = SeriesSource(spec)
    pad, num = store._pad, Residue(1, p)
    assert store.numerator(1) == 1
    for n in range(2, 10):
        num = num * zs[n - 1 + pad] * xs[n - 2 + pad] + 1
        assert store.numerator(n) % p == num


@given(st.one_of(SECOND_ORDER, third_order_specs().filter(bool), st.sampled_from(SPECS_TO_X9),
                 st.integers(2, 9).map(ones_tail)))
@settings(max_examples=25, deadline=None)
def test_the_bracket_kind_encloses_the_exact_values(source):
    # Every x and z of a bracket run through x_9, from x_1..x_f formed, holds
    # the exact value: lo * 2^e <= v <= hi * 2^e for a bracket, equality
    # for an int. A precision of a few bits makes the rounding matter.
    exact = SeriesSource(source)
    exact.x(9)
    for formed in range(1, 5):
        for prec in (4, 16, 64):
            store = SeriesSource(source)
            store.x(formed)
            store._bracket_term(store._raw(9), prec)
            assert store._bracket[0] == prec
            _, xs, zs = store._bracket
            assert len(xs) == len(zs) == len(exact._terms)
            for got, want in zip(xs + zs, exact._terms + exact._factors):
                if isinstance(got, int):
                    assert got == want
                else:
                    assert got.lo << got.e <= want <= got.hi << got.e


def test_terms_and_heads_pass_through_the_one_runner(monkeypatch):
    kinds = []
    original = SeriesSource._run

    def run(self, xs, zs, count, form):
        kinds.append(form)
        return original(self, xs, zs, count, form)

    want = _exact_head(SeriesSource(AFFINE).x(12))
    monkeypatch.setattr(SeriesSource, "_run", run)
    store = SeriesSource(AFFINE)
    store.x(6)
    # The heads of x_2..x_6 size the charge, then the exact kind forms them.
    assert kinds[-1] == store._exact and kinds[:-1]
    assert store._exact not in kinds[:-1]
    kinds.clear()
    store = SeriesSource(AFFINE)
    assert store.head(12) == want
    # The head settles on brackets: the runner ran, and not the exact kind.
    assert kinds and store._exact not in kinds
    assert len(store._terms) == 1 + store._pad


def _exact_head(v: int) -> tuple[int, int]:
    return v.bit_length(), v >> max(v.bit_length() - 64, 0)


HEAD_SOURCES = st.one_of(
    SECOND_ORDER,
    st.sampled_from([lift_spec(AFFINE), ThirdOrderSpec(1, 2, ((0, 1, 2), (1, 0, 1)))]),
    st.lists(st.integers(1, 9), min_size=1, max_size=6).map(
        lambda z: FactorSequence((z[0] + 1,) + tuple(z[1:]))),
    st.integers(2, 9).map(ones_tail),
)


@given(HEAD_SOURCES, st.sampled_from([6, 128]))
@settings(max_examples=40, deadline=None)
def test_head_matches_the_formed_term(source, precision):
    # Every count of already-formed terms, and n up to three past it. A
    # starting precision of a few bits makes the brackets' rounding matter.
    exact = SeriesSource(source)
    saved, sequences._HEAD_PRECISION = sequences._HEAD_PRECISION, precision
    try:
        for formed in range(1, 5):
            try:
                exact.x(formed)
            except InsufficientFactors:
                break
            for n in range(1, formed + 4):
                store = SeriesSource(source)
                store.x(formed)
                size = len(store._terms)
                try:
                    want = _exact_head(exact.x(n))
                except InsufficientFactors:
                    with pytest.raises(InsufficientFactors):
                        store.head(n)
                    continue
                assert store.head(n) == want
                # A head never grows the store.
                assert len(store._terms) == size
    finally:
        sequences._HEAD_PRECISION = saved


def test_head_doubles_its_precision_then_settles(monkeypatch):
    # From 4 bits the brackets of x_5 (113 bits) and x_9 (21846 bits) need
    # doubling. x_9 settles at 128 bits; x_5 is still open at 64, and at 128
    # the run is exact, so it settles there too. Neither head forms a term.
    monkeypatch.setattr(sequences, "_HEAD_PRECISION", 4)
    precisions = []
    original = SeriesSource._bracket_term

    def bracket_term(self, n, prec):
        precisions.append(prec)
        return original(self, n, prec)

    monkeypatch.setattr(SeriesSource, "_bracket_term", bracket_term)
    exact = SeriesSource(AFFINE)
    for n in (5, 9):
        store = SeriesSource(AFFINE)
        store.x(4)
        want = _exact_head(exact.x(n))
        precisions.clear()
        assert store.head(n) == want
        assert precisions == [4, 8, 16, 32, 64, 128]
        assert len(store._terms) - store._pad == 4
        # The store holds the 128-bit run, and it has x_5 exactly.
        prec, xs, _ = store._bracket
        assert prec == 128 and xs[store._raw(5)] == exact.x(5)


def _record_charges(monkeypatch) -> list[str]:
    # The name of every term passed to the meter, charged or refused.
    charged = []
    original = BudgetMeter.charge

    def charge(self, sizes):
        sizes = list(sizes)
        charged.extend(what for what, _ in sizes)
        return original(self, sizes)

    monkeypatch.setattr(BudgetMeter, "charge", charge)
    return charged


def test_full_report_charges_each_term_once(monkeypatch):
    charged = _record_charges(monkeypatch)
    full_report(AFFINE, 8)
    assert charged
    assert len(charged) == len(set(charged))


def test_cf_command_charges_each_term_once(monkeypatch, capsys):
    charged = _record_charges(monkeypatch)
    argv = ["cf", "--d1", "3", "--G", "1,2", "--n", "8", "--check", "oracle", "--json"]
    assert main(argv) == 0
    capsys.readouterr()
    assert charged
    assert len(charged) == len(set(charged))


def test_a_store_is_shared_between_calls(monkeypatch):
    store = SeriesSource(AFFINE)
    assert as_store(store) is store
    assert partial_cf(store, 6) == partial_cf(AFFINE, 6)
    assert stream(store, 40) == stream(AFFINE, 40)
    assert enclosure(store, Fraction(1, 10**12)) == enclosure(AFFINE, Fraction(1, 10**12))
    assert roth_exponents(store, 5) == roth_exponents(AFFINE, 5)
    # Everything above is already stored: nothing is generated again.
    charged = _record_charges(monkeypatch)
    partial_cf(store, 6)
    roth_exponents(store, 5)
    assert charged == []


# Admits x_2..x_4 of AFFINE (40 bits) but not x_5 (113 bits), nor x_5 of
# its lift (89 bits): a single term may take half of the 128 bits.
TINY = 128


@pytest.mark.parametrize("spec, read", [
    pytest.param(AFFINE, lambda s: as_store(s).x(5), id="as_store"),
    pytest.param(AFFINE, lambda s: from_factors(s, 5), id="from_factors"),
    pytest.param(AFFINE, lambda s: generate_recurrence(s, 6), id="generate_recurrence"),
    pytest.param(AFFINE, lambda s: partial_cf(s, 5), id="partial_cf"),
    pytest.param(AFFINE, lambda s: partial_lengths(s, 5), id="partial_lengths"),
    pytest.param(AFFINE, lambda s: EngelStream(s).take(40), id="EngelStream"),
    pytest.param(AFFINE, lambda s: stream(s, 40), id="stream"),
    pytest.param(AFFINE, lambda s: enclosure(s, Fraction(1, 10**40)), id="enclosure"),
    pytest.param(AFFINE, estimate_C, id="estimate_C"),
    pytest.param(AFFINE, lambda s: full_report(s, 5), id="full_report"),
])
def test_every_reader_charges_the_budget_of_the_store(spec, read):
    # The budget is set on the store alone; each function that reads a
    # source must charge it when it forms x_5.
    with pytest.raises(BitBudgetExceeded, match="x_5 needs"):
        read(SeriesSource(spec, TINY))


def test_reading_heads_charges_nothing():
    # roth_exponents reads only heads, through x_5 at depth 3: brackets,
    # which neither form nor charge a term, so TINY is no obstacle.
    store = SeriesSource(AFFINE, TINY)
    assert roth_exponents(store, 3) == roth_exponents(AFFINE, 3)
    assert store._meter.total_bits == 0 and len(store._terms) == 1 + store._pad


def test_check_instance_forms_each_term_once(monkeypatch):
    # The fold and the Euclid oracle read one store: x_2..x_9, each once.
    charged = _record_charges(monkeypatch)
    check_instance(FactorSequence((3, 2, 5, 7, 2, 3, 11, 2)), 9)
    assert len(charged) == 8


@pytest.mark.parametrize("source", [AFFINE, FactorSequence((3, 2, 2))])
@pytest.mark.parametrize("j", [1, 0, -1])
def test_factors_start_at_2_in_every_store(source, j):
    with pytest.raises(IndexError, match="factors start at j = 2"):
        SeriesSource(source).factor(j)


@pytest.mark.parametrize("read, error", [
    (lambda s: s.numerator(0), IndexError),
    (lambda s: s.numerator(-1), IndexError),
    (lambda s: s.x(4.5), TypeError),
    (lambda s: s.head(4.5), TypeError),
    (lambda s: s.factor(4.5), TypeError),
    (lambda s: s.numerator(4.5), TypeError),
    (lambda s: generate_recurrence(s, 6.5), TypeError),
    (lambda s: from_factors(s, 5.5), TypeError),
    (lambda s: partial_cf(s, 5.5), TypeError),
    (lambda s: stream(s, 3.5), TypeError),
], ids=["numerator(0)", "numerator(-1)", "x", "head", "factor", "numerator", "generate_recurrence",
        "from_factors", "partial_cf", "stream"])
def test_indices_are_checked_before_anything_is_formed(read, error):
    # A wrong index raises before any term is formed or charged, never
    # reading a held value from the wrong end of the store.
    store = SeriesSource(AFFINE)
    store.numerator(4)
    total, size = store._meter.total_bits, len(store._terms)
    with pytest.raises(error):
        read(store)
    assert store._meter.total_bits == total and len(store._terms) == size


@pytest.mark.parametrize("read", [
    lambda s: full_report(s, 5.5),
    lambda s: roth_exponents(s, 3.5),
    lambda s: partial_lengths(s, 5.5),
    lambda s: log_big((10, 3.5)),
    lambda s: log_big((10.5, 3)),
], ids=["full_report", "roth_exponents", "partial_lengths", "log_big top", "log_big bits"])
def test_diagnostic_counts_are_checked_before_anything_is_formed(read):
    store = SeriesSource(AFFINE)
    with pytest.raises(TypeError):
        read(store)
    assert store._meter.total_bits == 0


def test_cf_past_a_finite_factor_list_is_a_validation_error(capsys):
    assert main(["cf", "--z", "3,9", "--n", "5"]) == 2
    assert "z_4" in capsys.readouterr().err


def test_budget_refuses_a_term_before_forming_it(monkeypatch):
    # x_8 = 3^64 has 102 bits, and x_2..x_7 have charged 103. One number
    # sets both caps: half of it for a single term (100 at 200 bits, which
    # x_8 exceeds; 102 at 204, which it meets) and all of it for the
    # cumulative size (204, which 103 + 102 exceeds). x_3 = 1023^3 has 30
    # bits against the single cap of 28 at 57 bits, and x_7 of
    # (2, 1, 1, 1, 3, 1, 63) has 36 bits on top of the 37 that x_2..x_6
    # charged, at 72. The exact size is read from the head, so the store
    # raises without multiplying and keeps x_1..x_{n-1}; the refused term
    # is not counted, so asking again gives the same refusal.
    charged = _record_charges(monkeypatch)
    formed = _record_formed(monkeypatch)
    for source, bits, n, message in [
        (ones_tail(3), 200, 8, "x_8 needs 102 bits, cap is 100"),
        (ones_tail(3), 204, 8, "cumulative size needs 205 bits, cap is 204"),
        (FactorSequence((1023, 1023)), 57, 3, "x_3 needs 30 bits, cap is 28"),
        (FactorSequence((2, 1, 1, 1, 3, 1, 63)), 72, 7,
         "cumulative size needs 73 bits, cap is 72"),
    ]:
        store = SeriesSource(source, bits)
        assert store.x(n - 1) == SeriesSource(source).x(n - 1)
        total = store._meter.total_bits
        for _ in range(2):
            charged.clear()
            formed.clear()
            with pytest.raises(BitBudgetExceeded) as exc:
                store.x(n)
            assert str(exc.value) == message
            assert charged == [f"x_{n}"] and formed == []
            assert len(store._terms) == n - 1 and store._meter.total_bits == total


def _record_formed(monkeypatch) -> list[int]:
    # One entry per term the exact kind forms.
    formed = []
    exact = SeriesSource._exact

    def spy(self, *args):
        formed.append(args[0])
        return exact(self, *args)

    monkeypatch.setattr(SeriesSource, "_exact", spy)
    return formed


@pytest.mark.parametrize("argv", ["gen --d1 3 --G 1,2 --n 16", "cf --d1 3 --G 1,2 --n 15"])
def test_a_refused_run_forms_nothing(monkeypatch, capsys, argv):
    # x_15 is refused on its head's exact size before any term is formed;
    # forming x_2..x_14 and z_15 first would take about 14 s.
    formed = _record_formed(monkeypatch)
    assert main(argv.split()) == 3
    assert capsys.readouterr() == ("", "error: x_15 needs 59027587 bits, cap is 33554432\n")
    assert formed == []


def _refusal(sizes, bits: int, total: int = 0):
    # The message of the first of (what, size) that the caps of a budget of
    # ``bits`` refuse, with ``total`` already charged, or None.
    for what, size in sizes:
        if size > max(1, bits >> 1):
            return f"{what} needs {size} bits, cap is {max(1, bits >> 1)}"
        total += size
        if total > bits:
            return f"cumulative size needs {total} bits, cap is {bits}"
    return None


MERSENNE_FACTORS = st.lists(
    st.one_of(st.integers(1, 9), st.integers(2, 300).map(lambda k: 2**k - 1)),
    min_size=1, max_size=5,
).map(lambda z: FactorSequence((max(z[0], 2),) + tuple(z[1:])))


@given(st.one_of(SECOND_ORDER, third_order_specs().filter(bool), MERSENNE_FACTORS,
                 st.integers(2, 9).map(ones_tail)),
       st.integers(2, 9), st.data())
@settings(max_examples=100, deadline=None)
def test_the_budget_refuses_the_first_term_over_a_cap(source, n, data):
    # The oracle sizes x_2..x_n, formed in a store with room for them all
    # (n is cut where a term passes 2^16 bits). A budget refuses the first
    # term over half of it, or the first whose running sum passes it,
    # naming that term and its exact size. A factor list that runs out
    # raises InsufficientFactors unless an earlier term is refused. A
    # refused call forms and charges nothing; x_m is formed first, so the
    # call to x_n starts from a charged store.
    free = SeriesSource(source, 1 << 40)
    sizes = []
    for k in range(2, n + 1):
        try:
            if free.head(k)[0] > 1 << 16:
                n = k - 1
                break
            sizes.append((f"x_{k}", free.x(k).bit_length()))
        except InsufficientFactors:
            break
    total = sum(size for _, size in sizes)
    bits = data.draw(st.integers(1, 4 * total + 2), label="bits")
    store = SeriesSource(source, bits)
    for m in (data.draw(st.integers(1, n), label="m"), n):
        held = len(store._terms) - store._pad
        before = len(store._terms), store._meter.total_bits
        new = sizes[held - 1:m - 1]
        want = _refusal(new, bits, before[1])
        if want is None and len(new) == max(m - held, 0):
            assert store.x(m) == free.x(m)
            assert store._meter.total_bits == before[1] + sum(size for _, size in new)
            continue
        with pytest.raises(BitBudgetExceeded if want else InsufficientFactors) as exc:
            store.x(m)
        assert want is None or str(exc.value) == want
        assert (len(store._terms), store._meter.total_bits) == before
        return
