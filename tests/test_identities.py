"""Tests for the identity registry and its checking harness."""

import dataclasses
import hashlib
import random
import tracemalloc
from math import prod

import pytest

from gf2mf import factorize, identities, multfun
from gf2mf.divisors import divisors
from gf2mf.factorize import factor, irreducibles_up_to
from gf2mf.gf2poly import (ONE, Poly, ZERO, _mul_bits, _sqrt_bits,
                           _unspread, sqrt_if_square)
from gf2mf.identities import (
    IdentityReport,
    check_all,
    check_corollaries,
    check_lemma,
    corollary_registry,
    corollary_suite,
    registry,
    suite_inputs,
)
from gf2mf.multfun import (
    BUILTINS,
    MultiplicativeFunction,
    ident,
    mu,
    parse_expression,
    phi,
    sigma,
    sigma_star,
    z,
)

X = Poly("x")
X1 = Poly("x+1")
P2 = Poly("x^2+x+1")


def spec_by_id(spec_id):
    return {s.id: s for s in registry()}[spec_id]


class TestRegistry:
    def test_size_and_unique_ids(self):
        specs = registry()
        ids = [s.id for s in specs]
        assert len(specs) == 37
        assert len(specs) >= 27
        assert len(set(ids)) == len(ids)

    def test_lhs_expressions_parse(self):
        for spec in registry():
            f = parse_expression(spec.lhs)
            assert f.name == spec.lhs
            assert len(spec.parts) in (1, 2)

    def test_squareconv_family_complete(self):
        ids = {s.id for s in registry()}
        for name in ("delta", "z", "id", "mu", "phi", "sigma", "sigma_star"):
            assert f"squareconv_{name}" in ids

    def test_sigma_inv_closed_form(self):
        cf = spec_by_id("sigma_inv").closed_form
        assert cf(X, 1) == X1
        assert cf(X, 2) == X
        assert cf(X, 3) == ZERO
        assert cf(X, 7) == ZERO

    def test_phi_id_closed_form(self):
        cf = spec_by_id("phi_id").closed_form
        assert cf(X, 1) == ONE
        assert cf(X, 4) == X**4
        assert cf(X, 5) == X**4

    def test_sigma_z_closed_form_parity_split(self):
        cf = spec_by_id("sigma_z").closed_form
        assert cf(X, 4) == sigma(X**2) ** 2
        assert cf(X, 3) == X * sigma(X) ** 2

    def test_sigmastar_inv_closed_form(self):
        cf = spec_by_id("sigmastar_inv").closed_form
        assert cf(X, 1) == X1
        assert cf(X, 3) == X * X1
        assert cf(X, 4) == ZERO

    def test_sigmastarinv_mu_closed_form(self):
        cf = spec_by_id("sigmastarinv_mu").closed_form
        assert cf(X, 1) == X
        assert cf(X, 2) == X1
        assert cf(X, 3) == X * X1
        assert cf(X, 4) == X * X1

    def test_m0_convention_is_one(self):
        # Empty convolution: every closed form is 1 at m = 0.
        for spec in registry():
            for prime in (X, P2):
                assert spec.closed_form(prime, 0) == ONE, spec.id


# The seven builtins' Bell series: the sum over r of f(P^r) T^r is
# N(T) / D(T), as (N, D) coefficient tuples in T, lowest first, whose
# entries are masks in P (bit j is P^j).  Written here from the rules'
# definitions, independently of the lemma table.
ONE_T = (1, 1)  # 1 + T
ONE_PT = (1, 0b10)  # 1 + PT
ONE_PT2 = (1, 0, 0b10)  # 1 + PT^2


def tmul(u, v):
    """The product of two polynomials in T over F2[P]."""
    w = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            w[i + j] ^= (Poly(a) * Poly(b)).bits
    return tuple(w)


BELL = {
    "delta": ((1,), (1,)),
    "z": ((1,), ONE_T),
    "id": ((1,), ONE_PT),
    "mu": (ONE_T, (1,)),
    "phi": (ONE_T, ONE_PT),
    "sigma": ((1,), tmul(ONE_T, ONE_PT)),
    "sigma_star": (ONE_PT2, tmul(ONE_T, ONE_PT)),
}


def bell_coefficients(num, den, count):
    """The first count coefficients of N / D in F2[P][[T]], as masks."""
    h = []
    for k in range(count):
        c = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            c ^= (Poly(den[j]) * Poly(h[k - j])).bits
        h.append(c)
    return h


def at_prime(mask, prime):
    """A mask in P, with P replaced by prime."""
    acc = ZERO
    for j in range(mask.bit_length()):
        if mask >> j & 1:
            acc += prime**j
    return acc


def lhs_series(lhs):
    """(N, D) of a lemma's left side: inv swaps N and D, sq(f) squares
    both, and * multiplies."""
    if lhs.startswith("sq("):
        num, den = BELL[lhs[3:-1]]
        return tmul(num, num), tmul(den, den)
    num, den = (1,), (1,)
    for name in lhs.split("*"):
        if name.startswith("inv("):
            d, n = BELL[name[4:-1]]
        else:
            n, d = BELL[name]
        num, den = tmul(num, n), tmul(den, d)
    return num, den


class TestBellSeries:
    @pytest.mark.parametrize("name", sorted(BELL))
    def test_builtin_series_match_rules(self, name):
        f = BUILTINS[name]
        for prime, count in ((X, 64), (P2, 16)):
            h = bell_coefficients(*BELL[name], count)
            for r in range(count):
                assert at_prime(h[r], prime) == f.at_prime_power(prime, r), (
                    prime, r)

    @pytest.mark.parametrize("spec_id, lhs, num, den", identities._LEMMAS,
                             ids=[row[0] for row in identities._LEMMAS])
    def test_lemma_is_proved(self, spec_id, lhs, num, den):
        # f*g = h as N_f N_g / (D_f D_g) = N_h / D_h: the cross products
        # agree exactly in F2[P][T], so the lemma holds at every prime P
        # and every exponent m.
        assert den[0] == 1
        lhs_num, lhs_den = lhs_series(lhs)
        assert tmul(lhs_num, den) == tmul(num, lhs_den)

    def test_table_is_the_registry(self):
        specs = registry()
        assert [(s.id, s.lhs) for s in specs] == [
            row[:2] for row in identities._LEMMAS]
        for spec, (_, _, num, den) in zip(specs, identities._LEMMAS):
            h = bell_coefficients(num, den, 24)
            for prime in (X, X1, P2):
                for m in range(24):
                    assert spec.closed_form(prime, m) == at_prime(h[m], prime)
            # Asked again, or out of order, the evaluator starts over.
            for m in (23, 5, 5):
                assert spec.closed_form(P2, m) == at_prime(h[m], P2)

    def test_parts_rebuild_lhs_and_share_inverses(self):
        inverses = {}
        for spec in registry():
            names = [f.name for f in spec.parts]
            rebuilt = "*".join(names)
            if len(spec.parts) == 2 and spec.parts[0] is spec.parts[1]:
                rebuilt = f"sq({names[0]})"
            assert spec.lhs == rebuilt, spec.id
            for f in spec.parts:
                if f.name.startswith("inv("):
                    assert inverses.setdefault(f.name, f) is f, spec.id
        assert sorted(inverses) == [
            "inv(id)", "inv(phi)", "inv(sigma)", "inv(sigma_star)"]

    def test_high_exponent_in_bounded_memory(self, monkeypatch):
        # The closed form keeps len(D) coefficients, not all m of them: a
        # list of every coefficient up to m = 20000 would peak near 25 MB.
        # sigma*z at P^(2k) is sigma(P^k)^2, at x^20000 the even powers of
        # x up to x^20000.  The oracle's side grows sigma's row by one
        # product per exponent, so check_lemma runs at m = 20000 too; the
        # rows it grows (about 25 MB) are dropped after the test.
        spec = spec_by_id("sigma_z")
        for f in spec.parts:
            monkeypatch.setattr(f, "_cache", {})
        tracemalloc.start()
        try:
            value = spec.closed_form(X, 20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert value.bits == (4**10001 - 1) // 3
        report = check_lemma(spec, X, 20000)
        assert report.passed
        assert report.expected == value


class TestCheckLemma:
    def test_reducible_prime_rejected(self):
        # The constants too, and at m = 0 too, where the point is 1
        # whatever P is.
        spec = spec_by_id("sigma_mu")
        for prime in (Poly("x^2"), Poly("x^2+1"), ZERO, ONE):
            for m in (1, 0):
                with pytest.raises(ValueError, match="irreducible P"):
                    check_lemma(spec, prime, m)
        for m in (1, 0):
            with pytest.raises(ValueError, match="irreducible P"):
                check_lemma(spec, Poly("x^2+1"), m,
                            lattice=multfun._Lattice(Poly("x^2+1") ** m))

    def test_lattice_of_another_point_rejected(self):
        # The point is read off the lattice, so a lattice of another
        # point would be checked and labelled with the wrong P and m:
        # id_inv at x^2+1 reported as P=x m=2.  At m = 0 only the unit's
        # lattice is the point's.
        cases = [("id_inv", X, 2, X1**2), ("sigma_z", X, 2, X**3),
                 ("sigma_z", X, 3, X**2), ("sigma_mu", X, 1, X * X1),
                 ("sigma_phi", P2, 2, P2**2 * X), ("sigma_z", X, 1, ONE),
                 ("id_inv", X, 0, X), ("sigma_z", X, 0, X1),
                 ("sigma_mu", P2, 0, P2)]
        for spec_id, prime, m, other in cases:
            with pytest.raises(ValueError, match="is not at P="):
                check_lemma(spec_by_id(spec_id), prime, m,
                            lattice=multfun._Lattice(other))
            report = check_lemma(spec_by_id(spec_id), prime, m,
                                 lattice=multfun._Lattice(prime**m))
            assert report.passed and report.point == prime**m

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            check_lemma(spec_by_id("sigma_mu"), X, -1)

    # Unrefused, m = True checked the point x as m = True, and m = 2.0
    # failed with a TypeError from Poly.__pow__.
    @pytest.mark.parametrize("m, lattice", [
        (True, None), (False, None), (2.0, None), (-1, None), ("2", None),
        (True, X), (2.0, X**2),
    ], ids=["true", "false", "whole-float", "negative", "str",
            "true-given-lattice", "whole-float-given-lattice"])
    def test_a_bool_or_non_int_exponent_is_refused_by_name(self, m, lattice):
        kwargs = {} if lattice is None else {"lattice": multfun._Lattice(lattice)}
        with pytest.raises(ValueError) as info:
            check_lemma(spec_by_id("sigma_z"), X, m, **kwargs)
        assert str(info.value) == f"m must be an int >= 0, got {m!r}"

    def test_sigma_z_example(self):
        report = check_lemma(spec_by_id("sigma_z"), X, 2)
        assert report.expected == Poly("x^2+1")
        assert report.got == Poly("x^2+1")
        assert report.passed

    def test_sigma_phi_odd_exponent_vanishes(self):
        report = check_lemma(spec_by_id("sigma_phi"), P2, 3)
        assert report.expected == ZERO
        assert report.passed

    def test_id_inv_high_exponent_vanishes(self):
        report = check_lemma(spec_by_id("id_inv"), X1, 5)
        assert report.expected == ZERO
        assert report.passed

    def test_sigma_lemma_makes_linear_products(self, monkeypatch):
        # Each sigma(P^r) is one step from sigma(P^(r-1)): the oracle's
        # side of sigma*z at P^m makes at most m products for sigma's row
        # and m + 1 for the divisor sum.  Recomputing every sigma(P^r)
        # from scratch makes about m^2/2.  Empty rows make the count the
        # same whatever earlier tests asked for.
        m = 500
        calls = [0]

        def counted(a, b):
            calls[0] += 1
            return _mul_bits(a, b)

        spec = spec_by_id("sigma_z")
        for f in spec.parts:
            monkeypatch.setattr(f, "_cache", {})
        monkeypatch.setattr(multfun, "_mul_bits", counted)
        assert check_lemma(spec, X, m).passed
        assert calls[0] <= 2 * m + 1

    def test_ok_line_format(self):
        report = check_lemma(spec_by_id("sigma_z"), X, 2)
        assert report.line() == "LEMMA sigma_z P=x m=2 OK"

    def test_fail_line_format(self):
        report = IdentityReport(
            kind="lemma", spec_id="sigma_z", point=X, prime=X, exponent=1,
            expected=ONE, got=ZERO, passed=False,
        )
        assert report.line() == "LEMMA sigma_z P=x m=1 FAIL expected=1 got=0"

    def test_skip_line_format(self):
        report = IdentityReport(
            kind="corollary", spec_id="corol_sigma_mu", point=Poly("x^3"),
            skipped=True,
        )
        assert report.line() == "COROLLARY corol_sigma_mu A=x^3 SKIP"

    def test_fixed_point_fail_line_format(self):
        # expected=None marks "must differ from A" fixed-point checks.
        report = IdentityReport(
            kind="corollary", spec_id="corol_squareconv_sigma",
            point=Poly("x^2"), expected=None, got=Poly("x^2+1"), passed=False,
        )
        line = report.line()
        assert line == (
            "COROLLARY corol_squareconv_sigma A=x^2"
            " FAIL expected!=x^2 got=x^2+1"
        )


class TestCheckAll:
    def test_full_grid_green(self):
        summary = check_all(3, 6)
        assert summary.all_passed()
        assert summary.checked == 1295
        assert summary.skipped == 0
        assert summary.status_line() == "PASS 1295/1295"

    def test_m0_only_grid(self):
        summary = check_all(1, 0)
        assert summary.all_passed()
        assert summary.checked == 37 * 2

    def test_negative_max_exp_rejected(self):
        with pytest.raises(ValueError, match="max_exp"):
            check_all(1, -1)

    # Unrefused, sigma_z listed twice read PASS 12/12 for its 6 points,
    # no lemma PASS 0/0 and max_exp=True PASS 148/148; max_exp=2.5 raised
    # TypeError, max_prime_deg=0 a ValueError that did not name it, and
    # the str "sigma_z" was read as seven one-letter ids.
    @pytest.mark.parametrize("args, kwargs, name", [
        ((1, 1), {"spec_ids": "sigma_z"}, "spec_ids"),
        ((1, 2), {"spec_ids": ["sigma_z", "sigma_z"]}, "spec_ids"),
        ((1, 2), {"spec_ids": ["sigma_z", "sigma_mu", "sigma_z"]}, "spec_ids"),
        ((2, 2), {"spec_ids": []}, "spec_ids"),
        ((0, 2), {}, "max_prime_deg"),
        ((-1, 2), {}, "max_prime_deg"),
        ((True, 2), {}, "max_prime_deg"),
        ((1.0, 2), {}, "max_prime_deg"),
        (("1", 2), {}, "max_prime_deg"),
        ((1, True), {}, "max_exp"),
        ((1, False), {}, "max_exp"),
        ((1, 2.5), {}, "max_exp"),
        ((1, 2.0), {}, "max_exp"),
    ], ids=["spec-str", "spec-twice", "spec-twice-apart", "no-spec", "deg-0",
            "deg-neg", "deg-bool", "deg-float", "deg-str", "exp-true",
            "exp-false", "exp-float", "exp-whole-float"])
    def test_bad_arguments_are_refused_by_name(self, args, kwargs, name):
        with pytest.raises(ValueError, match=name):
            check_all(*args, **kwargs)

    def test_reports_sorted(self):
        summary = check_all(2, 3)
        keys = [(r.spec_id, r.prime.bits, r.exponent) for r in summary.reports]
        assert keys == sorted(keys)

    def test_reports_sorted_for_spec_ids_out_of_order(self):
        # The grid yields each point's reports in the order of spec_ids;
        # the sort on spec id alone still orders them by (id, P, m).
        summary = check_all(2, 3, spec_ids=["sigma_z", "conv_z_mu"])
        keys = [(r.spec_id, r.prime.bits, r.exponent) for r in summary.reports]
        assert keys == sorted(keys)
        assert len(keys) == 2 * 3 * 4
        assert keys[0] == ("conv_z_mu", 0b10, 0)

    def test_jobs_do_not_change_output(self):
        # jobs is accepted and ignored: the grid is checked serially.
        serial = check_all(2, 4)
        threaded = check_all(2, 4, jobs=3)
        assert serial.status_line() == "PASS 555/555"
        assert (serial.render(include_passes=True)
                == threaded.render(include_passes=True))

    def test_full_grid_render_is_pinned(self):
        # sha256 of the benchmark's lemma grid with every pass line, as
        # produced when each point ran its own irreducibility test.
        text = check_all(5, 10).render(include_passes=True)
        assert text.endswith("\nPASS 5698/5698")
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "4b805b74ebc3abd3f5419a0f81ef6a30fd915ec9a63b9e40ac6939a0962c36de")

    def test_spec_ids_filter(self):
        summary = check_all(2, 3, spec_ids=["sigma_mu"])
        assert {r.spec_id for r in summary.reports} == {"sigma_mu"}
        assert summary.checked == 3 * 4  # primes of degree <= 2, m <= 3
        assert summary.all_passed()

    def test_unknown_spec_id_rejected(self):
        with pytest.raises(ValueError):
            check_all(2, 3, spec_ids=["nosuch"])

    def test_mutation_is_detected(self):
        def corrupt_step(p, row):
            # 1 + P^(r+1) at P^r, in place of sigma_star's 1 + P^r.
            return (ONE + Poly(p) ** (len(row) + 1)).bits

        table = dict(BUILTINS)
        table["sigma_star"] = MultiplicativeFunction("sigma_star",
                                                     corrupt_step)
        summary = check_all(2, 4, functions=table)
        failing = {r.spec_id for r in summary.failures()}
        assert not summary.all_passed()
        assert "sigmastar_z" in failing
        assert "squareconv_sigma_star" in failing
        # Lemmas not touching sigma_star keep passing.
        assert "sigma_mu" not in failing
        assert "sigma_z" not in failing

        # Every point's lattice is shared by all its specs, yet exactly
        # the specs whose lhs names sigma_star, alone or under inv(...),
        # fail: the tables are keyed by function.
        def names(lhs):
            terms = [lhs[3:-1]] if lhs.startswith("sq(") else lhs.split("*")
            return {t[4:-1] if t.startswith("inv(") else t for t in terms}

        readers = {s.id for s in registry() if "sigma_star" in names(s.lhs)}
        assert len(readers) == 13
        assert failing == readers

    def test_one_lattice_per_point(self, monkeypatch):
        # Patched in both modules, so a grid that ran the oracle once per
        # pair check (5082 lattices for check_all(5, 10)) is counted too.
        # Each spec reads its point off the lattice, so the grid raises
        # each P to each m once; a check_lemma that raised it again made
        # 5852 powers here.
        built = []
        powers = []

        class Counted(multfun._Lattice):
            def __init__(self, a):
                built.append(a)
                super().__init__(a)

        def power(a, k, power=Poly.__pow__):
            powers.append((a, k))
            return power(a, k)

        monkeypatch.setattr(identities, "_Lattice", Counted)
        monkeypatch.setattr(multfun, "_Lattice", Counted)
        monkeypatch.setattr(Poly, "__pow__", power)
        primes = irreducibles_up_to(5)
        assert check_all(5, 10).all_passed()
        assert len(primes) == 14 and len(built) == 14 * 11 == 154
        assert built == [p**m for p in primes for m in range(11)]
        assert len(powers) == 154 + 154  # the grid's, and the line above
        built.clear()
        assert check_lemma(spec_by_id("sigma_z"), P2, 3).passed
        assert built == [P2**3]

    def test_grid_tests_each_prime_at_most_once(self, monkeypatch):
        # P is checked through factor()'s cache and each point by its
        # lattice, so the grid runs the Frobenius test at most once per
        # prime, not once per spec and point (5698 calls).
        tested = []

        def counted(f, test=factorize._is_irreducible_bits):
            tested.append(f)
            return test(f)

        monkeypatch.setattr(factorize, "_is_irreducible_bits", counted)
        primes = {p.bits for p in irreducibles_up_to(5)}
        assert check_all(5, 10).all_passed()
        assert set(tested) <= primes
        assert len(tested) == len(set(tested))


class TestReports:
    def test_replace_and_value_equality(self):
        ok = IdentityReport(kind="lemma", spec_id="sigma_z", point=X,
                            prime=X, exponent=1, expected=X, got=X,
                            passed=True)
        bad = dataclasses.replace(ok, passed=False)
        assert bad.passed is False and ok.passed is True
        assert bad != ok
        assert dataclasses.replace(bad, passed=True) == ok
        assert check_lemma(spec_by_id("sigma_z"), X, 1) == ok


class TestCorollaries:
    def test_registry_shape(self):
        specs = corollary_registry()
        ids = [s.id for s in specs]
        assert len(specs) == 20
        assert len(set(ids)) == len(ids)
        assert all(i.startswith("corol_") for i in ids)

    def report(self, a, spec_id):
        matches = [r for r in check_corollaries(a) if r.spec_id == spec_id]
        assert len(matches) == 1
        return matches[0]

    def test_sigma_id_at_x_squared(self):
        # Hand expansion: the only middle divisor of x^2 is x, and
        # sigma(x) * x = x^2 + x matches sigma(x)^2 + sigma(x^2) + x^2.
        report = self.report(Poly("x^2"), "corol_sigma_id")
        assert report.passed
        assert report.got == Poly("x^2+x")
        assert report.expected == Poly("x^2+x")

    def test_sigmastar_z_on_special_input(self):
        a = P2**2
        report = self.report(a, "corol_sigmastar_z")
        assert report.passed
        assert report.expected == sigma(a)

    def test_sigmastar_mu_phi_form(self):
        a = Poly("x^2") * Poly("x^2+1")
        report = self.report(a, "corol_sigmastar_mu")
        assert report.passed
        assert report.expected == phi(a)
        a = Poly("x^4")
        report = self.report(a, "corol_sigmastar_mu")
        assert report.passed
        assert report.got == Poly("x^4+x^3")

    def test_squareconv_fixed_point_detection(self):
        fixed = Poly("x^2+x") ** 2
        report = self.report(fixed, "corol_squareconv_sigma")
        assert report.passed
        assert report.expected == fixed
        not_fixed = Poly("x^2")
        report = self.report(not_fixed, "corol_squareconv_sigma")
        assert report.passed
        assert report.expected is None
        assert report.got == Poly("x^2+1")
        # Id fixes every root, so its square convolution fixes every square.
        report = self.report(not_fixed, "corol_squareconv_id")
        assert report.passed
        assert report.expected == not_fixed

    def test_non_square_input_skips_square_corollaries(self):
        reports = {r.spec_id: r for r in check_corollaries(Poly("x^3"))}
        assert reports["corol_sigma_mu"].skipped
        assert not reports["corol_sigmainv_sigma"].skipped
        assert reports["corol_sigmainv_sigma"].passed

    def test_one_square_root_per_square_input(self, monkeypatch):
        # check_corollaries takes the root once per square input, however
        # many specs read it, and none for a non-square, whose
        # square-shape specs are skipped; the oracle takes none.
        calls = []

        def counted(n):
            calls.append(n)
            return _sqrt_bits(n)

        monkeypatch.setattr(identities, "_sqrt_bits", counted)
        root = X * X1 * P2
        a = root**2
        assert multfun.convolve_bruteforce(sigma, phi, a) == (
            multfun.convolve(sigma, phi)(a))
        assert calls == []
        reports = {r.spec_id: r for r in check_corollaries(a)}
        assert calls == [a.bits]
        assert all(r.passed for r in reports.values())
        assert reports["corol_sigmastarinv_id"].expected == root + a
        calls.clear()
        reports = check_corollaries(X**3)
        assert calls == []
        assert {r.spec_id for r in reports if r.skipped} == {
            i for i, (shape, _) in PRECONDITIONS.items() if shape != "any"}

    def test_unit_input(self):
        reports = {r.spec_id: r for r in check_corollaries(ONE)}
        assert reports["corol_sigma_z"].skipped
        assert not reports["corol_sigmastar_z"].skipped
        assert reports["corol_sigmastar_z"].passed
        assert not any(
            not r.passed for r in reports.values() if not r.skipped)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            check_corollaries(ZERO)


# Every function a corollary's left side reads, under its spec-side name.
FUNCTIONS = {
    "sigma": sigma,
    "sigma_star": sigma_star,
    "phi": phi,
    "id": ident,
    "z": z,
    "mu": mu,
    "sigma_inv": identities._SIGMA_INV,
    "sigmastar_inv": identities._SIGMASTAR_INV,
    "phi_inv": identities._PHI_INV,
    "id_inv": identities._ID_INV,
}

# The left side of each corollary: f(D) g(A/D), written out here
# independently of the registry.
READS = {
    "corol_sigma_mu": ("sigma", "mu"),
    "corol_sigma_z": ("sigma", "z"),
    "corol_sigma_id": ("sigma", "id"),
    "corol_sigma_phi": ("sigma", "phi"),
    "corol_sigmastar_mu": ("sigma_star", "mu"),
    "corol_sigmastar_z": ("sigma_star", "z"),
    "corol_sigmastar_id": ("sigma_star", "id"),
    "corol_sigmastar_phi": ("sigma_star", "phi"),
    "corol_sigmastar_sigma": ("sigma_star", "sigma"),
    "corol_squareconv_sigma": ("sigma", "sigma"),
    "corol_squareconv_sigma_star": ("sigma_star", "sigma_star"),
    "corol_squareconv_id": ("id", "id"),
    "corol_sigma_idinv": ("sigma", "id_inv"),
    "corol_sigma_phiinv": ("sigma", "phi_inv"),
    "corol_sigmainv_sigma": ("sigma_inv", "sigma"),
    "corol_sigmainv_id": ("sigma_inv", "id"),
    "corol_sigmainv_mu": ("sigma_inv", "mu"),
    "corol_sigmastarinv_id": ("sigmastar_inv", "id"),
    "corol_sigmastarinv_mu": ("sigmastar_inv", "mu"),
    "corol_sigmastarinv_sigma": ("sigmastar_inv", "sigma"),
}

# The precondition of each corollary, (shape, nontrivial), written out
# here independently of the registry.
PRECONDITIONS = {
    "corol_sigma_mu": ("square", False),
    "corol_sigma_z": ("special", True),
    "corol_sigma_id": ("square", True),
    "corol_sigma_phi": ("square", True),
    "corol_sigmastar_mu": ("square", False),
    "corol_sigmastar_z": ("special", False),
    "corol_sigmastar_id": ("square", True),
    "corol_sigmastar_phi": ("square", True),
    "corol_sigmastar_sigma": ("square", True),
    "corol_squareconv_sigma": ("any", False),
    "corol_squareconv_sigma_star": ("any", False),
    "corol_squareconv_id": ("any", False),
    "corol_sigma_idinv": ("square", False),
    "corol_sigma_phiinv": ("square", True),
    "corol_sigmainv_sigma": ("any", True),
    "corol_sigmainv_id": ("special", True),
    "corol_sigmainv_mu": ("special", True),
    "corol_sigmastarinv_id": ("square", True),
    "corol_sigmastarinv_mu": ("special", True),
    "corol_sigmastarinv_sigma": ("square", True),
}


class TestLatticeTables:
    @staticmethod
    def inputs():
        """About 200 seeded inputs: arbitrary masks, squares, 1 and x^3."""
        rng = random.Random(20261018)
        masks = {1, 0b1000}
        while len(masks) < 100:
            masks.add(rng.randrange(2, 1 << 13))
        while len(masks) < 200:
            masks.add((Poly(rng.randrange(2, 1 << 7)) ** 2).bits)
        return [Poly(m) for m in sorted(masks)]

    def test_tables_match_multfun(self):
        for a in self.inputs():
            lat = identities._Lattice(a)
            vectors = list(lat.vectors())
            for name, f in FUNCTIONS.items():
                # Every input is far inside the lane bound.
                assert lat.lanes(f), (a, name)
                table, cotable = lat.table(f), lat.cotable(f)
                assert len(table) == len(cotable) == len(vectors)
                for n, (_, d, q) in enumerate(vectors):
                    assert _unspread(table[n]) == f(Poly(d)).bits, (a, name, n)
                    assert _unspread(cotable[n]) == f(Poly(q)).bits, (
                        a, name, n)

    def test_registry_reads_what_is_declared(self):
        specs = corollary_registry()
        assert {s.id for s in specs} == set(READS)
        for spec in specs:
            f, g = READS[spec.id]
            assert (spec.f, spec.g) == (FUNCTIONS[f], FUNCTIONS[g]), spec.id

    @pytest.mark.parametrize("method, name", [
        ("table", "sigma"), ("table", "sigma_star"),
        ("table", "sigma_inv"), ("table", "sigmastar_inv"),
        ("cotable", "sigma"), ("cotable", "phi"), ("cotable", "id"),
        ("cotable", "phi_inv"), ("cotable", "mu"), ("cotable", "id_inv"),
    ])
    def test_one_flipped_entry_fails_exactly_its_readers(
            self, monkeypatch, method, name):
        root = X * X1 * P2
        a = root**2  # special: every corollary applies
        assert all(r.passed for r in check_corollaries(a))
        # mid, A/D = root
        lat = identities._Lattice(a)
        index = lat.masks(ident).index(root.bits)
        original = getattr(identities._Lattice, method)
        target = FUNCTIONS[name]
        # The flip below lands on a lane value: in lane form, ^ 1 flips
        # the constant coefficient, as it does on a mask.
        assert lat.lanes(target)

        def corrupted(lat, f):
            values = original(lat, f)
            if f is not target:
                return values
            values = list(values)
            values[index] ^= 1
            return values

        monkeypatch.setattr(identities._Lattice, method, corrupted)
        failing = {r.spec_id for r in check_corollaries(a) if not r.passed}
        side = 0 if method == "table" else 1
        assert failing == {i for i, fg in READS.items() if fg[side] == name}


    @pytest.mark.parametrize("method, name, failing", [
        ("table", "sigma", set()),
        ("table", "sigma_star", {"corol_sigmastar_mu", "corol_sigmastar_z"}),
        ("table", "sigma_inv", set()),
        ("cotable", "sigma", set()),
        ("cotable", "phi", set()),
    ])
    def test_right_sides_do_not_read_the_entry_of_a_itself(
            self, monkeypatch, method, name, failing):
        # Flip f(A) in a table (its last entry, D = A) or a cotable (its
        # first, A/D = A).  Only the left sides whose filter keeps that
        # entry fail; a right side that read f(A) off the lattice would
        # fail with them.
        a = (X * X1 * P2) ** 2
        original = getattr(identities._Lattice, method)
        target = FUNCTIONS[name]
        index = -1 if method == "table" else 0

        def corrupted(lat, f):
            values = original(lat, f)
            if f is not target:
                return values
            values = list(values)
            values[index] ^= 1
            return values

        monkeypatch.setattr(identities._Lattice, method, corrupted)
        assert {r.spec_id for r in check_corollaries(a)
                if not r.passed} == failing

    def test_each_function_read_is_walked_once(self, monkeypatch):
        # One walk per function a left side reads, whichever side reads
        # it (sigma reads on both); g(A/D) is g's table read backwards,
        # and z(A/D) = 1 is not read at all.
        walked = []

        def counted(sizes, values, walk=multfun._products):
            table, keep = walk(sizes, values)
            walked.append(list(map(_unspread, table)) if keep else table)
            return table, keep

        monkeypatch.setattr(multfun, "_products", counted)
        a = (X * X1 * P2) ** 2  # special: every corollary applies
        assert all(r.passed for r in check_corollaries(a))
        specs = corollary_registry()
        read = {s.f for s in specs} | {s.g for s in specs if s.g is not z}
        assert len(read) == 9
        ds = divisors(factor(a))
        assert sorted(walked) == sorted([f(d).bits for d in ds] for f in read)

    def test_right_sides_evaluate_each_value_once(self, monkeypatch):
        # Counted at class level, so every function object a right side
        # holds is seen, whichever module global it came from.
        # The right sides evaluate off factorizations, each b rebuilt here
        # from its pairs.
        calls = []
        at_factors = MultiplicativeFunction.at_factors

        def counted(f, pairs):
            pairs = list(pairs)
            b = prod((Poly(p) ** e for p, e in pairs), start=ONE)
            calls.append((f.name, b.bits))
            return at_factors(f, pairs)

        monkeypatch.setattr(MultiplicativeFunction, "at_factors", counted)
        root = X * X1 * P2
        a = root**2  # special: every corollary applies
        assert all(r.passed for r in check_corollaries(a))
        # sigma, sigma_star, phi and inv(sigma) at A, and sigma,
        # sigma_star and id at its root, which is also its radical.
        assert len(calls) == len(set(calls))
        assert set(calls) == {
            ("sigma", a.bits), ("sigma_star", a.bits), ("phi", a.bits),
            ("inv(sigma)", a.bits), ("sigma", root.bits),
            ("sigma_star", root.bits), ("id", root.bits)}

    def test_right_side_arguments_match_factor(self):
        # The root and radical pairs are derived from A's exponent vector,
        # with nothing factored: each must be what factor() gives.
        # (x^2 (x^2+x+1))^2 is a square that is not special.
        extra = [ONE, Poly("x^3"), (X**2 * P2) ** 2]
        for a in suite_inputs(seed=1001) + extra:
            args = identities._arguments(identities._Lattice(a))
            root = sqrt_if_square(a)
            assert (args["root"] is None) == (root is None), a
            primes = [p.bits for p, _ in factor(a)]
            expected = {"A": a, "root": root, "1": ONE,
                        "rad": prod(map(Poly, primes), start=ONE)}
            for name, arg in args.items():
                if arg is None:
                    continue
                b, pairs = arg
                assert b == expected[name], (a, name)
                assert tuple(pairs) == factorize._factor_bits(b.bits), (
                    a, name)

    def test_a_fresh_square_is_factored_once(self):
        # Its root x^3 (x^2+x+1)(x^3+x+1) is not squarefree, so the root
        # and the radical differ: a checker that factored them would miss
        # twice more.
        a = (X**3 * P2 * Poly("x^3+x+1")) ** 2
        factorize._factor_bits.cache_clear()
        assert all(r.passed or r.skipped for r in check_corollaries(a))
        assert factorize._factor_bits.cache_info().misses == 1

    def test_preconditions_read_the_exponents(self):
        # Written from factor(a) here, independently of the registry:
        # "square" is every exponent even, "special" every exponent 2,
        # and a nontrivial spec also skips A = 1.
        shapes = {
            "square": lambda es: all(e % 2 == 0 for e in es),
            "special": lambda es: all(e == 2 for e in es),
            "any": lambda es: True,
        }
        for a in self.inputs():
            es = [e for _, e in factor(a)]
            for r in check_corollaries(a):
                shape, nontrivial = PRECONDITIONS[r.spec_id]
                applies = shapes[shape](es) and (bool(es) or not nontrivial)
                assert r.skipped == (not applies), (a, r.spec_id)

    def test_a_widened_span_fails_exactly_its_spec(self, monkeypatch):
        # The sum over every D adds sigma(1) mu(A) + sigma(A) mu(1), which
        # is sigma(A) at a square A.
        widened = tuple(
            dataclasses.replace(s, span="every")
            if s.id == "corol_sigma_mu" else s
            for s in identities._COROLLARIES)
        monkeypatch.setattr(identities, "_COROLLARIES", widened)
        a = (X * X1 * P2) ** 2
        failing = [r for r in check_corollaries(a) if not r.passed]
        assert [r.spec_id for r in failing] == ["corol_sigma_mu"]
        assert failing[0].got == failing[0].expected + sigma(a)


class TestSuite:
    def test_inputs_deterministic_and_square(self):
        inputs = suite_inputs()
        assert inputs == suite_inputs()
        assert len(inputs) == 549
        bits = [a.bits for a in inputs]
        assert bits == sorted(bits)
        assert len(set(bits)) == len(bits)
        assert all(sqrt_if_square(a) is not None for a in inputs)
        assert ONE not in inputs
        assert Poly("x^4+x^2") in inputs  # (x^2+x)^2, special

    def test_inputs_cover_all_small_special(self):
        inputs = {a.bits for a in suite_inputs(square_count=10,
                                               square_max_deg=10,
                                               special_max_deg=8,
                                               seed=3)}
        for s in range(2, 1 << 5):
            if all(e == 1 for _, e in factor(Poly(s))):
                assert (Poly(s) ** 2).bits in inputs

    def test_more_squares_than_roots_is_refused(self, fresh_python):
        # In a fresh process with a timeout, so that a draw that never
        # ends fails the test: only x and x+1 have degree 1.
        out = fresh_python(
            "from gf2mf.identities import corollary_suite, suite_inputs\n"
            "for run in (suite_inputs, corollary_suite):\n"
            "    try:\n"
            "        run(square_count=3, square_max_deg=2)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
        assert out.splitlines() == [
            "square_count exceeds 2^(square_max_deg // 2 + 1) - 2, the "
            "number of roots of degree 1..square_max_deg // 2"] * 2
        assert len(suite_inputs(square_count=2, square_max_deg=2,
                                special_max_deg=0)) == 2

    @pytest.mark.parametrize("kwargs", [
        dict(special_max_deg=-3), dict(special_max_deg=-1),
        dict(square_max_deg=-2), dict(special_max_deg=2.5),
        dict(square_count=2.5), dict(square_count=-4),
    ], ids=["special-3", "special-1", "square-2", "special-float",
            "count-float", "count-4"])
    def test_a_bad_degree_bound_is_refused_by_name(self, kwargs):
        # -3 once raised a bare shift error, -1 dropped every special
        # input, and a negative square bound blamed square_count; a
        # square count of 2.5 drew 3 roots and -4 silently drew none.
        (name, bound), = kwargs.items()
        with pytest.raises(ValueError) as exc:
            suite_inputs(**kwargs)
        assert str(exc.value) == (
            f"{name} must be a nonnegative integer, got {bound!r}")

    # Unrefused, a bool counted as 1 (or 0) for each of the three ints,
    # and corollary_suite(0, 20, 0) read PASS 0/0 over no input.
    @pytest.mark.parametrize("run, kwargs, match", [
        (suite_inputs, dict(square_count=True), "square_count"),
        (suite_inputs, dict(square_max_deg=True, square_count=1),
         "square_max_deg"),
        (suite_inputs, dict(special_max_deg=False), "special_max_deg"),
        (suite_inputs, dict(square_count=0, special_max_deg=1),
         "square_count 0 and special_max_deg"),
        (corollary_suite, dict(square_count=0, square_max_deg=20,
                               special_max_deg=0),
         "square_count 0 and special_max_deg"),
    ], ids=["count-bool", "square-bool", "special-bool", "no-input",
            "suite-no-input"])
    def test_bools_and_empty_input_sets_are_refused_by_name(self, run, kwargs,
                                                            match):
        with pytest.raises(ValueError, match=match):
            run(**kwargs)
        # The least input set that checks something is x^2 and x^2 + 1.
        assert len(suite_inputs(square_count=0, special_max_deg=2)) == 2

    # Unrefused, corollary_suite(seed=True) ran seed 1, and a str, a
    # float or None seeded the draw by its own rules, None from the clock.
    @pytest.mark.parametrize("run, seed", [
        (suite_inputs, True), (suite_inputs, False), (suite_inputs, "1001"),
        (suite_inputs, 1001.0), (corollary_suite, True),
        (corollary_suite, None),
    ], ids=["true", "false", "str", "float", "suite-true", "suite-none"])
    def test_a_bool_or_non_int_seed_is_refused_by_name(self, run, seed):
        with pytest.raises(ValueError) as info:
            run(seed=seed)
        assert str(info.value) == f"seed must be an int, got {seed!r}"

    @pytest.mark.parametrize("kwargs", [dict(), dict(seed=1001)],
                             ids=["default", "seed1001"])
    def test_reports_sorted(self, kwargs):
        # The inputs ascend, so the sort on spec id alone orders the
        # reports by (id, A).
        keys = [(r.spec_id, r.point.bits)
                for r in corollary_suite(**kwargs).reports]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_small_suite_green(self):
        summary = corollary_suite(square_count=25, square_max_deg=12,
                                  special_max_deg=8, seed=11)
        assert summary.all_passed()
        assert summary.skipped > 0
        assert summary.status_line().startswith("PASS ")

    @pytest.mark.parametrize("kwargs, digest", [
        (dict(seed=1001),
         "e40046beecf9d036a02ec2cc974fc649aa09e66fed529d5c192fa31241957e5f"),
        (dict(),
         "544b496af61e25cb44fc7e830bb5b81a3f0481ecda3f3bfd15a94a8bb53159c4"),
    ], ids=["seed1001", "default"])
    def test_full_suite_render_is_pinned(self, kwargs, digest):
        # sha256 of the rendered suite with every pass line, as produced
        # by the per-vector evaluation the lattice tables replaced.
        text = corollary_suite(**kwargs).render(include_passes=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_every_report_is_pinned(self):
        # sha256 over every field of every report, expected values
        # included, which the render of a passing spec leaves out.
        summary = corollary_suite(square_count=60, square_max_deg=16,
                                  special_max_deg=10)
        text = "".join(
            f"{r.spec_id} {r.point} {r.expected} {r.got} {r.passed} "
            f"{r.skipped}\n" for r in summary.reports)
        assert len(summary.reports) == 1660
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f3547aa840df0daa8b21c3f84706d4026c0756f7c13e667347a77c56157b9e89")

    def test_suite_jobs_do_not_change_output(self):
        # jobs is accepted and ignored: the inputs are checked serially.
        kwargs = dict(square_count=25, square_max_deg=12,
                      special_max_deg=8, seed=11)
        serial = corollary_suite(**kwargs)
        threaded = corollary_suite(jobs=3, **kwargs)
        assert (serial.render(include_passes=True)
                == threaded.render(include_passes=True))

    def test_one_lattice_per_input(self, monkeypatch):
        built = []

        class Counted(identities._Lattice):
            def __init__(self, a):
                built.append(a)
                super().__init__(a)

        monkeypatch.setattr(identities, "_Lattice", Counted)
        kwargs = dict(square_count=25, square_max_deg=12,
                      special_max_deg=8, seed=11)
        summary = corollary_suite(**kwargs)
        assert summary.all_passed()
        assert built == suite_inputs(**kwargs)
        built.clear()
        check_corollaries(Poly("x^3"))  # non-square: some corollaries apply
        check_corollaries(ONE)
        assert built == [Poly("x^3"), ONE]
