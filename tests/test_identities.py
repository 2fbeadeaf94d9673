"""Tests for the identity registry and its checking harness."""

import dataclasses
import hashlib
import random

import pytest

from gf2mf import identities
from gf2mf.factorize import factor
from gf2mf.gf2poly import ONE, Poly, ZERO, sqrt_if_square
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


class TestCheckLemma:
    def test_reducible_prime_rejected(self):
        spec = spec_by_id("sigma_mu")
        with pytest.raises(ValueError):
            check_lemma(spec, Poly("x^2"), 1)
        with pytest.raises(ValueError):
            check_lemma(spec, Poly("x^2+1"), 1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            check_lemma(spec_by_id("sigma_mu"), X, -1)

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

    def test_reports_sorted(self):
        summary = check_all(2, 3)
        keys = [(r.spec_id, r.prime.bits, r.exponent) for r in summary.reports]
        assert keys == sorted(keys)

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
        def corrupt_rule(prime, m):
            return ONE + prime ** (m + 1)

        table = dict(BUILTINS)
        table["sigma_star"] = MultiplicativeFunction("sigma_star",
                                                     corrupt_rule)
        summary = check_all(2, 4, functions=table)
        failing = {r.spec_id for r in summary.failures()}
        assert not summary.all_passed()
        assert "sigmastar_z" in failing
        assert "squareconv_sigma_star" in failing
        # Lemmas not touching sigma_star keep passing.
        assert "sigma_mu" not in failing
        assert "sigma_z" not in failing


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
                table, cotable = lat.table(f), lat.cotable(f)
                assert len(table) == len(cotable) == len(vectors)
                for n, (_, d, q) in enumerate(vectors):
                    assert table[n] == f(Poly(d)).bits, (a, name, n)
                    assert cotable[n] == f(Poly(q)).bits, (a, name, n)

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
        index = identities._Lattice(a).ds.index(root.bits)  # mid, A/D = root
        original = getattr(identities._Lattice, method)
        target = FUNCTIONS[name]

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

    def test_right_sides_evaluate_each_value_once(self, monkeypatch):
        calls = []

        class Counted(MultiplicativeFunction):
            __slots__ = ()

            def __call__(self, b):
                calls.append((self.name, b.bits))
                return super().__call__(b)

        for name in ("sigma", "sigma_star", "phi", "_SIGMA_INV"):
            f = getattr(identities, name)
            monkeypatch.setattr(identities, name, Counted(f.name, f._rule))
        a = (X * X1 * P2) ** 2  # special: every corollary applies
        assert all(r.passed for r in check_corollaries(a))
        # sigma, sigma_star, phi and inv(sigma) at A, and sigma at its
        # root, which is also its radical.
        assert len(calls) == len(set(calls)) == 5


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
