"""Tests for the multiplicative-function algebra."""

from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from gf2mf import multfun
from gf2mf.divisors import (
    ResourceLimitError,
    _products,
    divisors,
    unitary_divisors,
)
from gf2mf.factorize import factor, irreducibles_up_to
from gf2mf.gf2poly import ONE, Poly, X, X1, ZERO, _mul_bits, conjugate
from gf2mf.multfun import (
    BUILTINS,
    MAX_EXPRESSION_TERMS,
    _divsum_affine,
    builtin,
    convolve,
    convolve_bruteforce,
    delta,
    evaluate,
    ident,
    inverse,
    mu,
    parse_expression,
    phi,
    pointwise_add,
    pointwise_mul,
    sigma,
    sigma_star,
    square_conv,
    z,
)

ALL_BUILTINS = [delta, z, ident, mu, phi, sigma, sigma_star]

nonzero_masks = st.integers(min_value=1, max_value=(1 << 13) - 1)


def _xor(polys):
    acc = 0
    for p in polys:
        acc ^= p.bits
    return Poly(acc)


class TestBuiltins:
    def test_prime_power_rules(self):
        p = Poly("x^2+x+1")
        assert delta.at_prime_power(p, 3) == ZERO
        assert z.at_prime_power(p, 3) == ONE
        assert ident.at_prime_power(p, 3) == p**3
        assert mu.at_prime_power(p, 1) == ONE
        assert mu.at_prime_power(p, 2) == ZERO
        assert phi.at_prime_power(p, 2) == p**2 + p
        assert sigma.at_prime_power(p, 2) == ONE + p + p**2
        assert sigma_star.at_prime_power(p, 2) == ONE + p**2

    def test_exponent_zero_gives_one(self):
        for f in ALL_BUILTINS:
            assert f.at_prime_power(X, 0) == ONE

    def test_negative_exponent_rejected(self):
        for f in ALL_BUILTINS:
            with pytest.raises(ValueError, match="negative"):
                f.at_prime_power(X, -1)

    def test_examples(self):
        assert phi(Poly("x^2")) == Poly("x^2+x")
        assert sigma(Poly("x^2+x")) == Poly("x^2+x")
        assert mu(Poly("x^2")) == ZERO

    def test_evaluate_example(self):
        assert evaluate(sigma, Poly("x^3+x^2")) == Poly("x^3+x^2+x")

    def test_value_at_one(self):
        for f in ALL_BUILTINS:
            assert f(ONE) == ONE

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sigma(ZERO)

    def test_delta_is_indicator_of_one(self):
        for m in range(2, 1 << 7):
            assert delta(Poly(m)) == ZERO

    def test_builtin_lookup(self):
        assert builtin("sigma_star") is sigma_star
        assert sorted(BUILTINS) == [
            "delta", "id", "mu", "phi", "sigma", "sigma_star", "z",
        ]
        with pytest.raises(ValueError):
            builtin("nosuch")

    def test_multiplicativity(self):
        a = Poly("x^2")
        b = Poly("x^2+x+1")
        for f in ALL_BUILTINS:
            assert f(a * b) == f(a) * f(b)

    def test_sigma_is_divisor_xor(self):
        for m in range(1, 1 << 9):
            a = Poly(m)
            assert sigma(a) == _xor(divisors(factor(a)))

    def test_sigma_star_is_unitary_divisor_xor(self):
        for m in range(1, 1 << 9):
            a = Poly(m)
            assert sigma_star(a) == _xor(unitary_divisors(factor(a)))

    @pytest.mark.parametrize("unitary, rule", [
        (False, lambda p, n: _xor([p**j for j in range(n + 1)]).bits),
        (True, lambda p, n: (p**n).bits ^ 1),
    ], ids=["sigma", "sigma_star"])
    @pytest.mark.parametrize("step", [1, 2])
    def test_affine_pair_reproduces_the_rule(self, unitary, rule, step):
        # s_1 and s_k = s_(k-1) * P^step + c from the pair (s_1, c) are
        # the divisor sums of P^(k * step), written out literally, for
        # every prime of degree <= 8 and k <= 8; so is the builtin's value
        # there.
        f = sigma_star if unitary else sigma
        for p in irreducibles_up_to(8):
            p_step = (p**step).bits
            s, c = _divsum_affine(p.bits, p_step, step, unitary)
            for k in range(1, 9):
                assert s == rule(p, k * step)
                assert f.at_prime_power(p, k * step).bits == s
                s = _mul_bits(s, p_step) ^ c

    def test_mu_matches_squarefree_rule(self):
        for m in range(1, 1 << 9):
            a = Poly(m)
            squarefree = all(e == 1 for _, e in factor(a))
            assert mu(a) == (ONE if squarefree else ZERO)


class TestConvolve:
    def test_name(self):
        assert convolve(sigma, mu).name == "sigma*mu"
        assert square_conv(sigma).name == "sq(sigma)"

    def test_identity_element(self):
        for f in ALL_BUILTINS:
            conv = convolve(f, delta)
            for m in range(1, 1 << 7):
                assert conv(Poly(m)) == f(Poly(m))

    def test_id_conv_z_is_sigma(self):
        conv = convolve(ident, z)
        for m in range(1, 1 << 8):
            assert conv(Poly(m)) == sigma(Poly(m))

    def test_empty_convolution_at_one(self):
        for f in ALL_BUILTINS:
            for g in ALL_BUILTINS:
                assert convolve(f, g)(ONE) == ONE
                assert convolve_bruteforce(f, g, ONE) == ONE

    def test_bruteforce_matches_literal_divisor_sum(self):
        for f, g in [(sigma, mu), (sigma_star, z), (phi, ident), (mu, mu)]:
            for m in range(1, 1 << 8):
                a = Poly(m)
                acc = ZERO
                for d in divisors(factor(a)):
                    acc = acc + f(d) * g(a // d)
                assert convolve_bruteforce(f, g, a) == acc

    @pytest.mark.parametrize("first, last", [(0, 0), (1, 1), (0, 1), (1, 0)])
    def test_xor_sum_over_a_span_is_the_literal_sum(self, first, last):
        # Divisor n of the walk sits at index n, and A/D at the other end.
        for f, g in [(sigma, mu), (sigma_star, z), (phi, ident), (mu, mu)]:
            for m in range(1, 1 << 7):
                a = Poly(m)
                lat = multfun._Lattice(a)
                ds = [Poly(d) for _, d, _ in lat.vectors()]
                acc = ZERO
                for d in ds[first:len(ds) - last]:
                    acc = acc + f(d) * g(a // d)
                assert lat.xor_sum(f, g, first, last) == acc.bits, (a, f, g)

    def test_symbolic_equals_bruteforce_exhaustive(self):
        # Every builtin pair, every polynomial of degree <= 8.
        pts = [Poly(m) for m in range(1, 1 << 9)]
        for f in ALL_BUILTINS:
            for g in ALL_BUILTINS:
                conv = convolve(f, g)
                for a in pts:
                    assert conv(a) == convolve_bruteforce(f, g, a)

    def test_commutative(self):
        for f, g in [(sigma, mu), (phi, sigma_star), (ident, sigma)]:
            fg, gf = convolve(f, g), convolve(g, f)
            for m in range(1, 1 << 7):
                assert fg(Poly(m)) == gf(Poly(m))

    def test_associative(self):
        left = convolve(convolve(sigma, mu), phi)
        right = convolve(sigma, convolve(mu, phi))
        for m in range(1, 1 << 7):
            assert left(Poly(m)) == right(Poly(m))

    def test_square_conv_matches_self_convolution(self):
        sq = square_conv(sigma)
        both = convolve(sigma, sigma)
        for m in range(1, 1 << 7):
            assert sq(Poly(m)) == both(Poly(m))

    def test_distributes_over_pointwise_add(self):
        f_plus_g = pointwise_add(sigma, mu)
        for m in range(1, 1 << 7):
            a = Poly(m)
            lhs = ZERO
            for d in divisors(factor(a)):
                lhs = lhs + f_plus_g(d) * z(a // d)
            rhs = convolve_bruteforce(sigma, z, a) + convolve_bruteforce(mu, z, a)
            assert lhs == rhs

    def test_totally_multiplicative_law(self):
        # f totally multiplicative: f(g*h) = (f g)*(f h) pointwise.
        lhs = pointwise_mul(ident, convolve(sigma, mu))
        rhs = convolve(pointwise_mul(ident, sigma), pointwise_mul(ident, mu))
        for m in range(1, 1 << 7):
            assert lhs(Poly(m)) == rhs(Poly(m))

    def test_bruteforce_rejects_zero(self):
        with pytest.raises(ValueError, match="undefined at 0"):
            convolve_bruteforce(sigma, z, ZERO)

    def test_bruteforce_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            convolve_bruteforce(sigma, z, Poly("x^2+x") ** 1024)

    def test_remark_sigma_conv_differs_from_sigma_id(self):
        s = Poly("x^2+x")
        assert convolve_bruteforce(sigma, sigma, s) == ZERO
        assert convolve_bruteforce(sigma, ident, s) == ONE

    @pytest.mark.parametrize("g, walks", [(sigma, 1), (phi, 2)])
    def test_bruteforce_walks_each_function_once(self, monkeypatch, g, walks):
        # g(a/d) is g's table read backwards: sq(sigma) walks sigma once.
        calls = []

        def counted(rows, value):
            calls.append(rows)
            return _products(rows, value)

        monkeypatch.setattr(multfun, "_products", counted)
        a = X**6
        assert convolve_bruteforce(sigma, g, a) == convolve(sigma, g)(a)
        assert len(calls) == walks

    @pytest.mark.parametrize("a, products", [
        (Poly("x^2+x+1") ** 6, 0),
        (X**2 * Poly("x^2+x+1") ** 3, 12),
    ])
    def test_lattice_multiplies_no_value_by_the_unit(self, monkeypatch, a,
                                                     products):
        # The first row's values are the first row's products: a one-prime
        # lattice multiplies nothing, and each later row pays one product
        # per entry of the tables it extends.  Both tables are lane values
        # here, so a product is one integer multiply, which the row values
        # count as they take part in it.
        calls = []

        class Counted(int):
            def __mul__(self, other):
                calls.append(other)
                return int(self) * int(other)

            __rmul__ = __mul__

        lane_row = multfun.MultiplicativeFunction.lane_row

        def counted(f, p, e):
            vals, top = lane_row(f, p, e)
            return [Counted(v) for v in vals], top

        expected = [sigma(d).bits for d in divisors(factor(a))]
        monkeypatch.setattr(multfun.MultiplicativeFunction, "lane_row",
                            counted)
        lat = multfun._Lattice(a)
        assert lat.lanes(sigma) and lat.lanes(phi)
        assert lat.masks(sigma) == expected
        lat.cotable(phi)
        assert len(calls) == 2 * products


class TestLatticeLanes:
    """A lattice keeps f's table in lane form only while the entry bound
    read off f's rows is at most _LANE_MAX_DEG, and its sums equal those
    of the mask route and of the symbolic convolution."""

    # f(P^j) = sigma(P^j) phi(P^j)^5 has degree 6 j deg P: its entries
    # pass the lane bound on lattices of degree far below it.
    SIGMA_PHI5 = reduce(pointwise_mul, [phi] * 5, sigma)

    @pytest.mark.parametrize("a, lanes", [
        (X**42, True), (X**120, False), (X**200, False),
        (Poly("x^2+x") ** 60, False),
    ])
    def test_row_degrees_not_deg_a_pick_the_route(self, a, lanes):
        f = self.SIGMA_PHI5
        assert convolve_bruteforce(f, f, a) == convolve(f, f)(a)
        assert multfun._Lattice(a).lanes(f) is lanes

    @pytest.mark.parametrize("a, lanes", [
        (X**254, True), (X**255, False),
        (X**127 * X1**127, True), (X**128 * X1**127, False),
    ])
    def test_lane_route_equals_mask_route_at_the_bound(
            self, monkeypatch, a, lanes):
        pairs = [(ident, ident), (sigma, phi), (phi, z), (ident, mu)]
        lat = multfun._Lattice(a)
        got = [lat.xor_sum(f, g, first, last) for f, g in pairs
               for first, last in ((0, 0), (1, 1))]
        assert [lat.lanes(f) for f in (ident, sigma, phi)] == [lanes] * 3
        monkeypatch.setattr(multfun, "_LANE_MAX_DEG", -1)
        masks = multfun._Lattice(a)
        assert not any(masks.lanes(f) for f in (ident, sigma, phi, mu))
        assert got == [masks.xor_sum(f, g, first, last) for f, g in pairs
                       for first, last in ((0, 0), (1, 1))]
        assert got[::2] == [convolve(f, g)(a).bits for f, g in pairs]

    def test_mixed_sum_reads_the_lane_table_back(self):
        # phi's entries reach degree 45, SIGMA_PHI5's 270.
        a = X**25 * X1**20
        f = self.SIGMA_PHI5
        lat = multfun._Lattice(a)
        assert lat.lanes(phi) and not lat.lanes(f)
        for left, right in ((phi, f), (f, phi)):
            assert convolve_bruteforce(left, right, a) == convolve(
                left, right)(a)


class TestInverse:
    def test_examples(self):
        assert inverse(sigma)(Poly("x^2")) == X
        assert inverse(sigma)(X) == X1

    def test_name(self):
        assert inverse(sigma).name == "inv(sigma)"

    def test_convolving_with_inverse_gives_delta(self):
        for f in ALL_BUILTINS:
            inv = inverse(f)
            assert convolve_bruteforce(f, inv, ONE) == ONE
            for m in range(2, 1 << 7):
                assert convolve_bruteforce(f, inv, Poly(m)) == ZERO

    def test_double_inverse(self):
        for f in ALL_BUILTINS:
            back = inverse(inverse(f))
            for p in irreducibles_up_to(3):
                for r in range(9):
                    assert back.at_prime_power(p, r) == f.at_prime_power(p, r)

    def test_inverse_of_convolution(self):
        for f, g in [(sigma, mu), (phi, sigma_star), (ident, z)]:
            lhs = inverse(convolve(f, g))
            rhs = convolve(inverse(f), inverse(g))
            for p in irreducibles_up_to(3):
                for r in range(9):
                    assert lhs.at_prime_power(p, r) == rhs.at_prime_power(p, r)

    def test_mu_and_z_are_inverse(self):
        inv_mu, inv_z = inverse(mu), inverse(z)
        for m in range(1, 1 << 8):
            a = Poly(m)
            assert inv_mu(a) == z(a)
            assert inv_z(a) == mu(a)

    def test_phi_identities(self):
        # phi = Id*mu, so phi*z = Id and inv(Id) = inv(phi)*inv(z)... = phi^inv*mu.
        conv = convolve(ident, mu)
        for m in range(1, 1 << 8):
            assert conv(Poly(m)) == phi(Poly(m))
        lhs = convolve(inverse(phi), mu)
        rhs = inverse(ident)
        for p in irreducibles_up_to(3):
            for r in range(9):
                assert lhs.at_prime_power(p, r) == rhs.at_prime_power(p, r)

    @given(nonzero_masks)
    def test_mobius_round_trip(self, m):
        a = Poly(m)
        for f in ALL_BUILTINS:
            g = convolve(f, z)
            assert convolve(g, mu)(a) == f(a)
            h = convolve(f, mu)
            assert convolve(h, z)(a) == f(a)

    def test_memoized_recursion_reaches_high_exponents(self):
        # Without memoization this recursion would be exponential in r.
        value = inverse(sigma).at_prime_power(Poly("x^2+x+1"), 200)
        assert value == ZERO


class TestRows:
    """Each function grows one append-only row per prime; derived
    functions grow their operands' rows, which the builtins share."""

    @staticmethod
    def fresh(monkeypatch):
        for f in (ident, phi, sigma):
            monkeypatch.setattr(f, "_cache", {})
        return [inverse(sigma), square_conv(phi), pointwise_mul(ident, sigma)]

    def test_values_do_not_depend_on_the_order_asked(self, monkeypatch):
        p = Poly("x^2+x+1")
        expected = [[f.at_prime_power(p, r) for r in range(13)]
                    for f in self.fresh(monkeypatch)]
        fs = self.fresh(monkeypatch)
        first = [[f.at_prime_power(p, r) for f in fs] for r in (12, 3)]
        assert first == [[row[r] for row in expected] for r in (12, 3)]
        assert [[f.at_prime_power(p, r) for r in range(13)]
                for f in fs] == expected
        for f in (ident, phi, sigma, *fs):
            assert [len(row) for row in f._cache.values()] == [13]

    def test_oversized_row_refused_before_it_grows(self, monkeypatch):
        # x^23169 is the largest power of x whose row fits the bound.
        monkeypatch.setattr(ident, "_cache", {})
        assert ident.at_prime_power(X, 3) == X**3
        with pytest.raises(ResourceLimitError, match="row bound"):
            ident(X**23170)
        with pytest.raises(ResourceLimitError, match="row bound"):
            ident.at_prime_power(Poly("x^2+x+1"), 16384)
        assert ident._cache == {X.bits: [1, 2, 4, 8], 0b111: [1]}

    def test_state_after_verify_is_bounded(self, fresh_python):
        # The grid and the suite leave 3276 prime-power values in the
        # live functions, the count of distinct (P, r) values they asked
        # for; a row holds only the values below the largest it serves,
        # and its lane form no more than the row.
        out = fresh_python(
            "import gc\n"
            "from gf2mf.identities import check_all, corollary_suite\n"
            "from gf2mf.multfun import MultiplicativeFunction\n"
            "check_all(5, 10)\n"
            "corollary_suite(seed=1001)\n"
            "gc.collect()\n"
            "fs = [o for o in gc.get_objects()\n"
            "      if isinstance(o, MultiplicativeFunction)]\n"
            "print(sum(len(r) - 1 for f in fs for r in f._cache.values()))\n"
            "print(all(len(f._lanes[p][0]) <= len(f._cache[p])\n"
            "          for f in fs for p in f._lanes))\n"
        )
        values, lanes = out.split()
        assert int(values) <= 3276
        assert lanes == "True"


class TestPointwise:
    def test_mul_values_and_name(self):
        pm = pointwise_mul(sigma, mu)
        assert pm.name == "ptmul(sigma,mu)"
        for m in range(1, 1 << 7):
            a = Poly(m)
            assert pm(a) == sigma(a) * mu(a)

    def test_add_values(self):
        pa = pointwise_add(sigma, sigma_star)
        for m in range(1, 1 << 7):
            a = Poly(m)
            assert pa(a) == sigma(a) + sigma_star(a)


class TestConjugationSymmetry:
    def test_builtins_commute_with_conjugation(self):
        for f in (sigma, sigma_star, phi, mu):
            for m in range(1, 1 << 9):
                a = Poly(m)
                assert f(conjugate(a)) == conjugate(f(a))


class TestExpressionParser:
    def test_single_name(self):
        assert parse_expression("sigma") is sigma

    def test_product(self):
        f = parse_expression("sigma_star*mu")
        assert f.name == "sigma_star*mu"
        assert f(Poly("x^3")) == Poly("x^3+x^2")

    def test_inv(self):
        assert parse_expression("inv(sigma)")(Poly("x^2")) == X

    def test_sq(self):
        f = parse_expression("sq(sigma)")
        for m in range(1, 1 << 6):
            assert f(Poly(m)) == convolve(sigma, sigma)(Poly(m))

    def test_nested(self):
        f = parse_expression("inv(sq(sigma))*z")
        g = convolve(inverse(convolve(sigma, sigma)), z)
        for p in irreducibles_up_to(2):
            for r in range(6):
                assert f.at_prime_power(p, r) == g.at_prime_power(p, r)

    def test_left_associative_name(self):
        assert parse_expression("sigma*mu*z").name == "sigma*mu*z"

    def test_whitespace(self):
        assert parse_expression(" sigma * mu ").name == "sigma*mu"

    @pytest.mark.parametrize(
        "text",
        ["", "nosuch", "sigma*", "*mu", "inv(sigma", "inv()", "sigma)", "sq", "sigma mu"],
    )
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_expression(text)

    @pytest.mark.parametrize("text, message", [
        ("", "empty function expression (position 0)"),
        ("  ", "empty function expression (position 2)"),
        ("sig$ma", "unexpected character '$' in function expression "
                   "(position 3)"),
        ("nosuch", "unknown function name 'nosuch' (position 0)"),
        ("sigma*", "function expression ends where a name was expected "
                   "(position 6)"),
        ("*mu", "unexpected '*' in function expression (position 0)"),
        ("inv(sigma", "unclosed inv( in function expression (position 9)"),
        ("sq(sigma mu)", "unclosed sq( in function expression (position 9)"),
        ("inv()", "unexpected ')' in function expression (position 4)"),
        ("sigma mu", "unexpected 'mu' in function expression (position 6)"),
        ("z * " * 100 + "mu", "101 function terms exceed the expression "
                              "bound of 100 (position 400)"),
    ])
    def test_errors_name_the_offset(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_expression(text)
        assert str(info.value) == message

    def test_deepest_expressions_at_the_bound_evaluate(self):
        n = MAX_EXPRESSION_TERMS
        nested = parse_expression("inv(" * (n - 1) + "sigma" + ")" * (n - 1))
        chain = parse_expression("*".join(["z", "mu"] * (n // 2)))
        for m in range(1, 1 << 7):
            a = Poly(m)
            expected = sigma(a) if n % 2 else inverse(sigma)(a)
            assert nested(a) == expected
            assert chain(a) == delta(a)

    @pytest.mark.parametrize("text", [
        "inv(" * MAX_EXPRESSION_TERMS + "z" + ")" * MAX_EXPRESSION_TERMS,
        "*".join(["sigma"] * (MAX_EXPRESSION_TERMS + 1)),
    ], ids=["nested", "chain"])
    def test_one_term_over_the_bound_is_refused(self, text):
        with pytest.raises(ValueError, match="exceed the expression bound"):
            parse_expression(text)

    @settings(max_examples=500)
    @given(st.one_of(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz_*() ", max_size=40),
        st.lists(st.sampled_from(["inv(", "sq(", "(", ")", "*", " ", "inv",
                                  "sigma", "sigma_star", "mu", "z", "id"]),
                 max_size=250).map("".join),
    ))
    def test_fuzz_returns_a_function_or_raises_value_error(self, text):
        try:
            f = parse_expression(text)
        except ValueError:
            return
        assert isinstance(f(Poly("x^3+x^2+x")), Poly)
