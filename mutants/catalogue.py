"""The mutant catalogue: one-line faults that named tests must catch.

Each Mutant names a file under src/, an exact old text that occurs once
in it, the new text that replaces it, and the test ids that must fail
with it.  mutants/run.py applies each one in a temporary copy of the
repository and runs only its tests.  Every mutant is expected to die:
a survivor is a finding, so add a test that kills it rather than
dropping the mutant.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: "tuple[str, ...]"


PERFECT = "src/gf2mf/perfect.py"
MULTFUN = "src/gf2mf/multfun.py"
FACTORIZE = "src/gf2mf/factorize.py"
IDENTITIES = "src/gf2mf/identities.py"

SEARCH = "tests/test_perfect.py::TestSearch::"
TABLE = SEARCH + "test_walks_equal_the_table_oracle_to_degree_16"
ODD = "tests/test_perfect.py::TestOddScan::"
TAIL = "tests/test_perfect.py::TestTailSolve::"
COST = "tests/test_perfect.py::TestWalkCost::"
SIEVE = "tests/test_perfect.py::TestFactorSieve::"
BUILTINS = "tests/test_multfun.py::TestBuiltins::"
CONVOLVE = "tests/test_multfun.py::TestConvolve::"
LANES = "tests/test_multfun.py::TestLatticeLanes::"
COROLLARIES = "tests/test_identities.py::TestCorollaries::"
LATTICE = "tests/test_identities.py::TestLatticeTables::"
SUITE = "tests/test_identities.py::TestSuite::"
BELL = "tests/test_identities.py::TestBellSeries::"
LEMMAS = "tests/test_identities.py::TestCheckAll::"

MUTANTS = (
    # The one prime-power row table and the affine rule's (s_1, c) pair.
    Mutant("rows-carry-without-c", PERFECT,
           "sig = sig * base & keep ^ c",
           "sig = sig * base & keep",
           (SEARCH + "test_rows_hold_reduced_lane_values",
            ODD + "test_walk_matches_a_plain_loop_over_every_s")),
    Mutant("rows-power-unreduced", PERFECT,
           "pw = pw * base & keep",
           "pw = pw * base",
           (SEARCH + "test_rows_hold_reduced_lane_values",)),
    Mutant("rows-square-unreduced", PERFECT,
           "base = lp * lp & keep if step == 2 else lp",
           "base = lp * lp if step == 2 else lp",
           (SEARCH + "test_rows_hold_reduced_lane_values[sigma-step-2]",)),
    Mutant("rows-carry-past-the-top", PERFECT,
           "if k < top:",
           "if k <= top:",
           (COST + "test_odd_scan",)),
    Mutant("odd-head-room-at-ge", PERFECT,
           "for e, pw, sig in rows[i]:\n                if e > room:",
           "for e, pw, sig in rows[i]:\n                if e >= room:",
           (ODD + "test_walk_matches_a_plain_loop_over_every_s",
            TAIL + "test_walk_equals_the_flat_tail_loop")),
    Mutant("odd-head-rows-at-step-1", PERFECT,
           "_prime_power_rows(primes[:start[max_deg // 4]], max_deg, 2,",
           "_prime_power_rows(primes[:start[max_deg // 4]], max_deg, 1,",
           (ODD + "test_walk_matches_a_plain_loop_over_every_s",)),
    Mutant("odd-passed-row-at-step-1", PERFECT,
           "_prime_power_rows(passed, room, 2, unitary)",
           "_prime_power_rows(passed, room, 1, unitary)",
           (ODD + "test_walked_divisor_sum_multiplies_the_whole_factorization",)),
    Mutant("sigma-step-2-c-is-p", MULTFUN,
           "c = p ^ 1 if step == 2 else 1",
           "c = p if step == 2 else 1",
           (BUILTINS + "test_affine_pair_reproduces_the_rule",
            ODD + "test_walk_matches_a_plain_loop_over_every_s")),
    Mutant("sigma-star-s1-without-1", MULTFUN,
           "return p_step ^ 1, p_step ^ 1",
           "return p_step, p_step ^ 1",
           (BUILTINS + "test_sigma_star_is_unitary_divisor_xor",
            BUILTINS + "test_affine_pair_reproduces_the_rule")),
    Mutant("sigma-step-starts-at-c", MULTFUN,
           "return s1 if len(row) == 1 else",
           "return c if len(row) == 1 else",
           (BUILTINS + "test_sigma_is_divisor_xor",)),
    # The prunes factor the sum the row carries, not its power.
    Mutant("prunes-factor-the-power-not-its-sum", PERFECT,
           "_table_factor(spf, _unspread(sig))",
           "_table_factor(spf, _unspread(pw))",
           (COST + "test_exhaustive_search",
            SEARCH + "test_prune_data_equal_factor_of_multfun_sums")),
    Mutant("req-index-one-high", PERFECT,
           "req |= 1 << index[q]",
           "req |= 2 << index[q]",
           (SEARCH + "test_walk_matches_a_plain_loop_over_every_mask",
            TABLE)),
    # The exhaustive search's primes, listed off its one table.
    Mutant("search-primes-listed-at-cap-0", PERFECT,
           "primes = [2, 3, *_odd_primes(spf)] if cap else []",
           "primes = [2, 3, *_odd_primes(spf)]",
           (SEARCH + "test_rows_list_the_cached_primes",
            SEARCH + "test_walk_equals_the_unbucketed_walk")),
    Mutant("search-table-a-degree-short", PERFECT,
           "spf = _spf_table(cap)",
           "spf = _spf_table(cap - 1)",
           (SEARCH + "test_rows_list_the_cached_primes",)),
    # The exhaustive walk: buckets, rules 1-3 and the x <-> x+1 conjugates.
    Mutant("bucket-key-one-high", PERFECT,
           "buckets[low.bit_length() - 1].append(",
           "buckets[low.bit_length()].append(",
           (SEARCH + "test_walk_equals_the_unbucketed_walk",
            TABLE)),
    Mutant("rule-1-recheck-dropped", PERFECT,
           "if e > room or low & skipped:",
           "if e > room:",
           (SEARCH + "test_walk_visits_each_half_degree_smooth_mask_once",)),
    Mutant("rule-2-stops-at-the-highest-need", PERFECT,
           "(need & -need).bit_length()",
           "need.bit_length()",
           (COST + "test_exhaustive_search",)),
    Mutant("rule-3-extends-what-cannot-close", PERFECT,
           "if weights[need2.bit_length() - 1] <= rest:",
           "if True:",
           (COST + "test_exhaustive_search",)),
    Mutant("conjugates-forgotten", PERFECT,
           "return masks + [c for m, c in pairs if c & -c != m & -m]",
           "return masks",
           (SEARCH + "test_walk_matches_a_plain_loop_over_every_mask",
            TABLE)),
    Mutant("conjugate-whenever-different", PERFECT,
           "if c & -c != m & -m]",
           "if c != m]",
           (SEARCH + "test_walk_visits_each_half_degree_smooth_mask_once",)),
    # The exhaustive walk's valuation prune on x and x+1.
    Mutant("valuation-cut-at-zero-slack", PERFECT,
           "if sx2 < 0 or",
           "if sx2 <= 0 or",
           (SEARCH + "test_exhaustive_degree_6",
            SEARCH + "test_walk_equals_the_unbucketed_walk",
            TABLE)),
    Mutant("x1-cut-before-x1-is-decided", PERFECT,
           "sx12 < 0 and nxt > 1:",
           "sx12 < 0:",
           (SEARCH + "test_exhaustive_degree_6",
            SEARCH + "test_walk_equals_the_unbucketed_walk",
            TABLE)),
    Mutant("x-exponent-not-credited", PERFECT,
           "(k, 0) if p == 2",
           "(0, 0) if p == 2",
           (SEARCH + "test_exhaustive_degree_6",
            SEARCH + "test_walk_equals_the_unbucketed_walk",
            TABLE)),
    Mutant("x1-cut-dropped", PERFECT,
           "if sx2 < 0 or sx12 < 0 and nxt > 1:",
           "if sx2 < 0:",
           (COST + "test_exhaustive_search",
            SEARCH + "test_walk_visits_each_half_degree_smooth_mask_once")),
    # The odd scan's prefilter, tail solve and listing.
    Mutant("prefilter-mask-not-in-lanes", PERFECT,
           "low = _spread(_LOW_MASK)",
           "low = _LOW_MASK",
           (ODD + "test_walk_matches_a_plain_loop_over_every_s",)),
    Mutant("kernel-vector-dropped", PERFECT,
           "kernel.append(p)",
           "pass",
           (TAIL + "test_solutions_equal_brute_force",)),
    Mutant("pivot-at-the-highest-bit", PERFECT,
           "bit = v & -v\n            pivot = pivots.get(bit)",
           "bit = 1 << v.bit_length() - 1\n            pivot = pivots.get(bit)",
           (TAIL + "test_solutions_equal_brute_force",)),
    Mutant("irreducibility-test-skipped", PERFECT,
           "if p >= primes[mid] and is_prime(p)]",
           "if p >= primes[mid]]",
           (TAIL + "test_walk_equals_the_flat_tail_loop_on_a_narrow_filter",)),
    Mutant("solve-origin-at-p-0", PERFECT,
           "p = 1\n    while v:",
           "p = 0\n    while v:",
           (TAIL + "test_solutions_equal_brute_force",)),
    Mutant("solve-column-shift-in-mask-units", PERFECT,
           "a << 16 * i",
           "a << 2 * i",
           (TAIL + "test_solutions_equal_brute_force",)),
    Mutant("solve-columns-from-0", PERFECT,
           "for i in range(1, h + 1):",
           "for i in range(h + 1):",
           (TAIL + "test_solution_set_sizes",
            COST + "test_odd_scan")),
    Mutant("listing-a-degree-short", PERFECT,
           "_spf_table(max_deg // 4 + 1)",
           "_spf_table(max_deg // 4)",
           (ODD + "test_degree_24_counts",)),
    # The rejected sample, read off the candidate set.
    Mutant("sample-takes-even-weight-s", PERFECT,
           "if s.bit_count() & 1)",
           "if s & 1)",
           (ODD + "test_walk_matches_a_plain_loop_over_every_s",)),
    Mutant("sample-keeps-the-checked", PERFECT,
           "(a for a in squares if a not in skip)",
           "squares",
           (TAIL + "test_walk_equals_the_flat_tail_loop_on_a_narrow_filter",)),
    Mutant("sample-range-a-degree-short", PERFECT,
           "range(7, 2 << max_deg // 2, 2)",
           "range(7, 1 << max_deg // 2, 2)",
           (ODD + "test_walk_matches_a_plain_loop_over_every_s",)),
    # The divisor lattice, the convolution step, a lemma's Bell series
    # and the corollary spans.
    Mutant("table-reversed", MULTFUN,
           "return self._walk(f)[0]\n",
           "return self._walk(f)[0][::-1]\n",
           (LATTICE + "test_tables_match_multfun",)),
    Mutant("conv-step-drops-the-last-term", MULTFUN,
           "for l in range(m + 1):",
           "for l in range(m):",
           (CONVOLVE + "test_id_conv_z_is_sigma",)),
    Mutant("bell-coefficient-of-sigma-phi", IDENTITIES,
           '"sigma*phi", (1,), (1, 0, 0b100)',
           '"sigma*phi", (1,), (1, 0, 0b10)',
           (BELL + "test_lemma_is_proved[sigma_phi]",
            LEMMAS + "test_full_grid_green")),
    Mutant("cotable-unreversed", MULTFUN,
           "return self._walk(g)[0][::-1]",
           "return self._walk(g)[0]",
           (CONVOLVE + "test_bruteforce_matches_literal_divisor_sum",)),
    # The lattice's lane route: its bound, its one parity mask, and the
    # read-back of a lane table in a sum with a mask table.
    Mutant("lane-bound-one-high", MULTFUN,
           "if bound <= _LANE_MAX_DEG:",
           "if bound <= _LANE_MAX_DEG + 1:",
           (LANES + "test_lane_route_equals_mask_route_at_the_bound",)),
    Mutant("sum-parity-mask-dropped", MULTFUN,
           "_unspread(acc & _SUM_KEEP)",
           "_unspread(acc)",
           (CONVOLVE + "test_bruteforce_matches_literal_divisor_sum",)),
    Mutant("mixed-sum-in-lanes", MULTFUN,
           "if lanes and g_lanes:",
           "if lanes or g_lanes:",
           (LANES + "test_mixed_sum_reads_the_lane_table_back",)),
    Mutant("mid-span-takes-the-root", IDENTITIES,
           '"mid": (1, 1)',
           '"mid": (0, 1)',
           (COROLLARIES + "test_sigma_id_at_x_squared",)),
    # One lattice per lemma point, shared by the point's specs.
    Mutant("grid-lattice-once-per-prime", IDENTITIES,
           "        for m in range(max_exp + 1):\n"
           "            lattice = _Lattice(prime**m)\n",
           "        lattice = _Lattice(prime)\n"
           "        for m in range(max_exp + 1):\n",
           (LEMMAS + "test_one_lattice_per_point",
            LEMMAS + "test_full_grid_render_is_pinned")),
    Mutant("grid-lattice-one-exponent-up", IDENTITIES,
           "lattice = _Lattice(prime**m)",
           "lattice = _Lattice(prime**(m + 1))",
           (LEMMAS + "test_one_lattice_per_point",
            LEMMAS + "test_full_grid_render_is_pinned")),
    Mutant("lemma-default-lattice-at-the-prime", IDENTITIES,
           "lattice = _Lattice(point)",
           "lattice = _Lattice(prime)",
           (LEMMAS + "test_one_lattice_per_point",
            "tests/test_identities.py::TestCheckLemma::test_sigma_z_example")),
    # The corollary right sides' argument table and value memo.
    Mutant("root-argument-is-a", IDENTITIES,
           '"root": root',
           '"root": a',
           (COROLLARIES + "test_sigma_id_at_x_squared",)),
    Mutant("value-memo-keyed-by-the-argument-alone", IDENTITIES,
           "key = f, b.bits",
           "key = b.bits",
           (SUITE + "test_every_report_is_pinned",)),
    # The smallest-prime table and the factoring off it.
    Mutant("sieve-gray-step-one-shift", FACTORIZE,
           "prod ^= p2 ^ p2 * (i & -i)",
           "prod ^= p2 * (i & -i)",
           (SIEVE + "test_flags_equal_the_plain_sieve",)),
    Mutant("sieve-parity-seed-flipped", FACTORIZE,
           "marks = bytearray(1)\n",
           "marks = bytearray(b\"\\2\")\n",
           (SIEVE + "test_flags_equal_the_plain_sieve",)),
    Mutant("spf-entry-written-by-the-last-prime", FACTORIZE,
           "if spf[prod] == mark:\n                spf[prod] = p",
           "spf[prod] = p",
           (SIEVE + "test_entries_are_the_smallest_primes",
            SIEVE + "test_factorization_equals_factor")),
    Mutant("table-factor-leaves-x1", FACTORIZE,
           "while not m.bit_count() & 1:",
           "while not m & 1:",
           (SIEVE + "test_factorization_equals_factor",
            SEARCH + "test_walk_matches_a_plain_loop_over_every_mask")),
)
