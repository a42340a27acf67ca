import collections
import itertools
import math

import numpy as np
import pytest

from dispersive_lab.counting import (
    DEFAULT_SIEVE_LIMIT,
    BudgetExceededError,
    CountTable,
    Int64OverflowError,
    SystemSpec,
    _plan,
    check_divisor_property,
    count_S,
    divisor_count,
    enumerate_triples,
    max_offcurve_solution_count,
    mobius,
    mobius_phi_sieve,
    power_sum_distribution,
    ramanujan_block_ratio,
    ramanujan_sum,
    ramanujan_sum_direct,
)


def brute_force_S(d, b, N):
    """Exhaustive oracle: enumerate all b-tuples, group signatures, sum squares."""
    rng = np.arange(-N, N + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng] * b), indexing="ij")
    A = sum(g.astype(object) for g in grids).ravel()
    B = sum(g.astype(object) ** d for g in grids).ravel()
    sig = {}
    for a_val, b_val in zip(A.tolist(), B.tolist()):
        sig[(a_val, b_val)] = sig.get((a_val, b_val), 0) + 1
    return sum(v * v for v in sig.values())


def pair_enumeration_S(d, b, N):
    """Second oracle for tiny cases: check the 2b-variable system literally."""
    count = 0
    rng = range(-N, N + 1)
    for tup in itertools.product(rng, repeat=2 * b):
        n, m = tup[:b], tup[b:]
        if sum(n) == sum(m) and sum(v**d for v in n) == sum(v**d for v in m):
            count += 1
    return count


def test_count_table_basics():
    t = power_sum_distribution(SystemSpec(3, 1, 1))
    entries = sorted(t.items())
    assert entries == [(-1, -1, 1), (0, 0, 1), (1, 1, 1)]


def test_pair_table_entry():
    t = power_sum_distribution(SystemSpec(3, 2, 1))
    assert t.entry(0, 0) == 3
    assert t.total_mass() == 9


def test_total_mass_identity():
    for d, b, N in [(3, 2, 4), (5, 2, 3), (3, 3, 2), (7, 2, 2)]:
        t = power_sum_distribution(SystemSpec(d, b, N))
        assert t.total_mass() == (2 * N + 1) ** b


def test_count_s_examples():
    assert count_S(SystemSpec(3, 1, 7)) == 15
    assert count_S(SystemSpec(5, 1, 50)) == 101
    assert count_S(SystemSpec(3, 2, 1)) == 19


def test_count_s_matches_tuple_oracle():
    for d in (3, 5):
        for b, n_max in ((2, 6), (3, 4), (4, 2)):
            for N in range(1, n_max + 1):
                assert count_S(SystemSpec(d, b, N)) == brute_force_S(d, b, N)


def test_count_s_matches_literal_pair_enumeration():
    for d in (3, 5):
        assert count_S(SystemSpec(d, 2, 2)) == pair_enumeration_S(d, 2, 2)
        assert count_S(SystemSpec(d, 3, 1)) == pair_enumeration_S(d, 3, 1)


def test_sparse_and_dense_paths_agree():
    spec = SystemSpec(3, 3, 5)
    dense = count_S(spec)
    sparse = count_S(spec, mem_budget=200_000)
    assert dense == sparse
    t_dense = power_sum_distribution(spec)
    t_sparse = power_sum_distribution(spec, mem_budget=200_000)
    assert sorted(t_dense.items()) == sorted(t_sparse.items())


def test_symmetry_odd_d():
    for spec in (SystemSpec(3, 2, 4), SystemSpec(5, 3, 2)):
        t = power_sum_distribution(spec)
        for A, B, c in t.items():
            assert t.entry(-A, -B) == c


def test_lower_bound_diagonal():
    # S >= N^b via diagonal solutions (in fact >= (2N+1)^b)
    for d, b, N in [(3, 2, 6), (5, 2, 8), (3, 4, 3)]:
        assert count_S(SystemSpec(d, b, N)) >= (2 * N + 1) ** b


def test_lower_bound_box_argument():
    # the small-box family: near (x, t) = 0 the curve sum has modulus ~ N,
    # giving S >= N^{2b-(d+1)} / (2b * 60^{d+1}) with the explicit box
    # |x| <= 1/(60N), |t| <= 1/(60 N^d)
    for d, b, N in [(3, 2, 8), (3, 3, 8), (3, 4, 6), (5, 2, 6)]:
        s_val = count_S(SystemSpec(d, b, N))
        box = N ** (2 * b - (d + 1)) / (2 * b * 60 ** (d + 1))
        assert s_val >= max(N**b, box)


def test_layout_plan_pins_benchmark_inputs():
    # the counting benchmark's inputs, at its 2^28-byte budget
    budget = 2**28
    small = [(5, b, N) for b in (2, 3) for N in (8, 16, 32, 45, 64)]
    mid = [(3, 4, 22), (3, 5, 16), (5, 6, 6), (5, 8, 6)]
    large = [(5, 6, 12), (3, 4, 32)]
    over_budget = [(5, 6, 32), (5, 8, 32)]
    for dbn in small + large + over_budget:
        spec = SystemSpec(*dbn)
        assert _plan(spec, budget, want="squares") == _plan(spec, budget) == "sparse", dbn
    for dbn in mid:
        spec = SystemSpec(*dbn)
        assert _plan(spec, budget, want="squares") == "streamed", dbn
        assert _plan(spec, budget) == "dense", dbn
    for dbn in over_budget:
        with pytest.raises(BudgetExceededError):
            count_S(SystemSpec(*dbn), mem_budget=budget)
    assert _plan(SystemSpec(5, 6, 6), budget, weighted=True) == "dense"
    assert _plan(SystemSpec(5, 6, 12), budget, weighted=True) == "sparse"
    # at 2^27 bytes level b-1 and one row of level b fit, the top two levels do not
    assert _plan(SystemSpec(3, 4, 22), 2**27, want="squares") == "streamed"
    assert _plan(SystemSpec(3, 4, 22), 2**27) == "sparse"


def test_packed_key_int64_guard():
    # (2bN+1)(2bN^d+1) first passes int64 at d=9, b=3, N=56
    t = power_sum_distribution(SystemSpec(9, 3, 55))
    assert t.total_mass() == 111**3
    A, B, _ = t.columns()
    assert (A.min(), A.max(), B.min(), B.max()) == (-165, 165, -3 * 55**9, 3 * 55**9)
    assert t.entry(165, 3 * 55**9) == t.entry(-165, -3 * 55**9) == 1
    for N in (56, 64):
        for build in (count_S, power_sum_distribution):
            with pytest.raises(Int64OverflowError, match=f"d=9, b=3, N={N}"):
                build(SystemSpec(9, 3, N))
    # one-tuple counts pack no keys (criterion 01 goes to d=5, N=4999)
    assert count_S(SystemSpec(5, 1, 4999)) == 9999


def test_sums_of_squares_past_int64_stay_exact():
    # d=2, b=12, N=6: counts fit int64, but one A-row's squared counts add up
    # past 2^63, which an int64 dot wraps
    spec = SystemSpec(2, 12, 6)
    t = power_sum_distribution(spec)
    exact = sum(v * v for v in t.columns()[2].tolist())
    assert exact > 2**63
    assert count_S(spec) == t.sum_of_squared_moduli() == exact
    # 25^14 tuples: the counts themselves would pass int64
    with pytest.raises(Int64OverflowError, match="d=2, b=14, N=12"):
        count_S(SystemSpec(2, 14, 12))


def test_budget_error_suggests_smaller_n():
    with pytest.raises(BudgetExceededError) as exc:
        count_S(SystemSpec(5, 6, 32), mem_budget=10_000_000)
    assert exc.value.suggested_n is not None


def test_weighted_table_matches_counts():
    spec = SystemSpec(3, 2, 3)
    ones = np.ones(7, dtype=complex)
    tw = power_sum_distribution(spec, weights=ones)
    tc = power_sum_distribution(spec)
    assert tw.sum_of_squared_moduli() == pytest.approx(float(tc.sum_of_squared_moduli()))


def test_enumerate_triples_odd_d_example():
    sols = enumerate_triples(5, 3, 6, 276)
    assert (1, 2, 3) in sols
    assert len(sols) == 6  # the six permutations


def test_enumerate_triples_zero_family():
    sols = enumerate_triples(3, 4, 0, 0)
    for k in range(-4, 5):
        assert (k, -k, 0) in sols


def test_triples_require_odd_d():
    with pytest.raises(ValueError):
        enumerate_triples(4, 3, 0, 0)


def test_divisor_property_example():
    assert check_divisor_property((1, 2, 3), 5)
    assert check_divisor_property((2, -2, 0), 7)


def test_divisor_property_exhaustive_small():
    for d in (3, 5, 7):
        N = 6
        rng = range(-N, N + 1)
        for n1, n2, n3 in itertools.product(rng, repeat=3):
            A = n1 + n2 + n3
            B = n1**d + n2**d + n3**d
            assert check_divisor_property((n1, n2, n3), d, A, B)


def test_max_offcurve_count_flat_for_quintic():
    assert max_offcurve_solution_count(5, 10) == 6


def test_max_offcurve_count_int64_guard():
    # (3N)^9 first exceeds int64 at N=43: N=40 is exact, N=42 still computes.
    d, N = 9, 40
    sig = collections.Counter(
        (n1 + n2 + n3, n1**d + n2**d + n3**d)
        for n1, n2, n3 in itertools.product(range(-N, N + 1), repeat=3))
    exact = max(c for (A, B), c in sig.items() if B != A**d)
    assert max_offcurve_solution_count(d, N) == exact
    assert max_offcurve_solution_count(d, 42) >= exact
    for N in (43, 64):
        with pytest.raises(Int64OverflowError, match=f"d=9, N={N}"):
            max_offcurve_solution_count(d, N)


def test_mobius_values():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    for n in (0, -1, -4):
        with pytest.raises(ValueError):
            mobius(n)


def _python_sieve(limit):
    """The per-n smallest-prime-factor recurrence, one entry at a time."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if spf[p] == 0:
            spf[p::p][spf[p::p] == 0] = p
    mu = np.ones(limit + 1, dtype=np.int64)
    phi = np.arange(limit + 1, dtype=np.int64)
    mu[0] = 0
    for m in range(2, limit + 1):
        p = int(spf[m])
        rest = m // p
        mu[m] = 0 if rest % p == 0 else -mu[rest]
        phi[m] = phi[rest] * (p if rest % p == 0 else p - 1)
    return mu, phi, spf


def test_sieve_matches_python_recurrence():
    for limit in list(range(1, 201)) + [10**4]:
        for got, want in zip(mobius_phi_sieve(limit), _python_sieve(limit)):
            assert got.dtype == np.int64
            assert np.array_equal(got, want), limit


def test_ramanujan_sum_arrays_match_scalars():
    q = np.arange(1, 61)[:, None]
    n = np.arange(-40, 41)[None, :]
    got = ramanujan_sum(q, n)
    assert got.dtype == np.int64 and got.shape == (60, 81)
    want = [[ramanujan_sum(int(qi), int(ni)) for ni in n[0]] for qi in q[:, 0]]
    assert np.array_equal(got, want)
    assert type(ramanujan_sum(12, 8)) is int
    with pytest.raises(ValueError):
        ramanujan_sum(DEFAULT_SIEVE_LIMIT + 1, 3)
    with pytest.raises(ValueError):
        ramanujan_sum(np.array([5, DEFAULT_SIEVE_LIMIT + 1]), 3)
    with pytest.raises(ValueError):
        ramanujan_sum(0, 3)


def test_ramanujan_examples():
    assert all(ramanujan_sum(1, n) == 1 for n in range(-3, 4))
    assert ramanujan_sum(9, 0) == 6  # Euler phi
    assert ramanujan_sum(6, 4) == -1
    assert ramanujan_sum(6, 4) == pytest.approx(ramanujan_sum_direct(6, 4).real)


def test_ramanujan_even_in_n():
    for q in (5, 12, 36):
        for n in (1, 7, 30):
            assert ramanujan_sum(q, n) == ramanujan_sum(q, -n)


def test_ramanujan_matches_direct_sum_sampled():
    rng = np.random.default_rng(2)
    for _ in range(60):
        q = int(rng.integers(1, 200))
        n = int(rng.integers(-200, 201))
        direct = ramanujan_sum_direct(q, n)
        assert abs(direct.imag) < 1e-9
        assert abs(ramanujan_sum(q, n) - direct.real) < 1e-9


def test_divisor_count_examples():
    assert divisor_count(12, 5) == 4
    assert divisor_count(13, 13) == 1
    assert divisor_count(-12, 5) == 4
    with pytest.raises(ValueError):
        divisor_count(0, 5)


def test_block_ratio_positive_and_finite():
    rng = np.random.default_rng(4)
    for Q in (8, 32):
        for _ in range(5):
            n = int(rng.integers(1, Q**3))
            r = ramanujan_block_ratio(Q, n)
            assert 0.0 <= r < math.inf


def test_table_csv_export(tmp_path):
    t = power_sum_distribution(SystemSpec(3, 2, 1))
    path = tmp_path / "table.csv"
    t.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "A,B,count"
    assert "0,0,3" in lines
