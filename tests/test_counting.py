import collections
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from dispersive_lab import cli, counting, kernels, weyl
from dispersive_lab.counting import (
    DEFAULT_SIEVE_LIMIT,
    BudgetExceededError,
    Int64OverflowError,
    SystemSpec,
    _dense_levels,
    _plan,
    check_divisor_property,
    count_S,
    divisor_count,
    max_offcurve_solution_count,
    mobius_phi_sieve,
    power_sum_distribution,
    ramanujan_block_ratio,
    ramanujan_sum,
    weighted_square_sum,
)


def brute_force_table(d, b, N):
    """Exhaustive oracle: enumerate all b-tuples and group them by signature (A, B)."""
    rng = np.arange(-N, N + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng] * b), indexing="ij")
    A = sum(g.astype(object) for g in grids).ravel()
    B = sum(g.astype(object) ** d for g in grids).ravel()
    return collections.Counter(zip(A.tolist(), B.tolist()))


def brute_force_S(d, b, N):
    """Exhaustive oracle: group signatures, sum squares."""
    return sum(v * v for v in brute_force_table(d, b, N).values())


def pair_enumeration_S(d, b, N):
    """Second oracle for tiny cases: check the 2b-variable system literally."""
    count = 0
    rng = range(-N, N + 1)
    for tup in itertools.product(rng, repeat=2 * b):
        n, m = tup[:b], tup[b:]
        if sum(n) == sum(m) and sum(v**d for v in n) == sum(v**d for v in m):
            count += 1
    return count


def entries(columns):
    """{(A, B): value} of a table's (A, B, value) columns."""
    A, B, V = (column.tolist() for column in columns)
    return dict(zip(zip(A, B), V))


def test_count_table_basics():
    A, B, V = power_sum_distribution(SystemSpec(3, 1, 1))
    assert (A.tolist(), B.tolist(), V.tolist()) == ([-1, 0, 1], [-1, 0, 1], [1, 1, 1])


def test_pair_table_entry():
    columns = power_sum_distribution(SystemSpec(3, 2, 1))
    assert entries(columns)[0, 0] == 3
    assert columns[2].sum() == 9


def test_total_mass_identity():
    for d, b, N in [(3, 2, 4), (5, 2, 3), (3, 3, 2), (7, 2, 2)]:
        assert power_sum_distribution(SystemSpec(d, b, N))[2].sum() == (2 * N + 1) ** b


@pytest.mark.parametrize("dbn, rows, digest, packed", [
    ((3, 3, 32), 42_839, "f05db9fc6f7e6b77f4bdd1bd2575c7e73a838ff3b95f6f3ae411caa6b5d95652", True),
    # a key span of about 2^53 over 2^20 pairs does not pack: np.lexsort
    ((7, 3, 64), 357_889, "0dede88140db14af6f5f8bcb571ec70103d1da5a4087758733f68f8bf43f7b31", False),
], ids=["d3-b3-N32-packed", "d7-b3-N64-lexsort"])
def test_large_sparse_tables_bytes_pinned(monkeypatch, dbn, rows, digest, packed):
    # the bytes of (A, B, count) that the stable lexsort reducer gave
    sorted_rows = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda cols: sorted_rows.append(len(cols[0]))
                        or lexsort(cols))
    A, B, value = power_sum_distribution(SystemSpec(*dbn))
    assert len(A) == rows
    assert hashlib.sha256(A.tobytes() + B.tobytes() + value.tobytes()).hexdigest() == digest
    assert (max(sorted_rows, default=0) < kernels._PACK_ROWS) == packed


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
    # (2, 8, 4): its top two grids take exactly ``fits`` bytes, and one byte
    # less plans sparse keys; both give the same columns, and their squares
    # add up to the count that streams the top level by A-row
    spec = SystemSpec(2, 8, 4)
    fits = (SystemSpec(2, 7, 4).cells + spec.cells) * 8
    assert (_plan(spec, fits), _plan(spec, fits - 1)) == ("dense", "sparse")
    assert _plan(spec, counting.DEFAULT_MEM_BUDGET, want="squares") == "streamed"
    dense = power_sum_distribution(spec, mem_budget=fits)
    sparse = power_sum_distribution(spec, mem_budget=fits - 1)
    for column, other in zip(dense, sparse):
        assert column.dtype == other.dtype and column.tobytes() == other.tobytes()
    assert count_S(spec) == sum(v * v for v in sparse[2].tolist())


def test_weighted_columns_drop_zero_sums_in_both_layouts():
    # weights 0 at n = -2 and n = 3 cancel some sums: the sparse keys drop them,
    # as the dense grid's nonzero cells do, so both layouts give the same columns
    spec = SystemSpec(2, 8, 4)
    fits = (SystemSpec(2, 7, 4).cells + spec.cells) * 16
    assert (_plan(spec, fits, weighted=True), _plan(spec, fits - 1, weighted=True)) == (
        "dense", "sparse")
    weights = np.ones(9)
    weights[[-2 + 4, 3 + 4]] = 0.0
    dense = power_sum_distribution(spec, weights, mem_budget=fits)
    sparse = power_sum_distribution(spec, weights, mem_budget=fits - 1)
    assert len(dense[0]) == 1575 and np.all(sparse[2] != 0)
    for column, other in zip(dense, sparse):
        assert column.dtype == other.dtype and column.tobytes() == other.tobytes()


def test_mirrored_dense_levels_match_tuple_oracle():
    # rows past the centre are mirror copies; every cell of every level, both parities
    for d in (2, 3, 4, 5):
        for b, N in ((3, 2), (2, 3), (4, 1)):
            for level, table in enumerate(_dense_levels(SystemSpec(d, b, N)), start=1):
                spec = SystemSpec(d, level, N)
                expected = np.zeros_like(table)
                for (A, B), c in brute_force_table(d, level, N).items():
                    expected[A + spec.a_extent, B + spec.b_extent] = c
                assert table.shape == expected.shape
                assert np.array_equal(table, expected), (d, level, N)


def test_streamed_even_d_counts_unchanged():
    # both specs stream their top level; even d mirrors rows without reversing columns
    for (d, b, N), pinned in (((2, 4, 24), 751_552_497), ((2, 6, 6), 14_042_157_751)):
        spec = SystemSpec(d, b, N)
        assert _plan(spec, counting.DEFAULT_MEM_BUDGET, want="squares") == "streamed"
        assert count_S(spec) == pinned
        # unit weights build every row: an unmirrored count, exact in float below 2^53
        assert round(weighted_square_sum(spec, np.ones(2 * N + 1))) == pinned


def test_sparse_refusal_counts_the_full_last_level():
    # odd d builds the sparse top level to the centre only, but budgets it in full
    spec = SystemSpec(5, 3, 8)
    lower = SystemSpec(5, 2, 8)
    assert _plan(lower, counting.DEFAULT_MEM_BUDGET) == "sparse"  # columns are its keys
    L = len(power_sum_distribution(lower)[0])
    fits = L * (2 * spec.N + 1) * 16
    assert count_S(spec, mem_budget=fits) == brute_force_S(5, 3, 8)
    assert power_sum_distribution(spec, mem_budget=fits)[2].sum() == 17**3
    for build in (count_S, power_sum_distribution):
        with pytest.raises(BudgetExceededError) as exc:
            build(spec, mem_budget=fits - 1)
        assert exc.value.suggested_n == 4


def recording_sum_by_key(monkeypatch):
    """Patch counting.sum_by_key to log the row count of every input; returns the log."""
    rows = []

    def recording(key_columns, vals):
        rows.append(len(vals))
        return kernels.sum_by_key(key_columns, vals)

    monkeypatch.setattr(counting, "sum_by_key", recording)
    return rows


def test_early_bound_refuses_before_expanding(monkeypatch):
    # (5, 3, 8): level 1 has 17 keys, so the 8 deltas nearest 0 give a union
    # of at most 136 keys; it has 104, level 2 has 145. 17 deltas of 16 bytes
    # each, so a budget of 272 k bytes lets a level expand at most k keys
    spec = SystemSpec(5, 3, 8)
    message = ("sparse signature expansion for SystemSpec(d=5, b=3, N=8) exceeds "
               "memory budget; try N <= 4")
    for limit, expanded in ((100, [17]), (120, [17, 289])):
        rows = recording_sum_by_key(monkeypatch)
        with pytest.raises(BudgetExceededError) as exc:
            count_S(spec, mem_budget=limit * 272)
        assert str(exc.value) == message and exc.value.suggested_n == 4
        # 104 > 100: refused before level 2 expands; 104 <= 120 < 145: level 2's
        # 289 pairs are summed, and the level-3 check refuses as it always did
        assert rows == expanded, limit
    assert count_S(spec, mem_budget=145 * 272) == brute_force_S(5, 3, 8)


def reference_levels(spec, weights, budget):
    """(keys, values) of levels 1, 2, ... by plain full expansion, up to level b or
    the first level too large to expand within ``budget`` bytes."""
    stride = 2 * spec.b_extent + 1
    deltas = np.array([n * stride + n**spec.d for n in range(-spec.N, spec.N + 1)],
                      dtype=np.int64)
    (keys,), vals = kernels.sum_by_key((deltas + spec.a_extent * stride + spec.b_extent,),
                                       weights)
    levels = [(keys, vals)]
    while len(levels) < spec.b and len(keys) * len(deltas) * (8 + vals.itemsize) <= budget:
        (keys,), vals = kernels.sum_by_key(((keys[None, :] + deltas[:, None]).ravel(),),
                                           (vals[None, :] * weights[:, None]).ravel())
        levels.append((keys, vals))
    return levels


SPARSE_BUILDERS = {name: getattr(counting, name) for name in ("_multiset_top", "_iterated_top")}


def recording_builders(monkeypatch):
    """Patch the two sparse builders to log which one ran, by name; returns the log."""
    ran = []
    for name, build in SPARSE_BUILDERS.items():
        def recording(*args, _name=name, _build=build):
            ran.append(_name)
            return _build(*args)
        monkeypatch.setattr(counting, name, recording)
    return ran


def test_sparse_refusals_match_exact_key_count_rule(monkeypatch):
    # a build refuses exactly when some level L-1 has more keys than a full
    # level-L expansion fits; the early bound may only refuse it one level
    # sooner, and a build that completes keeps every key and value byte,
    # whichever builder ran: the multiset one for unit weights whose bound
    # fits, the iterated one for the rest
    budgets = [2**e for e in range(16, 25)]
    rng = np.random.default_rng(18)
    kinds = collections.Counter()
    for d in (2, 3, 4, 5, 7):
        for b in range(1, 7):
            for N in (1, 2, 4, 8, 12):
                spec = SystemSpec(d, b, N)
                unit = np.ones(2 * N + 1, dtype=np.int64)
                weights = rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)
                weights[rng.random(2 * N + 1) < 0.3] = 0  # zero sums keep their keys
                for w, given in ((unit, None), (weights, weights)):
                    levels = reference_levels(spec, w, budgets[-1])
                    itemsize = 8 + w.itemsize
                    for budget in budgets:
                        # the first level L whose check fails: level L-1 has too many keys
                        fails = next((L for L in range(2, min(b, len(levels) + 1) + 1)
                                      if len(levels[L - 2][0]) * (2 * N + 1) * itemsize > budget),
                                     None)
                        rows = recording_sum_by_key(monkeypatch)
                        ran = recording_builders(monkeypatch)
                        if fails is None:
                            keys, vals = levels[-1]
                            # odd d: the unmirrored half ends at the centre, the zero tuple
                            half = (keys <= spec.a_extent * (2 * spec.b_extent + 1) + spec.b_extent
                                    if given is None and d % 2 and b > 1 else slice(None))
                            for mirror_top, part in ((True, slice(None)), (False, half)):
                                got_keys, got_vals = counting._build_sparse(
                                    spec, given, budget, mirror_top=mirror_top)
                                assert got_keys.tobytes() == keys[part].tobytes()
                                assert got_vals.dtype == vals.dtype
                                assert got_vals.tobytes() == vals[part].tobytes()
                            assert len(set(ran)) == 1
                            kinds[ran[0]] += 1
                            continue
                        with pytest.raises(BudgetExceededError) as exc:
                            counting._build_sparse(spec, given, budget)
                        assert ran == ["_iterated_top"]
                        assert exc.value.suggested_n == max(1, N // 2)
                        assert str(exc.value) == (f"sparse signature expansion for {spec} exceeds "
                                                  f"memory budget; try N <= {max(1, N // 2)}")
                        # levels 1 .. L-1 are summed before the check at L refuses
                        sooner = len(rows) == fails - 2
                        assert sooner or len(rows) == fails - 1, (spec, budget)
                        kinds["early" if sooner else "level check"] += 1
    assert min(kinds["_multiset_top"], kinds["_iterated_top"], kinds["early"],
               kinds["level check"]) >= 20, kinds
    # count_S on the multiset path against the tuple oracle
    for dbn in ((3, 3, 4), (5, 4, 3), (2, 4, 6), (4, 3, 3), (7, 2, 5)):
        ran = recording_builders(monkeypatch)
        assert count_S(SystemSpec(*dbn)) == brute_force_S(*dbn)
        assert ran == ["_multiset_top"], dbn


@pytest.mark.parametrize("dbn, build", [
    ((3, 4, 32), lambda: count_S(SystemSpec(3, 4, 32), mem_budget=2**28)),
    ((5, 6, 12), lambda: count_S(SystemSpec(5, 6, 12), mem_budget=2**28)),
    ((7, 3, 64), lambda: max_offcurve_solution_count(7, 64)),
], ids=["count_S-d3-b4-N32", "count_S-d5-b6-N12", "offcurve-d7-N64"])
def test_multiset_builds_stay_within_planned_bytes(monkeypatch, dbn, build):
    # the largest benchmark builds on the multiset path hold no more than the
    # planned C(2N+b-1, b-1) (2N+1) pairs of 16 bytes at their peak
    d, b, N = dbn
    planned = math.comb(2 * N + b - 1, b - 1) * (2 * N + 1) * 16
    ran = recording_builders(monkeypatch)
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ran == ["_multiset_top"]
    assert peak <= planned, (peak, planned)


def test_benchmark_refusals_stay_small(monkeypatch):
    # the counting benchmark's over-budget inputs at its 2^28-byte budget: the
    # early bound refuses before level 4 (2,978,625 pairs) is summed
    for dbn in ((5, 6, 32), (5, 8, 32)):
        rows = recording_sum_by_key(monkeypatch)
        with pytest.raises(BudgetExceededError) as exc:
            count_S(SystemSpec(*dbn), mem_budget=2**28)
        assert exc.value.suggested_n == 16
        assert max(rows) < 400_000, (dbn, max(rows))


def test_odd_d_sums_of_squares_past_int64_stay_exact():
    # 13^12 tuples: streamed by default, sparse at 4 MiB; both sum twice the
    # squares before the centre plus the centre's
    spec = SystemSpec(3, 12, 6)
    exact = sum(v * v for v in power_sum_distribution(spec)[2].tolist())
    assert exact > 2**63
    assert _plan(spec, counting.DEFAULT_MEM_BUDGET, want="squares") == "streamed"
    assert _plan(spec, 2**22, want="squares") == "sparse"
    assert count_S(spec) == count_S(spec, mem_budget=2**22) == exact


def test_symmetry_odd_d():
    for spec in (SystemSpec(3, 2, 4), SystemSpec(5, 3, 2)):
        table = entries(power_sum_distribution(spec))
        for (A, B), c in table.items():
            assert table[-A, -B] == c


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
    # the counting benchmark's inputs, at its 2^28-byte budget: the multiset
    # bound on the largest sparse level fits every computable input
    budget = 2**28
    small = [(5, b, N) for b in (2, 3) for N in (8, 16, 32, 45, 64)]
    mid = [(3, 4, 22), (3, 5, 16), (5, 6, 6), (5, 8, 6)]
    large = [(5, 6, 12), (3, 4, 32)]
    over_budget = [(5, 6, 32), (5, 8, 32)]
    for dbn in small + mid + large + over_budget:
        spec = SystemSpec(*dbn)
        assert _plan(spec, budget, want="squares") == _plan(spec, budget) == "sparse", dbn
    for dbn in over_budget:
        with pytest.raises(BudgetExceededError):
            count_S(SystemSpec(*dbn), mem_budget=budget)
    for dbn in ((5, 6, 6), (5, 6, 12)):  # the even_norm inputs
        assert _plan(SystemSpec(*dbn), budget, weighted=True) == "sparse", dbn
    # 18,564 multisets of 5 entries at most, in a 6.8M-cell grid
    assert _plan(SystemSpec(5, 6, 6), counting.DEFAULT_MEM_BUDGET, want="squares") == "sparse"


def test_layout_plan_sparse_bound_boundary():
    # (2, 4, 6): level 3 has at most C(15, 3) = 455 keys, so level 4 at most
    # 455 * 13 pairs of 16 bytes; one byte less and the grid rule decides
    spec = SystemSpec(2, 4, 6)
    pairs = math.comb(15, 3) * 13
    assert pairs <= spec.cells
    fits = pairs * 16
    assert _plan(spec, fits, want="squares") == _plan(spec, fits) == "sparse"
    assert _plan(spec, fits - 1, want="squares") == "streamed"
    assert _plan(spec, fits - 1) == "sparse"  # the top two grids need more than fits
    oracle = brute_force_S(2, 4, 6)
    assert count_S(spec, mem_budget=fits) == count_S(spec, mem_budget=fits - 1) == oracle
    counts = power_sum_distribution(spec, mem_budget=fits)[2]
    assert sum(v * v for v in counts.tolist()) == oracle


def test_multiset_bound_on_level_keys():
    # the bound _plan relies on: an L-tuple table has at most one key per
    # multiset of entries, and never more than its grid has cells
    for d in (2, 3, 5, 7):
        for L in range(1, 6):
            for N in range(1, 7):
                spec = SystemSpec(d, L, N)
                keys = {(sum(m), sum(v**d for v in m))
                        for m in itertools.combinations_with_replacement(range(-N, N + 1), L)}
                assert len(power_sum_distribution(spec)[0]) == len(keys)
                assert len(keys) <= min(math.comb(2 * N + L, L), spec.cells), (d, L, N)


def test_bound_planned_sparse_builds_never_refuse():
    # at the tightest budget the bound plans sparse, every build computes
    planned = 0
    for d in (2, 3, 5, 7):
        for b in range(2, 6):
            for N in (1, 3, 6):
                spec = SystemSpec(d, b, N)
                lower = SystemSpec(d, b - 1, N).cells
                pairs = min(math.comb(2 * N + b - 1, b - 1), lower) * (2 * N + 1)
                if pairs > spec.cells:  # the grid rule decides
                    continue
                planned += 1
                assert _plan(spec, pairs * 16, want="squares") == "sparse"
                squares = count_S(spec, mem_budget=pairs * 16)
                for weights, itemsize in ((None, 8), (np.ones(2 * N + 1), 16)):
                    budget = pairs * (8 + itemsize)
                    assert _plan(spec, budget, weighted=weights is not None) == "sparse"
                    values = power_sum_distribution(spec, weights, mem_budget=budget)[2]
                    assert values.sum() == (2 * N + 1) ** b
                    assert round(float(np.sum(np.abs(values) ** 2))) == squares
                    if weights is not None:
                        assert round(weighted_square_sum(spec, weights, budget)) == squares
    assert planned == 47


def test_packed_key_int64_guard():
    # (2bN+1)(2bN^d+1) first passes int64 at d=9, b=3, N=56
    A, B, V = power_sum_distribution(SystemSpec(9, 3, 55))
    assert V.sum() == 111**3
    assert (A.min(), A.max(), B.min(), B.max()) == (-165, 165, -3 * 55**9, 3 * 55**9)
    table = entries((A, B, V))
    assert table[165, 3 * 55**9] == table[-165, -3 * 55**9] == 1
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
    exact = sum(v * v for v in power_sum_distribution(spec)[2].tolist())
    assert exact > 2**63
    assert count_S(spec) == exact
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
    squares = sum(v * v for v in power_sum_distribution(spec)[2].tolist())
    assert squares == count_S(spec)
    assert weighted_square_sum(spec, ones) == pytest.approx(float(squares))


def test_enumerate_triples_odd_d_example():
    # the triples of signature (6, 276) at d = 5 are the six orders of (1, 2, 3)
    A, B, V = power_sum_distribution(SystemSpec(5, 3, 3))
    assert V[(A == 6) & (B == 276)].tolist() == [6]


def test_enumerate_triples_zero_family():
    # at d = 3 a zero sum gives n1^3 + n2^3 + n3^3 = 3 n1 n2 n3, so signature
    # (0, 0) holds only (0, 0, 0) and the family (k, -k, 0), 6 orders per k
    A, B, V = power_sum_distribution(SystemSpec(3, 3, 4))
    assert V[(A == 0) & (B == 0)].tolist() == [1 + 6 * 4]


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
    mu = mobius_phi_sieve()[0]
    assert mu[1:11].tolist() == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


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


def ramanujan_sum_direct(q: int, n: int) -> complex:
    """Direct exponential sum over residues coprime to q (cross-check oracle)."""
    total = 0j
    for a in range(1, q + 1):
        if math.gcd(a, q) == 1:
            total += np.exp(2j * np.pi * a * n / q)
    return total


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


def _ramanujan_gcd_oracle(q, n):
    """c_q(n) = mu(q/g) phi(q) / phi(q/g) with g = gcd(q, n): the Moebius quotient form.

    Independent of the library's divisor scatter: one np.gcd per (q, n) cell.
    """
    mu, phi, _ = mobius_phi_sieve()
    q = np.asarray(q, dtype=np.int64)
    qg = q // np.gcd(q, np.asarray(n, dtype=np.int64))
    return mu[qg] * (phi[q] // phi[qg])


def _assert_rows_match_oracle(Q, ks):
    q = np.arange(Q, 5 * Q + 1, dtype=np.int64)
    rows = max(1, weyl._BLOCK_CELLS // len(q))  # phi_hat_many's blocks
    for i in range(0, len(ks), rows):
        kb = ks[i:i + rows, None]
        assert np.array_equal(ramanujan_sum(q, kb), _ramanujan_gcd_oracle(q, kb)), (Q, i)


def test_ramanujan_sum_bit_identical_to_gcd_oracle():
    # the dense window k = 0..4Q (at least 0..5000, so that small Q fills
    # blocks of many rows, as phi_hat_dense does), negative k, and k past
    # (5Q)^2, where every divisor of k in range pairs with a co-divisor beyond
    # it; Q = 16384's window is 4.3e9 cells, so it is checked at its start
    # and at Q, 2Q, 4Q
    rng = np.random.default_rng(13)
    for Q in (4, 16, 64, 256, 1024, 16384):
        window = (np.arange(0, max(4 * Q, 5000) + 1) if Q <= 1024 else
                  np.concatenate([np.arange(m * Q - 24, m * Q + 24) for m in (0, 1, 2, 4)]))
        top = (5 * Q) ** 2
        ks = np.concatenate((window, -window[::7],
                             top + rng.integers(1, 10**7, 24), top * np.array([2, 6, 12]),
                             -top - rng.integers(1, 10**7, 8)))
        _assert_rows_match_oracle(Q, ks)


def test_ramanujan_sum_broadcasts_like_gcd_oracle():
    # moduli that are not a contiguous range, repeated and zero n, and the
    # broadcast shapes: one row per entry of n, gathered at its own q
    q = np.array([1, 7, 12, 30, 210, 997, 1000])
    n = np.array([0, 0, 5, -5, 12, 60, 210, 999, 10**6, 2 * 3 * 5 * 7 * 11 * 13 * 997])
    for qq, nn in ((q[:, None], n[None, :]), (q[None, :], n[:, None]), (q, n[3]),
                   (q[3], n), (np.array([[2, 3], [4, 6]]), np.array([[6], [0]])),
                   (q[:0], n[:, None]), (q[:, None], n[:0])):
        got = ramanujan_sum(qq, nn)
        assert got.shape == np.broadcast_shapes(np.shape(qq), np.shape(nn))
        assert np.array_equal(got, _ramanujan_gcd_oracle(qq, nn))


def _scan_candidates(monkeypatch, N):
    """Every k that phi_hat_max_scan evaluates at Q = N^2, k <= 2N^3."""
    seen = []
    many = weyl.PhiData.phi_hat_many
    with monkeypatch.context() as m:
        m.setattr(weyl.PhiData, "phi_hat_many",
                  lambda self, ks: seen.append(np.array(ks)) or many(self, ks))
        weyl.phi_hat_max_scan(weyl.build_phi(N * N), k_limit=2 * N**3)
    return seen[0]


def test_ramanujan_sum_bit_identical_on_scan_candidates(monkeypatch):
    # every k that phi_hat_max_scan evaluates at criterion 08's N = 16 and 23
    for N in (16, 23):
        _assert_rows_match_oracle(N * N, _scan_candidates(monkeypatch, N))


def test_divisors_of_scan_candidates_by_trial_division(monkeypatch):
    # the moment path of Phi_hat reads exactly these pairs: every divisor up
    # to 5Q of every scan candidate, each once
    for N in (16, 23):
        ks, top = _scan_candidates(monkeypatch, N), 5 * N * N
        i, d = counting._divisors(ks, top)
        trial = np.arange(1, top + 1)
        for row, k in enumerate(ks.tolist()):
            assert sorted(d[i == row].tolist()) == (trial[k % trial == 0]).tolist(), (N, k)


def test_phi_hat_many_bytes_match_gcd_oracle(monkeypatch):
    # table path (largest xi = |k|/Q^2 past XI_MOMENTS): the same evaluator
    # with c_q(k) from the gcd oracle gives the same bytes
    rng = np.random.default_rng(17)
    for Q in (64, 1024):
        p = weyl.build_phi(Q)
        ks = np.concatenate((np.arange(-5, 4 * Q + 1), rng.integers(-10**8, 10**8, 64)))
        assert np.abs(ks).max() > weyl.XI_MOMENTS * Q * Q
        got = p.phi_hat_many(ks).tobytes()
        with monkeypatch.context() as m:
            m.setattr(weyl, "ramanujan_sum", _ramanujan_gcd_oracle)
            assert p.phi_hat_many(ks).tobytes() == got, Q


def test_phi_hat_moments_match_gcd_oracle_through_the_rule():
    # moment path (every xi at most XI_MOMENTS), which reads no Ramanujan
    # sums: within 1e-14 of sum |terms| of the gcd-oracle sum over q of
    # c_q(k)/q^2 times the bump's trapezoid rule
    rng = np.random.default_rng(18)
    for Q in (64, 1024):
        p = weyl.build_phi(Q)
        ks = np.concatenate((np.arange(-5, 4 * Q + 1, Q // 64), rng.integers(-Q * Q, Q * Q, 64)))
        got = p.phi_hat_many(ks)
        q = np.arange(Q, 5 * Q + 1)
        for i in range(0, len(ks), 64):
            kb = ks[i:i + 64, None]
            terms = (_ramanujan_gcd_oracle(q, kb) / q.astype(float) ** 2
                     * p.bump.fourier_transform_quad(kb / q.astype(float) ** 2))
            err = np.abs(got[i:i + 64] - terms.sum(axis=1))
            assert np.all(err <= 1e-14 * np.abs(terms).sum(axis=1)), (Q, i)


def test_divisors_bounded():
    def listed(ks, top):
        i, d = counting._divisors(ks, top)
        return sorted(zip(i.tolist(), d.tolist()))

    def trial(ks, top):
        return sorted((i, v) for i, k in enumerate(ks)
                      for v in range(1, top + 1) if k and k % v == 0)

    assert listed([36], 36) == [(0, v) for v in (1, 2, 3, 4, 6, 9, 12, 18, 36)]
    assert listed([36], 10) == [(0, v) for v in (1, 2, 3, 4, 6, 9)]
    assert listed([36], 5) == [(0, v) for v in (1, 2, 3, 4)]
    assert listed([7], 0) == listed([0], 9) == listed([], 9) == []
    # range(5000) against top 60 walks the grid in five row blocks
    for ks, top in (([0, 1, 2, 12, 49, 360, 997], 20), (list(range(60)), 60), ([1234567], 1000),
                    (list(range(5000)), 60)):
        assert listed(ks, top) == trial(ks, top), (ks, top)
    big = 2**20 * 3**15  # the mask stops at top, not at isqrt(big) ~ 4e6
    assert listed([big], 100) == [(0, v) for v in range(1, 101) if big % v == 0]


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


def test_block_ratio_needs_q_at_least_two():
    # below Q = 2 no divisor q < Q exists to divide by: a typed error, not ZeroDivisionError
    for Q in (1, 0, -3):
        with pytest.raises(ValueError, match="Q >= 2"):
            ramanujan_block_ratio(Q, 6)
    # Q = 2: (|c_2(6)| + |c_3(6)|) / (d(6, 2) 2^{1+eps}) = (1 + 2) / 2^{1+eps}
    assert ramanujan_block_ratio(2, 6) == 3 / 2 ** (1.0 + counting.BLOCK_RATIO_EPS)


def test_table_csv_export(tmp_path):
    # dlab count table=1 writes the (A, B, count) columns in (A, B) order
    args = ["count", "--out", str(tmp_path)]
    for param in ("d=3", "b=2", "N=1", "table=1"):
        args += ["--param", param]
    assert cli.main(args) == 0
    text = (tmp_path / "table_d3_b2_N1.csv").read_text()
    assert text == "A,B,count\n-2,-2,1\n-1,-1,2\n0,0,3\n1,1,2\n2,2,1\n"
