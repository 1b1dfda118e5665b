"""The verdict rule of ``benchmarks/pair_runs.py`` (choosing-metrics §8)."""

from benchmarks.pair_runs import verdict

PARENT = [2.00, 2.05, 1.95, 2.10, 2.02, 1.98, 2.04, 2.01, 1.99, 2.03]


def word(change, parent=PARENT, better="lower", bound=0.25):
    return verdict(parent, change, better, bound)[2]


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_wider_than_the_parents_quartiles():
    assert word([p * 0.8 for p in PARENT]) == "gain"
    assert word([p * 0.8 for p in PARENT[:5]], PARENT[:5]) == "better"  # too few pairs
    assert word([p * 0.995 for p in PARENT]) == "within bound"  # wins, but inside the IQR
    eight_wins = [p * 0.8 for p in PARENT[:8]] + [p * 1.01 for p in PARENT[8:]]
    assert word(eight_wins) == "within bound"


def test_ties_count_for_neither_side_and_exact_metrics_read_identical():
    wins, ties, result = verdict([26.286] * 10, [26.286] * 10, "lower", 0.1)
    assert (wins, ties, result) == (0, 10, "identical")


def test_worse_than_the_bound_is_a_regression_unless_the_parent_is_that_noisy():
    assert word([p * 1.4 for p in PARENT]) == "REGRESSION"
    noisy = [1.0, 3.0, 1.2, 2.8, 1.1, 2.9, 1.3, 2.7, 1.0, 3.0]
    assert word([p * 1.4 for p in noisy], noisy) == "unresolved"
    # Every run beats every parent run: resolved, though the gap is inside the IQR.
    assert word([0.5] * 10, noisy) == "within bound"
    assert word([2.9], [2.0]) == "unresolved"  # one pair has no spread to judge by


def test_higher_is_better_flips_the_comparison():
    rates = [100.0 + i for i in range(10)]
    assert word([r * 1.5 for r in rates], rates, better="higher") == "gain"
    assert word([r * 0.5 for r in rates], rates, better="higher") == "REGRESSION"
