import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdeoh import dsl, problems
from cdeoh.problems import (
    BenchmarkSuite,
    CandidateFailure,
    ObpInstance,
    TspInstance,
    construct_tour,
    evaluate_candidate,
    gen_obp,
    gen_tsp,
    make_obp_suite,
    make_tsp_suite,
    nearest_neighbor_tour,
    obp_lower_bound,
    pack_online,
    simulate_obp,
    simulate_tsp,
    tour_length,
    tsp_reference,
    two_opt,
)

from oracles import (
    exhaustive_bin_packing,
    held_karp_cycle,
    names_read,
    nearest_neighbor_cycle_length,
    reference_construct_tour,
    reference_pack_online,
    reference_two_opt,
    simple_best_fit,
    simple_first_fit,
)


def compile_obp(src):
    return dsl.parse(src, problems.OBP_INPUTS)


def compile_tsp(src):
    return dsl.parse(src, problems.TSP_INPUTS)


BEST_FIT = compile_obp(problems.BEST_FIT_PROGRAM)
FIRST_FIT = compile_obp(problems.FIRST_FIT_PROGRAM)
ALL_NAN = compile_obp("return log(0 - cap_remaining)")
NN_PROG = compile_tsp(problems.NEAREST_NEIGHBOR_PROGRAM)


# ---------------------------------------------------------------- generation

def test_gen_obp_range_and_count():
    inst = gen_obp(seed=1, n_items=1000, capacity=100, shape=3.0, scale=45.0)
    assert len(inst.items) == 1000
    assert all(1 <= x <= 100 for x in inst.items)


def test_gen_obp_deterministic():
    a = gen_obp(seed=3, n_items=500, capacity=100)
    b = gen_obp(seed=3, n_items=500, capacity=100)
    assert a == b


def test_gen_obp_large_setting():
    inst = gen_obp(seed=2, n_items=10000, capacity=500)
    assert len(inst.items) == 10000
    assert all(1 <= x <= 500 for x in inst.items)


def test_gen_obp_huge_scale_clips_to_capacity_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inst = gen_obp(seed=1, n_items=1000, capacity=100, shape=3.0, scale=1e308)
    assert inst.items == (100,) * 1000


def test_gen_obp_invalid_params():
    with pytest.raises(ValueError):
        gen_obp(1, 100, 100, shape=0.0)
    with pytest.raises(ValueError):
        gen_obp(1, 100, 100, scale=-1.0)
    with pytest.raises(ValueError):
        gen_obp(1, 0, 100)


def test_gen_tsp_uniform():
    inst = gen_tsp(seed=7, n_cities=50, mode="uniform")
    assert inst.coords.shape == (50, 2)
    assert np.all((inst.coords >= 0) & (inst.coords <= 1))


def test_gen_tsp_deterministic():
    a = gen_tsp(seed=7, n_cities=20)
    b = gen_tsp(seed=7, n_cities=20)
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.dist, b.dist)


def test_gen_tsp_gaussian_mixture_in_unit_square():
    inst = gen_tsp(seed=7, n_cities=200, mode="gaussian-mixture")
    assert inst.coords.shape == (200, 2)
    assert np.all((inst.coords >= 0) & (inst.coords <= 1))


def test_gen_tsp_invalid():
    with pytest.raises(ValueError):
        gen_tsp(1, 2)
    with pytest.raises(ValueError):
        gen_tsp(1, 10, mode="spiral")


# ---------------------------------------------------------------- lower bound

def test_lower_bound_full_bins():
    inst = ObpInstance(capacity=100, items=(100, 100, 100))
    assert obp_lower_bound(inst) == 3


def test_lower_bound_spec_instance_vs_exact():
    items = (60, 60, 60, 40, 40, 40)
    inst = ObpInstance(capacity=100, items=items)
    lb = obp_lower_bound(inst)
    opt = exhaustive_bin_packing(items, 100)
    assert opt == 3
    assert lb <= opt
    assert lb == 3  # frozen: the bound is tight here


def test_lower_bound_never_exceeds_optimum_small_random():
    rng = random.Random(20260810)
    for _ in range(30):
        cap = rng.choice((10, 17, 50, 100))
        n = rng.randint(1, 10)
        items = tuple(rng.randint(1, cap) for _ in range(n))
        inst = ObpInstance(capacity=cap, items=items)
        lb = obp_lower_bound(inst)
        opt = exhaustive_bin_packing(items, cap)
        assert lb <= opt
        assert lb >= math.ceil(sum(items) / cap)


@given(
    cap=st.integers(5, 200),
    items=st.lists(st.integers(1, 200), min_size=1, max_size=60),
)
@settings(max_examples=200, deadline=None)
def test_lower_bound_at_least_volume_bound(cap, items):
    items = tuple(min(x, cap) for x in items)
    inst = ObpInstance(capacity=cap, items=items)
    assert obp_lower_bound(inst) >= math.ceil(sum(items) / cap)


# ---------------------------------------------------------------- OBP simulation

def test_simulate_best_fit_spec_example():
    inst = ObpInstance(capacity=10, items=(3, 7, 5, 5))
    report = simulate_obp(inst, BEST_FIT)
    assert report.raw_metric == 2
    assert len(pack_online(inst, BEST_FIT)) == simple_best_fit(inst.items, 10)


def test_simulate_first_fit_trivial():
    inst = ObpInstance(capacity=100, items=(100, 100))
    report = simulate_obp(inst, FIRST_FIT)
    assert report.raw_metric == 2
    assert report.reference == 2
    assert report.gap_percent == 0.0
    assert report.fitness == 0.0


def test_simulate_all_nan_opens_bin_per_item():
    inst = ObpInstance(capacity=10, items=(3, 7, 5, 5))
    report = simulate_obp(inst, ALL_NAN)
    assert report.raw_metric == len(inst.items)


def test_simulate_wrong_shape_result():
    scalar_prog = compile_obp("return item")
    inst = ObpInstance(capacity=10, items=(3, 3))
    with pytest.raises(CandidateFailure, match="scalar"):
        simulate_obp(inst, scalar_prog)


def test_simulate_eval_error_becomes_candidate_failure():
    # A program parsed against a wider signature than the simulator supplies
    # fails with a missing-input EvalError, surfaced as CandidateFailure.
    prog = dsl.parse(
        "return cap_remaining + noise",
        {**problems.OBP_INPUTS, "noise": "vector"},
    )
    inst = ObpInstance(capacity=10, items=(3, 3))
    with pytest.raises(CandidateFailure, match="missing input"):
        pack_online(inst, prog)


def test_pack_never_overfills_and_respects_lower_bound():
    rng = random.Random(11)
    progs = [BEST_FIT, FIRST_FIT, ALL_NAN, compile_obp("return cap_remaining - item")]
    for _ in range(25):
        cap = rng.choice((10, 50, 100))
        items = tuple(rng.randint(1, cap) for _ in range(rng.randint(1, 80)))
        inst = ObpInstance(capacity=cap, items=items)
        lb = obp_lower_bound(inst)
        for prog in progs:
            loads = pack_online(inst, prog)
            assert all(0 < load <= cap for load in loads)
            assert sum(loads) == sum(items)
            assert len(loads) >= lb


def test_baselines_match_naive_oracles():
    rng = random.Random(5)
    for _ in range(20):
        cap = rng.choice((10, 100))
        items = [rng.randint(1, cap) for _ in range(rng.randint(1, 120))]
        inst = ObpInstance(capacity=cap, items=tuple(items))
        assert len(pack_online(inst, FIRST_FIT)) == simple_first_fit(items, cap)
        assert len(pack_online(inst, BEST_FIT)) == simple_best_fit(items, cap)


# Golden numbers recorded from the Weibull(3.0, 45.0) suite, seeds 1-5,
# n=1000, capacity=100.
FF_BF_GOLDEN = {
    1: (408, 431, 427),
    2: (400, 423, 422),
    3: (411, 432, 433),
    4: (412, 434, 432),
    5: (400, 420, 418),
}


def test_first_fit_vs_best_fit_goldens_and_dominance():
    ff_gaps, bf_gaps = [], []
    for seed, (lb_gold, ff_gold, bf_gold) in FF_BF_GOLDEN.items():
        inst = gen_obp(seed, 1000, 100)
        lb = obp_lower_bound(inst)
        ff = len(pack_online(inst, FIRST_FIT))
        bf = len(pack_online(inst, BEST_FIT))
        assert (lb, ff, bf) == (lb_gold, ff_gold, bf_gold)
        ff_gaps.append(100 * (ff - lb) / lb)
        bf_gaps.append(100 * (bf - lb) / lb)
    assert np.mean(bf_gaps) <= np.mean(ff_gaps)


# ---------------------------------------------------------------- TSP simulation

def equilateral_triangle():
    return TspInstance(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]))


def test_tsp_triangle_zero_gap():
    report = simulate_tsp(equilateral_triangle(), NN_PROG)
    assert report.raw_metric == pytest.approx(3.0, abs=1e-12)
    assert report.gap_percent == pytest.approx(0.0, abs=1e-9)


def test_tsp_tours_are_permutations():
    progs = [
        NN_PROG,
        compile_tsp("return 0 - dist_to_start"),
        compile_tsp("return 0 - dist_to_current - mean_dist_remaining"),
        compile_tsp("return log(0 - dist_to_current)"),  # all NaN
    ]
    for seed in (1, 2, 3):
        inst = gen_tsp(seed, 25)
        for prog in progs:
            tour = construct_tour(inst, prog)
            assert sorted(tour) == list(range(25))
            assert tour[0] == 0


def test_tsp_nn_matches_oracle_and_held_karp_bound():
    for seed in (7, 8, 9):
        inst = gen_tsp(seed, 10)
        tour = construct_tour(inst, NN_PROG)
        ln = tour_length(inst, tour)
        assert ln == pytest.approx(nearest_neighbor_cycle_length(inst.dist.tolist()), abs=1e-9)
        assert ln >= held_karp_cycle(inst.dist.tolist()) - 1e-9


def test_tsp_reference_bounds_and_determinism():
    for seed in (7, 11):
        inst = gen_tsp(seed, 10)
        ref = tsp_reference(inst)
        nn_len = tour_length(inst, nearest_neighbor_tour(inst))
        hk = held_karp_cycle(inst.dist.tolist())
        assert hk - 1e-9 <= ref <= nn_len + 1e-9
        assert tsp_reference(inst) == ref
        fresh = gen_tsp(seed, 10)
        assert tsp_reference(fresh) == ref


def test_tsp_reference_cannot_be_passed_in():
    inst = gen_tsp(3, 8)
    with pytest.raises(TypeError):
        TspInstance(inst.coords, 1.0)
    with pytest.raises(TypeError):
        TspInstance(coords=inst.coords, _reference=1.0)
    fresh = TspInstance(inst.coords)
    assert tsp_reference(fresh) == tsp_reference(inst) != 1.0


def test_tsp_instance_derives_dist_from_coords():
    inst = gen_tsp(5, 12)
    delta = inst.coords[:, None, :] - inst.coords[None, :, :]
    assert inst.dist.tobytes() == np.sqrt((delta ** 2).sum(axis=-1)).tobytes()
    with pytest.raises(TypeError):
        TspInstance(inst.coords, inst.dist)
    with pytest.raises(ValueError, match=r"list of \[x, y\] pairs"):
        TspInstance(np.zeros((5, 3)))
    with pytest.raises(ValueError, match="at least 3 cities"):
        TspInstance(np.zeros((2, 2)))


@pytest.mark.filterwarnings("error")  # no numpy overflow warning either
@pytest.mark.parametrize("coords, message", [
    ([[0.5, 0.5]] * 3, "all cities coincide"),
    ([[0.25, 1e-320], [0.25, 0.0], [0.25, 1e-320]], "all cities coincide"),  # distances underflow
    ([[1e200, 0.0], [-1e200, 0.0], [0.0, 1e200]], "distances must be finite"),
    ([[1e154, 0.0], [-1e154, 0.0], [0.0, 1e154]], "distances must be finite"),  # their sum overflows
    ([[np.inf, 0.0], [0.0, 0.0], [0.0, 1.0]], "distances must be finite"),
])
def test_tsp_instance_rejects_cities_without_a_finite_nonzero_tour(coords, message):
    with pytest.raises(ValueError, match=message):
        TspInstance(coords)


def test_two_opt_never_worsens():
    for seed, mode in ((1, "uniform"), (2, "uniform"), (1, "gaussian-mixture")):
        inst = gen_tsp(seed, 40, mode)
        nn = nearest_neighbor_tour(inst)
        improved = two_opt(inst, nn)
        assert sorted(improved) == list(range(40))
        assert tour_length(inst, improved) <= tour_length(inst, nn) + 1e-9
        # a full scan of every move (i, j), 1 <= i < j: none gains more than the threshold
        d, t, n = inst.dist, improved, len(improved)
        eps = 1e-10 * min(1.0, float(d.max()))
        for i in range(1, n - 1):
            for j in range(i + 1, n):
                p, y, x, q = t[i - 1], t[i], t[j], t[(j + 1) % n]
                assert ((d[p, x] + d[y, q]) - d[p, y]) - d[x, q] >= -eps


@given(n=st.integers(4, 250), seed=st.integers(0, 10**6),
       mode=st.sampled_from(["uniform", "gaussian-mixture"]))
@example(n=500, seed=1, mode="uniform")
@example(n=600, seed=2, mode="gaussian-mixture")
@settings(max_examples=120, deadline=None)
def test_two_opt_matches_full_recomputation_oracle(n, seed, mode):
    inst = gen_tsp(seed, n, mode)
    nn = nearest_neighbor_tour(inst)
    assert two_opt(inst, nn) == reference_two_opt(inst, nn)


def test_two_opt_tour_does_not_depend_on_coordinate_units():
    # With an absolute threshold, at 1e-12 no move was taken and the
    # reference was the nearest-neighbour tour.
    coords = np.random.default_rng(0).random((60, 2))
    tours = {}
    for scale in (1.0, 1e6, 1e-9, 1e-12):
        inst = TspInstance(coords * scale)
        tours[scale] = two_opt(inst, nearest_neighbor_tour(inst))
        assert tsp_reference(inst) / scale == pytest.approx(6.2467, abs=1e-4)
    assert tours[1e6] == tours[1e-9] == tours[1e-12] == tours[1.0]
    assert tours[1.0] != nearest_neighbor_tour(TspInstance(coords))


def test_tsp_wrong_shape():
    inst = gen_tsp(1, 10)
    with pytest.raises(CandidateFailure):
        simulate_tsp(inst, compile_tsp("return visited_fraction"))


TOUR_NAN_PROGRAMS = (
    "let d = dist_to_current; return where((d == maxval(d)), log(0 - d), d)",
    "let d = dist_to_current; return where((d > minval(d)), log(0 - d), 0 - d)",
    "return dist_to_current * (0 / 0)",
    "let z = visited_fraction / (visited_fraction - visited_fraction); return dist_to_current * z",
)

# Programs for the differential property: nearest neighbour, users of
# mean_dist_remaining, where/threshold rules, constant priorities (all
# ties), partly and wholly NaN priorities (NaN at the first max, after the
# max, everywhere, and a folded 0 / 0), a scalar division by zero,
# quasi-random picks and a scalar result (a CandidateFailure at the first
# step).
TOUR_PROGRAMS = (
    problems.NEAREST_NEIGHBOR_PROGRAM,
    "return dist_to_current",
    "return 0 - dist_to_current - mean_dist_remaining",
    "return mean_dist_remaining * visited_fraction - dist_to_current",
    "return mean_dist_remaining - maxval(mean_dist_remaining) - dist_to_start",
    "return where((dist_to_current < mean_dist_remaining), 0 - dist_to_current, "
    "0 - 2 * dist_to_current)",
    "return where((visited_fraction > 0.5), 0 - dist_to_start, 0 - dist_to_current)",
    "return 0 * dist_to_current",
    "return dist_to_current * 0 + 1",
    "return log(dist_to_current - mean_dist_remaining)",
    "return log(0 - dist_to_current)",
    "return dist_to_current * 1000 - floor(dist_to_current * 1000)",
    *TOUR_NAN_PROGRAMS,
    "return visited_fraction",
)


def _outcome(build, instance, program):
    try:
        return build(instance, program)
    except CandidateFailure as e:
        return f"CandidateFailure: {e}"


def _recorded_bound(build, instance, program):
    """Run a simulator with `problems.bind` and `problems.bind_one` wrapped so
    that the env of every call of the bound vector function and of the
    length-one form is recorded, a scalar as a 0-d array; return (result or
    CandidateFailure text, env per step)."""
    steps = []
    real_bind, real_one = problems.bind, problems.bind_one

    def recorded(function):
        def run(env):
            steps.append({k: np.array(v, copy=True) for k, v in env.items()})
            return function(env)
        return run

    def recording(prog, signature, length):
        bound = real_bind(prog, signature, length)
        return bound._replace(run=recorded(bound.run))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems, "bind", recording)
        mp.setattr(problems, "bind_one", lambda prog, signature: recorded(real_one(prog, signature)))
        outcome = _outcome(build, instance, program)
    return outcome, steps


def _recorded_evaluate(build, instance, program):
    """Run an oracle with `oracles.evaluate` wrapped so that every step's
    inputs are recorded; return (result or CandidateFailure text, inputs per
    step)."""
    import oracles
    steps = []
    real = oracles.evaluate

    def recording(prog, inputs):
        steps.append({k: np.array(v, copy=True) for k, v in inputs.items()})
        return real(prog, inputs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "evaluate", recording)
        outcome = _outcome(build, instance, program)
    return outcome, steps


def assert_matches_reference(build, reference, instance, program):
    """The same result or CandidateFailure text as the oracle, and at every
    step the same bytes and dtype of every input the program reads; no
    input it does not read is built."""
    got, got_steps = _recorded_bound(build, instance, program)
    want, want_steps = _recorded_evaluate(reference, instance, program)
    assert got == want
    if isinstance(want, str):
        # The oracle records the evaluate call that fails; the simulator
        # fails in `bind` and never runs the closure for that step.
        want_steps = want_steps[:-1]
    assert len(got_steps) == len(want_steps)
    reads = names_read(program)
    for g, w in zip(got_steps, want_steps):
        assert g.keys() == reads
        for name in reads:
            assert g[name].dtype == w[name].dtype
            assert g[name].tobytes() == w[name].tobytes(), name
    return got, got_steps


def assert_matches_reference_tour(instance, program):
    return assert_matches_reference(construct_tour, reference_construct_tour, instance, program)


@given(
    n=st.integers(3, 60),
    mode=st.sampled_from(["uniform", "gaussian-mixture"]),
    seed=st.integers(0, 10_000),
    src=st.sampled_from(TOUR_PROGRAMS),
)
@settings(max_examples=150, deadline=None)
def test_construct_tour_matches_reference(n, mode, seed, src):
    assert_matches_reference_tour(gen_tsp(seed, n, mode), compile_tsp(src))


@pytest.mark.parametrize("n", [100, 200])
def test_construct_tour_matches_reference_on_large_instances(n):
    prog = compile_tsp("return dist_to_current * 1000 - floor(dist_to_current * 1000)")
    tour, _ = assert_matches_reference_tour(gen_tsp(n, n), prog)
    assert sorted(tour) == list(range(n))


@pytest.mark.parametrize("src", ["return 0 - dist_to_current", "return dist_to_current"])
def test_construct_tour_tail_of_two_one_zero_cities(src):
    # n = 3: the last two steps see 2 and then 1 unvisited city; the loop
    # ends with 0 left.
    inst = gen_tsp(5, 3)
    tour, steps = assert_matches_reference_tour(inst, compile_tsp(src))
    assert [s["dist_to_current"].size for s in steps] == [2, 1]
    assert tour[0] == 0 and sorted(tour) == [0, 1, 2]


def test_construct_tour_tail_inputs_of_two_and_one_cities():
    # With two cities left, each mean is their distance; with one left it is 0.
    inst = gen_tsp(5, 3)
    src = "return mean_dist_remaining * visited_fraction - dist_to_current"
    assert src in TOUR_PROGRAMS
    _, steps = assert_matches_reference_tour(inst, compile_tsp(src))
    assert [s["mean_dist_remaining"].size for s in steps] == [2, 1]
    assert steps[0]["mean_dist_remaining"].tolist() == [inst.dist[1, 2]] * 2
    assert steps[1]["mean_dist_remaining"].tolist() == [0.0]
    assert steps[1]["visited_fraction"] == 2 / 3


def test_construct_tour_all_ties_keeps_city_order():
    inst = gen_tsp(1, 12)
    assert construct_tour(inst, compile_tsp("return 0 * dist_to_current")) == list(range(12))
    assert construct_tour(inst, compile_tsp("return log(0 - dist_to_current)")) == list(range(12))


PACK_NAN_PROGRAMS = (
    "return where((cap_remaining == maxval(cap_remaining)), log(0 - item), cap_remaining)",
    "return where((bin_index > 1), log(0 - item), cap_remaining)",
    "return cap_remaining * (0 / 0)",
    "let z = item / (item - item); return cap_remaining * z",
)

# Programs for the OBP differential property: best, first and worst fit,
# all ties and partial ties, partly NaN (at the first max and after the
# max), all NaN (also by a folded 0 / 0), partly and wholly -inf, a scalar
# division by zero, quasi-random picks, readers and non-readers of
# bin_index (one reads it only in an unused binding), a scalar result (a
# CandidateFailure at the first call) and, in PACK_REDUCTION_PROGRAMS, each
# reduction at a step with one feasible bin.
PACK_REDUCTION_PROGRAMS = (
    # An exact fit sums [-0.0] to +0.0: priority +inf, and the item is placed.
    "return cap_remaining / sum(-(cap_remaining - item))",
    "return cap_remaining / mean(-(cap_remaining - item))",
    # An exact fit gives log(0) = -inf at one bin: the item opens a bin.
    "return log(minval(cap_remaining) - item) - bin_index",
    # An exact fit gives 0 / 0 = NaN at one bin: the item opens a bin.
    "return 0 - maxval(cap_remaining - item) / (cap_remaining - item)",
    "return log(len(cap_remaining) - 1) - bin_index",
)
PACK_PROGRAMS = (
    problems.BEST_FIT_PROGRAM,
    problems.FIRST_FIT_PROGRAM,
    "return cap_remaining - item",
    "return 0 * cap_remaining",
    "return floor(cap_remaining / 10)",
    "return where((cap_remaining - item < 10), 0 - cap_remaining, log(0 - item))",
    "return where((bin_index > 2), log(0 - bin_index), bin_index)",
    "return log(0 - cap_remaining)",
    "let s = cap_remaining - item; return where((s == 0), 0 - 1e400, 0 - s)",
    "return 0 * bin_index - 1e400",
    "return bin_index * 7919 - floor(bin_index * 7919 / 13) * 13",
    "let unused = bin_index; return 0 - cap_remaining",
    *PACK_NAN_PROGRAMS,
    *PACK_REDUCTION_PROGRAMS,
    "return item",
)


@given(
    cap=st.integers(2, 120),
    items=st.lists(st.integers(1, 120), min_size=1, max_size=80),
    src=st.sampled_from(PACK_PROGRAMS),
)
@settings(max_examples=150, deadline=None)
def test_pack_online_matches_reference(cap, items, src):
    inst = ObpInstance(capacity=cap, items=tuple(min(x, cap) for x in items))
    assert_matches_reference(pack_online, reference_pack_online, inst, compile_obp(src))


@pytest.mark.parametrize("src", PACK_PROGRAMS)
def test_pack_online_one_bin_steps_match_reference(src):
    # The second and fourth items fit the one open bin exactly.
    inst = ObpInstance(capacity=10, items=(6, 4, 3, 7, 5, 2, 9))
    _, steps = assert_matches_reference(pack_online, reference_pack_online, inst, compile_obp(src))
    assert src == "return item" or all(x.shape == () for x in steps[0].values())


@pytest.mark.parametrize("task, src", [("obp", src) for src in PACK_NAN_PROGRAMS]
                         + [("tsp", src) for src in TOUR_NAN_PROGRAMS])
def test_nan_and_division_by_zero_priorities_match_the_oracle(task, src):
    build, reference, _ = _SIMULATORS[task]
    if task == "obp":
        instance, program = gen_obp(3, 300, 100), compile_obp(src)
    else:
        instance, program = gen_tsp(3, 40), compile_tsp(src)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, _ = assert_matches_reference(build, reference, instance, program)
    assert not caught, [str(w.message) for w in caught]
    assert not isinstance(got, str), got


# The same program with neutral binding names and with names that Python
# rejects or merges, or that the generated code uses itself.
_NAMED_SIMULATOR_PROGRAMS = {
    "obp": "let {0} = cap_remaining - item; let {1} = 0.5; let {2} = 2; let {3} = {1} * {2};"
           " let {4} = where(({0} < {2}), {3} - {0}, 0 - {0}); return {4} - bin_index / {2}",
    "tsp": "let {0} = dist_to_current; let {1} = 0.5; let {2} = 2; let {3} = {1} * {2};"
           " let {4} = 0 - {0} - {3} * visited_fraction * dist_to_start;"
           " return {4} + {1} * mean_dist_remaining / {2}",
}


@pytest.mark.parametrize("task", ["obp", "tsp"])
def test_simulators_keep_program_names_apart(task):
    build, reference, _ = _SIMULATORS[task]
    instance = gen_obp(4, 200, 100) if task == "obp" else gen_tsp(4, 30)
    src = _NAMED_SIMULATOR_PROGRAMS[task]
    compile_ = compile_obp if task == "obp" else compile_tsp
    neutral = compile_(src.format("a", "b", "c", "d", "e"))
    hostile = compile_(src.format("True", "ﬁ", "fi", "lambda", "t0"))
    want = build(instance, neutral)
    assert build(instance, hostile) == want
    assert assert_matches_reference(build, reference, instance, hostile)[0] == want


def test_pack_online_calls_no_program_without_a_feasible_bin():
    prog = compile_obp("return item")  # a scalar: fails at its first call
    for items in ((3,), (6, 6)):
        inst = ObpInstance(capacity=10, items=items)
        assert pack_online(inst, prog) == reference_pack_online(inst, prog) == list(items)


def test_pack_online_calls_the_length_one_form_at_one_feasible_bin(monkeypatch):
    build, _, instance = _SIMULATORS["obp"]
    calls = []
    real_bind, real_one = problems.bind, problems.bind_one

    def counted(function, form):
        def run(env):
            calls.append((form, env["cap_remaining"].shape))
            return function(env)
        return run

    def bind(*args):
        bound = real_bind(*args)
        return bound._replace(run=counted(bound.run, "vector"))

    monkeypatch.setattr(problems, "bind", bind)
    monkeypatch.setattr(problems, "bind_one", lambda *args: counted(real_one(*args), "length-one"))
    assert build(instance, BEST_FIT) == [8, 6, 6]
    assert calls == [("length-one", ()), ("vector", (3,))]


def _sum_of_scalar(signature, scalar):
    """`return sum(<scalar>)` built without parse, which would reject it."""
    return dsl.Program(source=f"return sum({scalar})", bindings=(),
                       result=dsl.Reduce("sum", dsl.Name(scalar)), arity=tuple(signature.items()))


_SIMULATORS = {
    # Under best fit the second item has one feasible bin, the third and
    # fourth none, and the fifth three.
    "obp": (pack_online, reference_pack_online, ObpInstance(capacity=10, items=(6, 1, 6, 6, 1))),
    "tsp": (construct_tour, reference_construct_tour, gen_tsp(1, 6)),
}


@pytest.mark.parametrize("task, program, limits, message", [
    pytest.param("obp", compile_obp("return item"), {}, "over the feasible bins, got a scalar",
                 id="obp-scalar-result"),
    pytest.param("tsp", compile_tsp("return visited_fraction"), {},
                 "over the unvisited cities, got a scalar", id="tsp-scalar-result"),
    pytest.param("obp", NN_PROG, {}, "unexpected input 'item'", id="obp-tsp-program"),
    pytest.param("tsp", BEST_FIT, {}, "unexpected input 'dist_to_current'", id="tsp-obp-program"),
    pytest.param("obp", dsl.parse("return cap_remaining + noise",
                                  {**problems.OBP_INPUTS, "noise": "vector"}),
                 {}, "missing input 'noise'", id="obp-missing-input"),
    pytest.param("tsp", dsl.parse("return dist_to_current + noise",
                                  {**problems.TSP_INPUTS, "noise": "vector"}),
                 {}, "missing input 'noise'", id="tsp-missing-input"),
    pytest.param("obp", _sum_of_scalar(problems.OBP_INPUTS, "item"), {},
                 "sum() expects a vector argument, got a scalar", id="obp-unparsed"),
    pytest.param("tsp", _sum_of_scalar(problems.TSP_INPUTS, "visited_fraction"), {},
                 "sum() expects a vector argument, got a scalar", id="tsp-unparsed"),
    pytest.param("obp", BEST_FIT, {"MAX_PROGRAM_NODES": 3}, "node-visit budget 3 exhausted",
                 id="obp-node-budget"),
    pytest.param("tsp", NN_PROG, {"MAX_PROGRAM_NODES": 2}, "node-visit budget 2 exhausted",
                 id="tsp-node-budget"),
    pytest.param("obp", BEST_FIT, {"MAX_VECTOR_LENGTH": 1},
                 "input 'cap_remaining': length 3 exceeds max_vector_length 1",
                 id="obp-vector-length"),
    pytest.param("obp", FIRST_FIT, {"MAX_VECTOR_LENGTH": 1},
                 "input 'cap_remaining': length 3 exceeds max_vector_length 1",
                 id="obp-vector-length-unread-input"),
    pytest.param("tsp", NN_PROG, {"MAX_VECTOR_LENGTH": 4},
                 "input 'dist_to_current': length 5 exceeds max_vector_length 4",
                 id="tsp-vector-length"),
])
def test_simulator_failures_match_the_oracle(monkeypatch, task, program, limits, message):
    for name, value in limits.items():
        monkeypatch.setattr(dsl, name, value)
    build, reference, instance = _SIMULATORS[task]
    got, _ = assert_matches_reference(build, reference, instance, program)
    assert got.startswith("CandidateFailure: ") and message in got, got


# ---------------------------------------------------------------- aggregation

def test_evaluate_candidate_mean_and_single():
    suite = make_obp_suite([100], [100], seeds=[1, 2, 3])
    report = evaluate_candidate(suite, BEST_FIT)
    assert math.isfinite(report.fitness)
    assert report.fitness == -report.gap_percent
    assert len(report.per_instance) == 3
    assert report.gap_percent == pytest.approx(
        np.mean([r.gap_percent for r in report.per_instance]))

    single = BenchmarkSuite(task="obp", instances=(suite.instances[0],), labels=("x",))
    rep1 = evaluate_candidate(single, BEST_FIT)
    assert rep1.gap_percent == report.per_instance[0].gap_percent


def test_evaluate_candidate_fails_fast():
    suite = make_obp_suite([50], [100], seeds=[1, 2])
    with pytest.raises(CandidateFailure):
        evaluate_candidate(suite, compile_obp("return item"))


def test_suite_labels():
    suite = make_obp_suite([1000], [100], seeds=[1, 2])
    assert set(suite.labels) == {"1kC100"}
    tsp = make_tsp_suite([50], seeds=[1])
    assert tsp.labels == ("size50",)


# ---------------------------------------------------------------- files

def test_instance_files_round_trip(tmp_path):
    obp = gen_obp(1, 50, 100)
    problems.save_instance(tmp_path / "a.json", obp)
    data = json.loads((tmp_path / "a.json").read_text())
    assert set(data) == {"capacity", "items"}
    back = problems.load_instance(tmp_path / "a.json", "obp")
    assert back == obp

    tsp = gen_tsp(1, 10)
    problems.save_instance(tmp_path / "b.json", tsp)
    data = json.loads((tmp_path / "b.json").read_text())
    assert set(data) == {"coords"}
    back = problems.load_instance(tmp_path / "b.json", "tsp")
    assert np.array_equal(back.coords, tsp.coords)


def test_suite_file_round_trip(tmp_path):
    suite = make_obp_suite([20], [50], seeds=[1, 2])
    problems.save_suite(tmp_path / "suite.json", suite, tmp_path / "instances")
    back = problems.load_suite(tmp_path / "suite.json")
    assert back.task == "obp"
    assert back.labels == suite.labels
    assert back.instances == suite.instances
