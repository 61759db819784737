import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdeoh import dsl, problems
from cdeoh.problems import (
    BenchmarkSuite,
    CandidateFailure,
    ObpInstance,
    TspInstance,
    best_fit_bin_count,
    construct_tour,
    evaluate_candidate,
    first_fit_bin_count,
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
    nearest_neighbor_cycle_length,
    reference_construct_tour,
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
        assert first_fit_bin_count(items, cap) == simple_first_fit(items, cap)
        assert best_fit_bin_count(items, cap) == simple_best_fit(items, cap)


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


def test_two_opt_never_worsens():
    for seed in (1, 2):
        inst = gen_tsp(seed, 40)
        nn = nearest_neighbor_tour(inst)
        improved = two_opt(inst, nn)
        assert sorted(improved) == list(range(40))
        assert tour_length(inst, improved) <= tour_length(inst, nn) + 1e-9


def test_tsp_wrong_shape():
    inst = gen_tsp(1, 10)
    with pytest.raises(CandidateFailure):
        simulate_tsp(inst, compile_tsp("return visited_fraction"))


# Programs for the differential property: nearest neighbour, users of
# mean_dist_remaining, where/threshold rules, constant priorities (all
# ties), partly and wholly NaN priorities, quasi-random picks and a scalar
# result (a CandidateFailure at the first step).
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
    "return visited_fraction",
)


def _recorded(module, build, instance, program):
    """Run `build` with `module.evaluate` wrapped so that every step's inputs
    are recorded; return (tour or CandidateFailure text, inputs per step)."""
    steps = []
    real = module.evaluate

    def recording(prog, inputs):
        steps.append({k: np.array(v, copy=True) for k, v in inputs.items()})
        return real(prog, inputs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "evaluate", recording)
        try:
            outcome = build(instance, program)
        except CandidateFailure as e:
            outcome = f"CandidateFailure: {e}"
    return outcome, steps


def assert_matches_reference_tour(instance, program):
    import oracles
    got, got_steps = _recorded(problems, construct_tour, instance, program)
    want, want_steps = _recorded(oracles, reference_construct_tour, instance, program)
    assert got == want
    assert len(got_steps) == len(want_steps)
    for g, w in zip(got_steps, want_steps):
        assert g.keys() == w.keys()
        for name in w:
            assert g[name].dtype == w[name].dtype
            assert g[name].tobytes() == w[name].tobytes(), name
    return got, got_steps


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
    # ends with 0 left.  With two left, each mean is their distance; with
    # one left it is 0.
    inst = gen_tsp(5, 3)
    tour, steps = assert_matches_reference_tour(inst, compile_tsp(src))
    assert [s["mean_dist_remaining"].size for s in steps] == [2, 1]
    assert steps[0]["mean_dist_remaining"].tolist() == [inst.dist[1, 2]] * 2
    assert steps[1]["mean_dist_remaining"].tolist() == [0.0]
    assert steps[1]["visited_fraction"] == 2 / 3
    assert tour[0] == 0 and sorted(tour) == [0, 1, 2]


def test_construct_tour_all_ties_keeps_city_order():
    inst = gen_tsp(1, 12)
    assert construct_tour(inst, compile_tsp("return 0 * dist_to_current")) == list(range(12))
    assert construct_tour(inst, compile_tsp("return log(0 - dist_to_current)")) == list(range(12))


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
