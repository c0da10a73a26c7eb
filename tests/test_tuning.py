import numpy as np
import pytest

from mtot import ConfigError, FitConfig, SimSpec, fit, generate, predict, smspe
from mtot.solver import _init_output_bases, _input_bases
from mtot.tuning import (
    RankGrid,
    _parameter_count,
    build_grid,
    cross_validate,
    fold_indices,
    make_rank_grid,
    numerical_rank,
)
from reference_als import reference_held_out_rss


def test_numerical_rank_cases():
    assert numerical_rank(np.eye(5)) == 5
    a = np.outer(np.arange(1.0, 11.0), np.arange(1.0, 8.0))
    assert numerical_rank(a) == 1
    rng = np.random.default_rng(0)
    assert numerical_rank(rng.standard_normal((10, 7))) == 7
    assert numerical_rank(np.zeros((4, 4))) == 0


@pytest.mark.parametrize("r,expected", [
    (1, (1,)),
    (8, (1, 2, 4, 8)),
    (5, (1, 2, 3, 5)),
    (0, (1,)),
    (160, (1, 2, 3, 5, 10, 20, 40, 80, 160)),
])
def test_build_grid(r, expected):
    assert build_grid(r) == expected


def test_build_grid_monotone_cardinality():
    sizes = [len(build_grid(r)) for r in range(1, 70)]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    for r in range(1, 70):
        grid = build_grid(r)
        assert grid[0] == 1 and grid[-1] == r
        assert list(grid) == sorted(set(grid))


def test_fold_indices_deterministic_and_balanced():
    a = fold_indices(23, 5, seed=3)
    b = fold_indices(23, 5, seed=3)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa, fb)
    sizes = [len(f) for f in a]
    assert max(sizes) - min(sizes) <= 1
    assert np.array_equal(np.sort(np.concatenate(a)), np.arange(23))
    with pytest.raises(ConfigError):
        fold_indices(3, 5, seed=0)
    with pytest.raises(ConfigError):
        fold_indices(10, 1, seed=0)


def test_cross_validate_single_tuple():
    data = generate(SimSpec("jump", seed=1, m_train=40, m_test=0))
    grid = RankGrid(input_candidates=[(2,), (3,)], output_candidates=(4,),
                    input_source_ranks=[2, 3], output_source_rank=4)
    report = cross_validate(data.train, grid=grid, k=5, seed=0)
    assert report.chosen == (2, 3, 4)
    assert report.folds_used[report.chosen] == 5


def test_cross_validate_noiseless_truth_not_beaten():
    data = generate(SimSpec("waveform", sigma=0.0, seed=4, m_train=80, m_test=0))
    report = cross_validate(data.train, k=5, seed=0)
    truth = (2, 3, 3)
    assert truth in report.mean_rss
    for combo, rss in report.mean_rss.items():
        if all(c >= t for c, t in zip(combo, truth)):
            assert report.mean_rss[report.chosen] <= rss + 1e-8
    assert report.mean_rss[report.chosen] <= report.mean_rss[truth] + 1e-8


def test_cross_validate_reproducible_and_infeasible_skipped():
    data = generate(SimSpec("waveform", sigma=0.3, seed=5, m_train=60, m_test=0))
    r1 = cross_validate(data.train, k=5, seed=9)
    r2 = cross_validate(data.train, k=5, seed=9)
    assert r1.chosen == r2.chosen
    assert r1.mean_rss == r2.mean_rss
    # response unfolding rank exceeds the smallest output extent, so the
    # ladder top must be skipped as infeasible
    assert r1.skipped
    assert all(combo[-1] > 40 for combo in r1.skipped)


def test_cross_validate_paper_band_waveform():
    data = generate(SimSpec("waveform", sigma=0.3, seed=0))
    report = cross_validate(data.train, k=5, seed=0)
    *in_ranks, out_rank = report.chosen
    model = fit(data.train, FitConfig(input_ranks=in_ranks, output_rank=out_rank))
    value = smspe(data.test.y, predict(model, data.test.xs))
    assert abs(value - 0.0395) <= 0.03


def test_grid_from_dataset_and_csv(tmp_path):
    data = generate(SimSpec("jump", seed=2, m_train=60, m_test=0))
    grid = make_rank_grid(data.train)
    assert grid.input_candidates[0] == (1, 2, 3, 5)
    assert grid.input_source_ranks[0] == 5
    report = cross_validate(data.train, grid=RankGrid(
        input_candidates=[(1, 2), (2,)], output_candidates=(2, 4),
        input_source_ranks=[2, 2], output_source_rank=4), k=4, seed=0)
    out = tmp_path / "cv.csv"
    report.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "rank_in_0,rank_in_1,rank_out,mean_rss,folds_used"
    assert len(lines) == 5


def _reference_cross_validate(ds, grid, k, seed, tol=1e-6, max_iter=100):
    """Per-tuple CV: every (tuple, fold) fit built from scratch by the reference sweep."""
    folds = fold_indices(ds.num_samples, k, seed)
    in_extents = [min(s) for s in ds.input_shapes]
    mean_rss, folds_used, skipped = {}, {}, []
    for combo in grid.tuples():
        *in_ranks, out_rank = combo
        if out_rank > min(ds.output_shape) or any(r > e for r, e in zip(in_ranks, in_extents)):
            skipped.append(combo)
            continue
        resolved = [(r,) * len(s) for r, s in zip(in_ranks, ds.input_shapes)]
        per_fold = []
        for held in folds:
            train = ds.subset(np.setdiff1d(np.arange(ds.num_samples), held))
            factors = _input_bases(train, resolved, "tucker")
            bases = _init_output_bases(train.y, (out_rank,) * len(ds.output_shape),
                                       FitConfig(input_ranks=in_ranks, output_rank=out_rank))
            held_y = ds.y[held]
            per_fold.append(reference_held_out_rss(train, [x[held] for x in ds.xs], held_y,
                                                   factors, bases, tol, max_iter))
        mean_rss[combo] = float(np.mean(per_fold))
        folds_used[combo] = len(per_fold)
    chosen = min(mean_rss, key=lambda c: (mean_rss[c], _parameter_count(c, ds), c))
    return mean_rss, folds_used, skipped, chosen


@pytest.mark.parametrize("make_data,grid", [
    # curve-on-curve: curve + scalar inputs, 1-mode response; rank 9 exceeds
    # the 5 scalars and 101 the 100-point response
    (lambda: generate(SimSpec("curve_on_curve", seed=3, m_train=40, m_test=0)).train,
     RankGrid(input_candidates=[(1, 3, 6), (1, 2, 5, 9)], output_candidates=(1, 4, 8, 101),
              input_source_ranks=[6, 9], output_source_rank=101)),
    # waveform: 2-mode input and 2-mode response; 51 and 41 are infeasible
    (lambda: generate(SimSpec("waveform", sigma=0.3, seed=1, m_train=30, m_test=0)).train,
     RankGrid(input_candidates=[(1, 2), (3, 51)], output_candidates=(2, 3, 41),
              input_source_ranks=[2, 51], output_source_rank=41)),
])
def test_cross_validate_matches_per_tuple_reference(make_data, grid):
    ds = make_data()
    report = cross_validate(ds, grid=grid, k=5, seed=4)
    mean_rss, folds_used, skipped, chosen = _reference_cross_validate(ds, grid, k=5, seed=4)
    assert report.chosen == chosen
    assert report.skipped == skipped and skipped
    assert report.folds_used == folds_used
    assert list(report.mean_rss) == list(mean_rss)
    for combo, ref in mean_rss.items():
        assert abs(report.mean_rss[combo] - ref) <= 1e-10 * abs(ref), combo
