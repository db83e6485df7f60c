"""The verify suite's random draws: one numpy call per series (or per
criterion) takes the numbers that one call per coefficient took, and the
batched criteria pair trial k's draw with gammas[k % 3]."""

import numpy as np
import pytest

from rbffock import RBFSliceSpace
from rbffock.verify import _random_qseries, run_criterion


def _coefficient_draws(rng, degree):
    """The coefficients of one series drawn one 4-draw at a time."""
    return [tuple(rng.uniform(-1.0, 1.0, 4).tolist()) for _ in range(degree + 1)]


def _rows(series):
    return [tuple(c.to_list()) for c in series.coeffs]


@pytest.mark.parametrize("seed", [0, 7, 20240801])
@pytest.mark.parametrize("degree", [0, 8, 24])
def test_random_qseries_is_the_stream_of_one_draw_per_coefficient(seed, degree):
    rng, fresh = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert _rows(_random_qseries(rng, degree)) == _coefficient_draws(fresh, degree)
    # both generators are left at the same place
    assert rng.uniform() == fresh.uniform()


@pytest.mark.parametrize("name, seed, gammas, trials, degree", [
    ("isometry", 20240801, (0.5, 1.0, 2.0), 100, 24),
    ("sequential", 20240801 + 4, (1.0, 2.0, 0.8), 50, 16)])
def test_batched_criterion_pairs_trial_k_with_its_gamma(name, seed, gammas,
                                                        trials, degree,
                                                        monkeypatch):
    """Each Gram the criterion builds holds exactly the series of the trials
    k with gamma = gammas[k % 3], drawn one coefficient at a time."""
    fresh = np.random.default_rng(seed)
    want = {gamma: [] for gamma in gammas}
    for trial in range(trials):
        want[gammas[trial % 3]].append(_coefficient_draws(fresh, degree))

    seen = {}
    gram = RBFSliceSpace.gram

    def recorded(space, functions):
        assert all(f.gamma == space.gamma for f in functions)
        seen.setdefault(space.gamma, []).extend(_rows(f.series) for f in functions)
        return gram(space, functions)

    monkeypatch.setattr(RBFSliceSpace, "gram", recorded)
    assert run_criterion(name)[0].passed
    assert seen == want
