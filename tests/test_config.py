import json

import numpy as np
import pytest

from mlblue.config import (
    PILOT_STREAM_INDEX,
    ConfigError,
    load_problem,
    parse_problem,
)
from mlblue.estimator import BlueSystem


def minimal():
    return {
        "models": {"costs": [1.0]},
        "covariance": {"type": "inline", "matrices": [[4.0]]},
        "mode": {"type": "budget", "budget": 10.0},
    }


def synthetic_two_model(mode=None):
    return {
        "models": {"costs": [2.0, 0.5]},
        "synthetic": {"loadings": [[1.0, 0.2], [0.9, 0.0]]},
        "covariance": {"type": "synthetic"},
        "mode": mode or {"type": "budget", "budget": 20.0},
    }


def test_minimal_config_resolves():
    cfg = parse_problem(minimal())
    assert cfg.models.num_models == 1 and cfg.num_outputs == 1
    assert cfg.groups.groups == ((1,),)
    assert cfg.store.matrices[0][0, 0] == 4.0
    assert cfg.seed == 0 and cfg.replications == 100
    assert cfg.evaluator == {"type": "synthetic"} or cfg.evaluator["type"] == "synthetic"


def test_null_entry_denies_group():
    raw = {
        "models": {"costs": [4.0, 1.0, 0.1]},
        "covariance": {
            "type": "inline",
            "matrices": [
                [1.0, 0.8, None],
                [0.8, 1.0, 0.7],
                [None, 0.7, 1.0],
            ],
        },
        "mode": {"type": "budget", "budget": 50.0},
    }
    cfg = parse_problem(raw)
    rows = np.array([[True, False, True], [True, True, False], [False, True, True]])
    assert cfg.store.known_groups(rows).tolist() == [False, True, True]
    # the group survives enumeration but no estimator term uses it
    system = BlueSystem.from_covariance(cfg.groups, cfg.store)
    used = [cfg.groups.groups[k] for k in np.flatnonzero(system.usable)]
    assert (1, 3) not in used and (1, 2, 3) not in used


def test_too_many_groups_is_a_groups_error():
    raw = minimal()
    raw["models"]["costs"] = [1.0] * 30
    raw["covariance"]["matrices"] = np.eye(30).tolist()
    with pytest.raises(ConfigError, match="/groups: 30 models with kappa 30 give"):
        parse_problem(raw)


def test_asymmetric_null_mask_rejected():
    raw = minimal()
    raw["models"]["costs"] = [1.0, 0.5]
    raw["covariance"]["matrices"] = [[1.0, None], [0.5, 1.0]]
    with pytest.raises(ConfigError, match="null entries must be symmetric"):
        parse_problem(raw)


def test_scalar_tolerance_broadcasts():
    raw = synthetic_two_model(mode={"type": "tolerance", "eps2": 0.1})
    raw["models"]["num_outputs"] = 2
    raw["models"]["outputs"] = [[1, 2], [1, 2]]
    raw["synthetic"] = {"loadings": [[[1.0, 0.2], [0.9, 0.0]]] * 2}
    cfg = parse_problem(raw)
    assert np.allclose(cfg.tolerances, [0.1, 0.1])


def test_unknown_keys_are_located():
    raw = minimal()
    raw["extra"] = 1
    with pytest.raises(ConfigError, match="/extra: unknown key"):
        parse_problem(raw)
    raw = minimal()
    raw["mode"]["fudge"] = 2
    with pytest.raises(ConfigError, match="/mode/fudge"):
        parse_problem(raw)
    raw = minimal()
    del raw["mode"]
    with pytest.raises(ConfigError, match="missing required key 'mode'"):
        parse_problem(raw)


def test_error_paths_point_into_arrays():
    raw = minimal()
    raw["models"]["costs"] = [1.0, "cheap"]
    with pytest.raises(ConfigError, match="/models/costs/1"):
        parse_problem(raw)
    raw = synthetic_two_model()
    raw["groups"] = {"deny": [[1, 9]]}
    with pytest.raises(ConfigError, match="/groups/deny/0/1"):
        parse_problem(raw)


def test_mode_validation():
    raw = minimal()
    raw["mode"] = {"type": "guess"}
    with pytest.raises(ConfigError, match="/mode/type"):
        parse_problem(raw)
    raw = minimal()
    raw["mode"] = {"type": "budget", "budget": -1}
    with pytest.raises(ConfigError, match="/mode/budget"):
        parse_problem(raw)
    raw = synthetic_two_model(mode={"type": "pareto", "tau_tilde": 0.5, "sweep": [1.0]})
    with pytest.raises(ConfigError, match="tau_tilde"):
        parse_problem(raw)


def test_pareto_sweep_or_point():
    cfg = parse_problem(synthetic_two_model(mode={"type": "pareto", "tau_tilde": 0.0}))
    assert cfg.tau_tilde == 0.0 and cfg.sweep == ()
    cfg = parse_problem(
        synthetic_two_model(mode={"type": "pareto", "sweep": [0.1, 10.0]})
    )
    assert cfg.tau_tilde is None and cfg.sweep == (0.1, 10.0)


def test_model_caps_parsed():
    raw = synthetic_two_model()
    raw["constraints"] = {"model_caps": [4, None]}
    cfg = parse_problem(raw)
    assert cfg.model_caps == (4.0, None)
    raw["constraints"] = {"model_caps": [4]}
    with pytest.raises(ConfigError, match="/constraints/model_caps"):
        parse_problem(raw)


def test_evaluator_command_validation():
    raw = synthetic_two_model()
    raw["evaluator"] = {"type": "command", "argv": ["solver", "--fast"], "input_dim": 2}
    cfg = parse_problem(raw)
    assert cfg.evaluator["argv"] == ["solver", "--fast"]
    assert cfg.evaluator["input_dim"] == 2
    raw["evaluator"] = {"type": "command", "argv": []}
    with pytest.raises(ConfigError, match="/evaluator"):
        parse_problem(raw)


def test_synthetic_evaluator_without_suite_fails_at_run_time():
    # allocate-only configs stay valid; the missing suite only bites once
    # someone asks for samples
    raw = minimal()
    raw["evaluator"] = {"type": "synthetic"}
    cfg = parse_problem(raw)
    assert cfg.suite is None

    from mlblue.allocate import Allocation
    from mlblue.runner import run_estimate

    alloc = Allocation(
        mode="budget",
        n=np.array([4.0]),
        per_output_variance=np.array([1.0]),
        total_cost=4.0,
        is_integer=True,
        objective_value=1.0,
    )
    with pytest.raises(ValueError, match="suite"):
        run_estimate(cfg, alloc, replications=1)


def test_exactly_one_covariance_source():
    raw = synthetic_two_model()
    raw["covariance"] = {"type": "synthetic", "matrices": [[1.0]]}
    with pytest.raises(ConfigError, match="/covariance/matrices"):
        parse_problem(raw)
    raw = synthetic_two_model()
    raw["covariance"] = {"type": "pilot"}
    with pytest.raises(ConfigError, match="missing required key 'count'"):
        parse_problem(raw)


def test_pilot_covariance_is_deterministic():
    raw = synthetic_two_model()
    raw["covariance"] = {"type": "pilot", "count": 64}
    raw["seed"] = 3
    a = parse_problem(raw)
    b = parse_problem(raw)
    assert np.array_equal(a.store.matrices, b.store.matrices)
    # pilot draws live on their own stream, disjoint from estimation draws
    c = parse_problem({**raw, "seed": 4})
    assert not np.array_equal(a.store.matrices, c.store.matrices)
    assert PILOT_STREAM_INDEX == 2**62


def test_pilot_needs_two_samples():
    raw = synthetic_two_model()
    raw["covariance"] = {"type": "pilot", "count": 1}
    with pytest.raises(ConfigError, match="at least 2"):
        parse_problem(raw)


def test_hierarchy_synthetic_section():
    raw = {
        "models": {"costs": [8.0, 4.0, 2.0, 1.0]},
        "synthetic": {"hierarchy": {"rate": 2.0, "strength": 0.5}},
        "covariance": {"type": "synthetic"},
        "mode": {"type": "budget", "budget": 100.0},
    }
    cfg = parse_problem(raw)
    from mlblue.synthetic import SyntheticSuite

    ref = SyntheticSuite.hierarchy(4, 1, rate=2.0, strength=0.5)
    assert np.allclose(cfg.store.matrices[0], ref.exact_store().matrices[0])


def test_invalid_json_wrapped(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_problem(p)


def test_config_error_carries_path():
    with pytest.raises(ConfigError) as info:
        parse_problem({"models": {"costs": [1.0]}})
    assert info.value.path == "/"
    for seed in (-1, 2 ** 64, 10 ** 399):
        raw = minimal()
        raw["seed"] = seed
        with pytest.raises(ConfigError) as info:
            parse_problem(raw)
        assert info.value.path == "/seed"
    # the largest Philox key word is read exactly, not rounded up to 2**64
    assert parse_problem({**minimal(), "seed": 2 ** 64 - 1}).seed == 2 ** 64 - 1


def test_integer_fields_read_exactly():
    raw = synthetic_two_model()
    raw["covariance"] = {"type": "pilot", "count": 16}
    a = parse_problem({**raw, "seed": 2 ** 53})
    b = parse_problem({**raw, "seed": 2 ** 53 + 1})
    assert (a.seed, b.seed) == (2 ** 53, 2 ** 53 + 1)
    # distinct seeds draw distinct pilot samples
    assert not np.array_equal(a.store.matrices, b.store.matrices)
    with pytest.raises(ConfigError) as info:
        parse_problem({**raw, "replications": 10 ** 399})
    assert info.value.path == "/replications"
