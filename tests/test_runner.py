import json
import os
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from mlblue.allocate import integer_projection, solve_mosap
from mlblue.baselines import BaselineAllocation, multi_output_baseline
from mlblue.config import ConfigError, parse_problem
from mlblue.covariance import CovarianceStore
from mlblue.estimator import IllPosedError, normalized_error
from mlblue.models import ModelSet
from mlblue.runner import (
    EvaluatorError,
    allocation_to_json,
    baseline_to_json,
    emit_outputs,
    frontier_to_csv,
    report_to_json,
    run_estimate,
    spec_from_config,
)
from mlblue.synthetic import SyntheticSuite


def two_model_config(loadings=None, mode=None, **extra):
    raw = {
        "models": {"costs": [2.0, 0.5]},
        "synthetic": {"loadings": loadings or [[1.0, 0.2], [0.9, 0.0]]},
        "covariance": {"type": "synthetic"},
        "mode": mode or {"type": "budget", "budget": 30.0},
    }
    raw.update(extra)
    return parse_problem(raw)


def integer_allocation(cfg):
    spec = spec_from_config(cfg)
    return spec, integer_projection(spec, solve_mosap(spec))


def test_zero_variance_suite_recovers_offset_exactly():
    # zero loadings: every draw returns the model means, so the combined
    # estimate must be the high-fidelity mean whatever model 2 reports
    cfg = two_model_config(
        synthetic={"loadings": [[0.0, 0.0], [0.0, 0.0]], "means": [3.25, -1.5]},
    )
    n = np.zeros(cfg.groups.num_groups)
    n[cfg.groups.groups.index((1,))] = 3
    n[cfg.groups.groups.index((1, 2))] = 2
    report = run_estimate(replace(cfg, seed=1), n, replications=5)
    assert report.estimates == pytest.approx(np.full((5, 1), 3.25), abs=1e-9)
    assert report.empirical_variance[0] <= 1e-20


def test_empirical_variance_calibrated():
    cfg = two_model_config()
    spec, alloc = integer_allocation(cfg)
    report = run_estimate(replace(cfg, seed=2), alloc, replications=10_000)
    assert report.empirical_variance[0] == pytest.approx(
        report.predicted_variance[0], rel=0.1
    )
    se = np.sqrt(report.predicted_variance[0] / report.replications)
    assert abs(report.mean_estimate[0] - cfg.suite.means[0, 0]) < 3 * se


def test_cost_accounting_exact():
    cfg = two_model_config()
    n = np.zeros(cfg.groups.num_groups)
    n[cfg.groups.groups.index((1,))] = 7
    n[cfg.groups.groups.index((2,))] = 11
    n[cfg.groups.groups.index((1, 2))] = 2
    report = run_estimate(cfg, n, replications=2)
    assert report.total_cost == 7 * 2.0 + 11 * 0.5 + 2 * 2.5


def test_reports_are_bit_identical():
    cfg = two_model_config()
    _, alloc = integer_allocation(cfg)
    a = run_estimate(replace(cfg, seed=9), alloc, replications=50)
    b = run_estimate(replace(cfg, seed=9), alloc, replications=50)
    assert np.array_equal(a.estimates, b.estimates)
    c = run_estimate(replace(cfg, seed=10), alloc, replications=50)
    assert not np.array_equal(a.estimates, c.estimates)


def test_replications_use_disjoint_streams():
    cfg = two_model_config()
    _, alloc = integer_allocation(cfg)
    r = run_estimate(replace(cfg, seed=3), alloc, replications=40)
    assert np.unique(r.estimates[:, 0]).size == 40


def two_output_config():
    rng = np.random.default_rng(8)
    return parse_problem({
        "models": {"costs": [4.0, 1.0, 0.25], "outputs": [[1, 2]] * 3},
        "synthetic": {"loadings": rng.standard_normal((2, 3, 5)).tolist(),
                      "means": [[1.0, 0.5, -0.5], [2.0, -1.0, 0.0]]},
        "covariance": {"type": "synthetic"},
        "mode": {"type": "budget", "budget": 40.0},
    })


def two_output_allocation(cfg):
    n = np.zeros(cfg.groups.num_groups)
    for group, count in (((1,), 2), ((1, 2), 3), ((2, 3), 4), ((3,), 5)):
        n[cfg.groups.groups.index(group)] = count
    return n


def test_estimates_match_dense_per_replication_reference():
    cfg = two_output_config()
    n = two_output_allocation(cfg)
    reps, seed = 7, 21
    report = run_estimate(replace(cfg, seed=seed), n, replications=reps)
    sampled = np.flatnonzero(n)
    want = np.empty((reps, 2))
    for r in range(reps):
        draws = {k: cfg.suite.draw_group(cfg.groups.groups[k], int(n[k]), seed,
                                         int(k), replication=r)
                 for k in sampled}
        for s in range(2):
            psi = np.zeros((3, 3))
            rhs = np.zeros(3)
            for k in sampled:
                idx = [i - 1 for i in cfg.groups.groups[k]]
                inv = np.linalg.inv(cfg.store.matrices[s][np.ix_(idx, idx)])
                psi[np.ix_(idx, idx)] += n[k] * inv
                rhs[idx] += inv @ draws[k][:, :, s].sum(axis=0)
            want[r, s] = (np.linalg.inv(psi) @ rhs)[0]
    assert np.abs(report.estimates - want).max() <= 1e-12 * np.abs(want).max()


def test_combine_runs_once_per_output(monkeypatch):
    import mlblue.runner

    calls = []
    combine = mlblue.runner.combine_samples

    def counting(*args):
        calls.append(args[0].output)
        return combine(*args)

    monkeypatch.setattr(mlblue.runner, "combine_samples", counting)
    cfg = two_output_config()
    run_estimate(replace(cfg, seed=1), two_output_allocation(cfg), replications=9)
    assert calls == [1, 2]


def test_normalized_error_is_worst_output():
    assert normalized_error([0.04, 0.01], [1.0, 1.0]) == pytest.approx(0.2)


def test_spec_from_config_builds_cap_rows():
    cfg = two_model_config(constraints={"model_caps": [4, None]})
    spec = spec_from_config(cfg)
    assert len(spec.extra_linear) == 1
    coeffs, bound = spec.extra_linear[0]
    assert bound == 4.0
    expect = [1.0 if 1 in g else 0.0 for g in cfg.groups.groups]
    assert np.array_equal(coeffs, expect)


def test_spec_from_config_pareto_scaling():
    cfg = two_model_config(mode={"type": "pareto", "tau_tilde": 3.0})
    spec = spec_from_config(cfg)
    assert spec.tau == pytest.approx(
        3.0 / np.linalg.norm(cfg.groups.group_costs)
    )
    cfg2 = two_model_config(mode={"type": "pareto", "sweep": [0.1, 1.0]})
    with pytest.raises(ValueError, match="tau_tilde"):
        spec_from_config(cfg2)


def test_allocation_json_roundtrip():
    cfg = two_model_config()
    spec, alloc = integer_allocation(cfg)
    data = allocation_to_json(alloc, cfg.groups)
    assert data["mode"] == "budget"
    assert all(isinstance(v, int) for v in data["n"])
    assert data["total_cost"] == pytest.approx(alloc.total_cost)


def test_baseline_json_mlmc_levels_are_groups():
    base = BaselineAllocation(
        method="mlmc",
        model_subset=(1, 2, 3),
        groups=((1, 2), (2, 3), (3,)),
        counts=(4, 9, 25),
        total_cost=17.0,
        predicted_variance=np.array([0.01]),
    )
    data = baseline_to_json(base)
    assert data["method"] == "mlmc"
    assert data["groups"] == [[1, 2], [2, 3], [3]]
    assert data["n"] == [4, 9, 25]
    assert json.loads(json.dumps(data)) == data


def test_baseline_json_mfmc_suffix_decomposition():
    models = ModelSet([4.0, 0.5, 0.05])
    store = CovarianceStore([[1.0, 0.95, 0.9], [0.95, 1.0, 0.93], [0.9, 0.93, 1.0]])
    data = baseline_to_json(multi_output_baseline("mfmc", models, store, [0.01]))
    groups, counts = data["groups"], data["n"]
    # nested suffix groups: the first holds every model, each the next
    assert groups == [[1, 2, 3], [2, 3], [3]]
    assert all(set(b) < set(a) for a, b in zip(groups, groups[1:]))
    assert all(isinstance(c, int) and c > 0 for c in counts)
    cost = sum(c * models.costs[np.asarray(g) - 1].sum()
               for g, c in zip(groups, counts))
    assert cost == pytest.approx(data["total_cost"], rel=1e-12)


def test_frontier_csv_format():
    frontier = [
        {"tau_tilde": 1.0, "cost": 3.0, "variance": 1.0 / 3.0,
         "normalized_error": 0.25, "status": "optimal"},
        {"tau_tilde": 0.1, "cost": 30.0, "variance": 0.0625,
         "normalized_error": 0.125, "status": "optimal"},
        {"tau_tilde": 0.5, "status": "failed", "error": "boom"},
        {"tau_tilde": 2.0, "cost": 1.0, "variance": 1.0,
         "normalized_error": 1.0, "status": "max_iter"},
    ]
    text = frontier_to_csv(frontier)
    lines = text.splitlines()
    assert lines[0] == "tau_tilde,cost,variance,normalized_error"
    assert len(lines) == 3  # failed and unconverged points dropped
    taus = [float(ln.split(",")[0]) for ln in lines[1:]]
    assert taus == sorted(taus)
    # 17 significant digits round-trip exactly
    assert float(lines[2].split(",")[2]) == 1.0 / 3.0
    assert text.endswith("\n")
    assert frontier_to_csv([]) == "tau_tilde,cost,variance,normalized_error\n"


def test_emit_outputs_dispatch(tmp_path):
    cfg = two_model_config()
    spec, alloc = integer_allocation(cfg)
    p = tmp_path / "alloc.json"
    emit_outputs(allocation_to_json(alloc, cfg.groups), p)
    assert json.loads(p.read_text())["mode"] == "budget"
    report = run_estimate(cfg, alloc, replications=3)
    p2 = tmp_path / "report.json"
    emit_outputs(report_to_json(report), p2)
    data = json.loads(p2.read_text())
    assert data["replications"] == 3
    with pytest.raises(ValueError, match="csv"):
        emit_outputs(report_to_json(report), p2, format="csv")
    with pytest.raises(ValueError, match="format"):
        emit_outputs(report_to_json(report), p2, format="yaml")
    with pytest.raises(TypeError, match="EstimateReport"):
        emit_outputs(report, p2)
    frontier = [{"tau_tilde": 1.0, "cost": 3.0, "variance": 0.5,
                 "normalized_error": 0.25, "status": "optimal"}]
    p3 = tmp_path / "frontier.csv"
    emit_outputs(frontier, p3, format="csv")
    assert p3.read_text() == frontier_to_csv(frontier)
    # JSON keeps every sweep point with its status
    frontier.append({"tau_tilde": 2.0, "cost": 1.0, "variance": 1.0,
                     "normalized_error": 1.0, "status": "max_iter"})
    emit_outputs(frontier, p3)
    assert [p["status"] for p in json.loads(p3.read_text())] == [
        "optimal", "max_iter"]


def test_report_json_embeds_allocation():
    cfg = two_model_config()
    spec, alloc = integer_allocation(cfg)
    rep = run_estimate(cfg, alloc, replications=2)
    data = report_to_json(rep, allocation_to_json(alloc, cfg.groups))
    assert data["allocation"]["mode"] == "budget"
    assert data["empirical_variance"] is not None
    solo = report_to_json(rep)
    assert "allocation" not in solo


EVALUATOR = """\
import json, sys
import numpy as np

loadings = np.array([[1.0, 0.2], [0.9, 0.0]])
log = open(sys.argv[1], "a") if len(sys.argv) > 1 else None
for line in sys.stdin:
    req = json.loads(line)
    if log:
        log.write(line)
        log.flush()
    z = np.asarray(req["input"])
    val = float(loadings[req["model"] - 1] @ z)
    print(json.dumps({"values": [val]}), flush=True)
"""


def command_config(tmp_path, argv_extra=(), script=EVALUATOR):
    path = tmp_path / "model.py"
    path.write_text(script)
    return parse_problem({
        "models": {"costs": [2.0, 0.5]},
        "covariance": {
            "type": "inline",
            "matrices": [[1.04, 0.9], [0.9, 0.81]],
        },
        "mode": {"type": "budget", "budget": 30.0},
        "evaluator": {
            "type": "command",
            "argv": [sys.executable, str(path), *argv_extra],
            "input_dim": 2,
        },
    })


def test_command_evaluator_matches_synthetic_path(tmp_path):
    cfg_cmd = command_config(tmp_path)
    cfg_syn = two_model_config(
        covariance={"type": "inline", "matrices": [[1.04, 0.9], [0.9, 0.81]]}
    )
    n = np.zeros(cfg_cmd.groups.num_groups)
    n[cfg_cmd.groups.groups.index((1,))] = 3
    n[cfg_cmd.groups.groups.index((1, 2))] = 4
    a = run_estimate(replace(cfg_cmd, seed=12), n, replications=6)
    b = run_estimate(replace(cfg_syn, seed=12), n, replications=6)
    assert np.allclose(a.estimates, b.estimates, rtol=1e-12, atol=1e-12)


def test_command_evaluator_couples_group_inputs(tmp_path):
    log = tmp_path / "log.jsonl"
    cfg = command_config(tmp_path, argv_extra=(str(log),))
    n = np.zeros(cfg.groups.num_groups)
    k12 = cfg.groups.groups.index((1, 2))
    n[k12] = 5
    run_estimate(replace(cfg, seed=6), n, replications=1)
    reqs = [json.loads(ln) for ln in log.read_text().splitlines()]
    assert len(reqs) == 10  # 5 samples x 2 models
    for j in range(5):
        a, b = reqs[2 * j], reqs[2 * j + 1]
        assert {a["model"], b["model"]} == {1, 2}
        assert a["input"] == b["input"]  # same draw for the whole group
    inputs = {tuple(r["input"]) for r in reqs}
    assert len(inputs) == 5  # distinct draws across samples


def test_command_evaluator_request_order(tmp_path):
    # group by group, then replication, then sample, then model
    log = tmp_path / "log.jsonl"
    cfg = command_config(tmp_path, argv_extra=(str(log),))
    n = np.zeros(cfg.groups.num_groups)
    counts = {(1,): 2, (1, 2): 3}
    for group, count in counts.items():
        n[cfg.groups.groups.index(group)] = count
    run_estimate(replace(cfg, seed=4), n, replications=2)
    reqs = [json.loads(ln) for ln in log.read_text().splitlines()]
    want = []
    for k in sorted(cfg.groups.groups.index(g) for g in counts):
        group = cfg.groups.groups[k]
        blocks = SyntheticSuite.factor_blocks(counts[group], 2, 4, k, (0, 1))
        for z in blocks:
            for j in range(len(z)):
                want += [{"model": model, "input": z[j].tolist()} for model in group]
    assert reqs == want


# 2**50 samples of two inputs take 16 PiB; 2**62 exceed numpy's largest array
@pytest.mark.parametrize("count", [2 ** 50, 2 ** 62])
def test_command_evaluator_samples_beyond_memory_raise_before_any_request(
        tmp_path, count):
    log = tmp_path / "log.jsonl"
    cfg = command_config(tmp_path, argv_extra=(str(log),))
    n = np.zeros(cfg.groups.num_groups)
    n[cfg.groups.groups.index((1,))] = count
    with pytest.raises(ConfigError, match=rf"^/mode: group \(1,\) needs {count} "
                                          "samples per replication, which do not fit"):
        run_estimate(cfg, n, replications=2)
    assert not log.exists() or log.read_text() == ""


def test_ill_posed_allocation_raises_before_any_request(tmp_path):
    log = tmp_path / "log.jsonl"
    cfg = command_config(tmp_path, argv_extra=(str(log),))
    n = np.zeros(cfg.groups.num_groups)
    n[cfg.groups.groups.index((2,))] = 3  # model 1 is never sampled
    with pytest.raises(IllPosedError):
        run_estimate(cfg, n, replications=2)
    assert not log.exists() or log.read_text() == ""


def test_command_evaluator_failure_names_location(tmp_path):
    dying = "import sys\nsys.stdin.readline()\nsys.exit(3)\n"
    cfg = command_config(tmp_path, script=dying)
    n = np.zeros(cfg.groups.num_groups)
    n[cfg.groups.groups.index((1,))] = 2
    with pytest.raises(EvaluatorError, match=r"group 0 \(replication 0\)"):
        run_estimate(cfg, n, replications=1)


def test_command_evaluator_bad_response(tmp_path):
    chatty = 'import sys\nfor line in sys.stdin: print("not json", flush=True)\n'
    cfg = command_config(tmp_path, script=chatty)
    n = np.zeros(cfg.groups.num_groups)
    n[cfg.groups.groups.index((1,))] = 1
    with pytest.raises(EvaluatorError, match="bad evaluator response"):
        run_estimate(cfg, n, replications=1)


def test_command_evaluator_lingering_after_input_is_killed(tmp_path, monkeypatch):
    monkeypatch.setattr("mlblue.runner._EVALUATOR_EXIT_GRACE", 0.2)
    lingering = EVALUATOR + "import time\ntime.sleep(60)\n"
    (tmp_path / "lingering").mkdir()
    (tmp_path / "prompt").mkdir()
    cfg_slow = command_config(tmp_path / "lingering", script=lingering)
    cfg_fast = command_config(tmp_path / "prompt")
    n = np.zeros(cfg_slow.groups.num_groups)
    n[cfg_slow.groups.groups.index((1, 2))] = 3
    a = run_estimate(replace(cfg_slow, seed=5), n, replications=2)
    b = run_estimate(replace(cfg_fast, seed=5), n, replications=2)
    assert np.array_equal(a.estimates, b.estimates)


def test_missing_command_rejected():
    cfg = parse_problem({
        "models": {"costs": [1.0]},
        "covariance": {"type": "inline", "matrices": [[1.0]]},
        "mode": {"type": "budget", "budget": 5.0},
        "evaluator": {"type": "command", "argv": ["/nonexistent/model"],
                      "input_dim": 1},
    })
    with pytest.raises(EvaluatorError, match="cannot start"):
        run_estimate(cfg, np.array([2.0]), replications=1)


def test_fractional_allocation_rejected():
    cfg = two_model_config()
    n = np.full(cfg.groups.num_groups, 0.5)
    with pytest.raises(ValueError, match="integer"):
        run_estimate(cfg, n, replications=1)


def test_command_evaluator_non_finite_response(tmp_path):
    nan = 'import sys\nfor line in sys.stdin: print(\'{"values": [NaN]}\', flush=True)\n'
    cfg = command_config(tmp_path, script=nan)
    n = np.zeros(cfg.groups.num_groups)
    n[cfg.groups.groups.index((1,))] = 1
    with pytest.raises(EvaluatorError, match="bad evaluator response at group 0"):
        run_estimate(cfg, n, replications=1)
