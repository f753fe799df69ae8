import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mlblue
from mlblue.cli import main
from mlblue.synthetic import SyntheticSuite


def write_config(tmp_path, raw, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def budget_config(tmp_path, **overrides):
    raw = {
        "models": {"costs": [2.0, 0.5]},
        "synthetic": {"loadings": [[1.0, 0.2], [0.9, 0.0]]},
        "covariance": {"type": "synthetic"},
        "mode": {"type": "budget", "budget": 30.0},
        "replications": 3,
    }
    raw.update(overrides)
    return write_config(tmp_path, raw)


def test_allocate_stdout_json(tmp_path, capsys):
    rc = main(["allocate", "--config", budget_config(tmp_path)])
    assert rc == 0
    out, err = capsys.readouterr()
    data = json.loads(out)
    assert data["mode"] == "budget"
    assert data["total_cost"] <= 30.0 + 1e-9
    assert "cost=" in err and "iterations=" in err


def test_allocate_output_file(tmp_path, capsys):
    dest = tmp_path / "alloc.json"
    rc = main(["allocate", "--config", budget_config(tmp_path),
               "--output", str(dest)])
    assert rc == 0
    capsys.readouterr()
    data = json.loads(dest.read_text())
    assert len(data["n"]) == len(data["groups"])


def test_bad_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"models": {"costs": [1.0]}})
    rc = main(["allocate", "--config", path])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["allocate", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_sweep_config_refused_by_allocate(tmp_path, capsys):
    path = budget_config(tmp_path,
                         mode={"type": "pareto", "sweep": [1.0, 0.1]})
    rc = main(["allocate", "--config", path])
    assert rc == 2
    assert "use the pareto subcommand" in capsys.readouterr().err


def test_unreachable_gap_exits_3(tmp_path, capsys):
    rc = main(["allocate", "--config", budget_config(tmp_path),
               "--gap-tol", "1e-300"])
    assert rc == 3
    assert "solver failure" in capsys.readouterr().err


def test_infeasible_allocation_sdp_exits_3(tmp_path, capsys):
    # each output's only anchor group costs 11 on its own, so the budget
    # passes the per-output check, but both together cost 21
    path = write_config(tmp_path, {
        "models": {"costs": [10, 1, 1], "outputs": [[1, 2], [1], [2]],
                   "num_outputs": 2},
        "covariance": {"type": "inline", "matrices": [
            [[1.0, 0.9, None], [0.9, 1.0, None], [None, None, 1.0]],
            [[1.0, None, 0.9], [None, 1.0, None], [0.9, None, 1.0]],
        ]},
        "groups": {"deny": [[1]]},
        "mode": {"type": "budget", "budget": 11.5},
    })
    assert main(["allocate", "--config", path]) == 3
    assert ("solver failure: allocation SDP is infeasible"
            in capsys.readouterr().err)


@pytest.mark.parametrize("costs, mode", [
    ([1e300, 8e299, 1e299], {"type": "budget", "budget": 1e300}),
    ([1e-300, 8e-301, 1e-301], {"type": "budget", "budget": 1e300}),
])
def test_solver_overflow_exits_3(tmp_path, capsys, costs, mode):
    # the solver overflows on schema-valid extremes; that is a solver
    # failure, not a config error, said in one line, and nothing
    # non-finite is written
    path = write_config(tmp_path, {
        "models": {"costs": costs},
        "synthetic": {"hierarchy": {"rate": 2.0, "strength": 0.05}},
        "covariance": {"type": "synthetic"},
        "groups": {"kappa": 3},
        "mode": mode,
        "seed": 7,
    })
    out_path = tmp_path / "out.json"
    assert main(["allocate", "--config", path, "--output", str(out_path)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("solver failure: allocation SDP failed: ")
    if out_path.exists():
        text = out_path.read_text()
        assert "Infinity" not in text and "NaN" not in text


def test_tiny_cost_unit_stays_within_budget(tmp_path, capsys):
    # a budget below 1e-12 in the config's cost unit: the integer checks
    # are relative to it, so the projected allocation does not overspend
    path = write_config(tmp_path, {
        "models": {"costs": [1e-150, 8e-151, 1e-151]},
        "synthetic": {"hierarchy": {"rate": 2.0, "strength": 0.05}},
        "covariance": {"type": "synthetic"},
        "groups": {"kappa": 3},
        "mode": {"type": "budget", "budget": 1e-148},
        "seed": 7,
    })
    assert main(["allocate", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["total_cost"] <= 1e-148


@pytest.mark.parametrize("eps2", [1e-310, 5e-324])
def test_subnormal_tolerance_is_a_solver_failure(tmp_path, capsys, eps2):
    # schema-valid subnormal tolerances overflow the SDP's scaling; the
    # LinAlgError that follows is the solver's, not a config error
    path = write_config(tmp_path, {
        "models": {"costs": [1e300, 8e299, 1e299]},
        "synthetic": {"hierarchy": {"rate": 2.0, "strength": 0.05}},
        "covariance": {"type": "synthetic"},
        "groups": {"kappa": 3},
        "mode": {"type": "tolerance", "eps2": eps2},
        "seed": 7,
    })
    out_path = tmp_path / "out.json"
    assert main(["allocate", "--config", path, "--output", str(out_path)]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("solver failure: allocation SDP failed: ")
    outputs = [captured.out, captured.err]
    if out_path.exists():
        outputs.append(out_path.read_text())
    for text in outputs:
        assert "Infinity" not in text and "NaN" not in text


def test_pareto_allocation_is_scale_free(tmp_path, capsys):
    # tau = tau_tilde / ||c||, so scaling every cost leaves the allocation
    # alone, also where the squares in ||c|| overflow (from about 1e154 on),
    # turn subnormal (below about 1e-154) or underflow to zero
    scales = (1.0, 1e160, 1e300, 1e-161, 1e-162, 1e-300)
    counts = []
    for scale in scales:
        path = write_config(tmp_path, {
            "models": {"costs": [scale, 0.8 * scale, 0.1 * scale]},
            "synthetic": {"hierarchy": {"rate": 2.0, "strength": 0.05}},
            "covariance": {"type": "synthetic"},
            "groups": {"kappa": 3},
            "mode": {"type": "pareto", "tau_tilde": 1.0},
            "seed": 7,
        })
        assert main(["allocate", "--config", path]) == 0
        counts.append(json.loads(capsys.readouterr().out)["n"])
    assert counts[1:] == counts[:1] * (len(scales) - 1)


def test_projection_fallback_is_reported(tmp_path, capsys, monkeypatch):
    # with no entry left to enumerate, every fractional entry is rounded up
    # past the budget, so the only candidate fails and the fallback runs
    from mlblue import allocate

    monkeypatch.setattr(allocate, "_ENUMERATION_CAP", 0)
    path = write_config(tmp_path, {
        "models": {"costs": [64, 8, 1]},
        "synthetic": {"hierarchy": {"rate": 2.0, "strength": 0.05}},
        "covariance": {"type": "synthetic"},
        "groups": {"kappa": 3},
        "mode": {"type": "budget", "budget": 2000},
        "seed": 7,
        "replications": 200,
    })
    assert main(["allocate", "--config", path]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["total_cost"] <= 2000
    assert "integer projection: rounded 3 of 3 fractional entries up" in err
    assert ("integer projection: no rounding is feasible; scaled the "
            "allocation onto the budget and floored it") in err


def test_pareto_stdout_csv(tmp_path, capsys):
    path = budget_config(tmp_path,
                         mode={"type": "pareto", "sweep": [5.0, 0.5]})
    rc = main(["pareto", "--config", path])
    assert rc == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "tau_tilde,cost,variance,normalized_error"
    assert len(lines) == 3
    assert "2/2 sweep points solved" in err


def test_pareto_csv_and_json_outputs(tmp_path, capsys):
    path = budget_config(tmp_path,
                         mode={"type": "pareto", "sweep": [5.0, 0.5]})
    csv_dest = tmp_path / "front.csv"
    assert main(["pareto", "--config", path, "--output", str(csv_dest)]) == 0
    assert csv_dest.read_text().startswith("tau_tilde,")
    json_dest = tmp_path / "front.json"
    assert main(["pareto", "--config", path, "--output", str(json_dest),
                 "--format", "json"]) == 0
    capsys.readouterr()
    points = json.loads(json_dest.read_text())
    assert len(points) == 2
    assert all(p["status"] == "optimal" for p in points)


def test_pareto_format_rule(tmp_path, capsys):
    path = budget_config(tmp_path,
                         mode={"type": "pareto", "sweep": [5.0, 0.5]})
    # a .json or .csv path picks its format, whatever --format says
    json_dest = tmp_path / "front.json"
    assert main(["pareto", "--config", path, "--output", str(json_dest)]) == 0
    points = json.loads(json_dest.read_text())
    csv_dest = tmp_path / "front.csv"
    assert main(["pareto", "--config", path, "--output", str(csv_dest),
                 "--format", "json"]) == 0
    assert csv_dest.read_text().startswith("tau_tilde,")
    # otherwise --format picks it, on stdout too
    capsys.readouterr()
    assert main(["pareto", "--config", path, "--format", "json"]) == 0
    assert capsys.readouterr().out == json_dest.read_text()
    other = tmp_path / "front.txt"
    assert main(["pareto", "--config", path, "--output", str(other),
                 "--format", "json"]) == 0
    assert json.loads(other.read_text()) == points


def test_pareto_unreachable_gap_exits_3(tmp_path, capsys):
    # unconverged sweep points are not solved ones
    path = budget_config(tmp_path,
                         mode={"type": "pareto", "sweep": [0.5, 0.05]})
    rc = main(["pareto", "--config", path, "--gap-tol", "1e-300"])
    assert rc == 3
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
@pytest.mark.parametrize("flag", ["--gap-tol", "--feastol"])
def test_bad_solver_tolerance_exits_2(tmp_path, capsys, flag, value):
    path = budget_config(tmp_path,
                         mode={"type": "pareto", "sweep": [0.5, 0.05]})
    rc = main(["pareto", "--config", path, flag, value])
    assert rc == 2
    assert (f"config error: {flag}: must be a finite number > 0"
            in capsys.readouterr().err)


def test_pareto_needs_pareto_mode(tmp_path, capsys):
    rc = main(["pareto", "--config", budget_config(tmp_path)])
    assert rc == 2
    assert "pareto-mode config" in capsys.readouterr().err


def test_estimate_end_to_end(tmp_path, capsys):
    rc = main(["estimate", "--config", budget_config(tmp_path),
               "--reps", "5", "--seed", "11"])
    assert rc == 0
    out, err = capsys.readouterr()
    data = json.loads(out)
    assert data["replications"] == 5
    assert data["seed"] == 11
    assert data["allocation"]["mode"] == "budget"
    assert len(data["empirical_variance"]) == 1
    assert "output 1: estimate=" in err


def test_estimate_seed_determinism(tmp_path, capsys):
    path = budget_config(tmp_path)
    main(["estimate", "--config", path, "--seed", "7"])
    first = capsys.readouterr()
    main(["estimate", "--config", path, "--seed", "7"])
    second = capsys.readouterr()
    assert json.loads(first.out) == json.loads(second.out)
    # --output writes what stdout gets, and leaves the summary on stderr
    dest = tmp_path / "report.json"
    assert main(["estimate", "--config", path, "--seed", "7",
                 "--output", str(dest)]) == 0
    third = capsys.readouterr()
    assert dest.read_text() == first.out
    assert third.out == "" and third.err == first.err


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_estimate_seed_out_of_range_exits_2(tmp_path, capsys, seed):
    rc = main(["estimate", "--config", budget_config(tmp_path), "--seed", seed])
    assert rc == 2
    assert f"--seed: seed {seed} is outside" in capsys.readouterr().err


# no machine allocates these: 10**17 float64 sums take at least 711 PiB,
# and 10**19 exceeds numpy's largest array dimension
@pytest.mark.parametrize("size", [10 ** 17, 10 ** 19])
@pytest.mark.parametrize("where", ["/replications", "--reps"])
def test_replications_beyond_memory_exit_2(tmp_path, capsys, size, where):
    if where == "--reps":
        argv = ["--config", budget_config(tmp_path), "--reps", str(size)]
    else:
        argv = ["--config", budget_config(tmp_path, replications=size)]
    assert main(["estimate", *argv]) == 2
    assert (f"config error: {where}: {size} replications do not fit in memory"
            in capsys.readouterr().err)


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_nonpositive_reps_exit_2(tmp_path, capsys, reps):
    argv = ["estimate", "--config", budget_config(tmp_path), "--reps", reps]
    assert main(argv) == 2
    assert "config error: --reps: must be > 0" in capsys.readouterr().err


# the budget buys this many samples of group (2,) in each replication: the
# first draw buffer takes 5.48 PiB, the second exceeds numpy's largest array
@pytest.mark.parametrize("budget,count", [(3e14, 385711574504198),
                                          (3e18, 3857115736507856384)])
def test_group_samples_beyond_memory_exit_2(tmp_path, capsys, budget, count):
    path = budget_config(tmp_path, mode={"type": "budget", "budget": budget})
    assert main(["estimate", "--config", path]) == 2
    assert (f"config error: /mode: group (2,) needs {count} samples per "
            "replication, which do not fit in memory" in capsys.readouterr().err)


# the budget buys group (2,) 2^63 samples or more, which an int64 count
# would wrap
@pytest.mark.parametrize("budget,count", [(3e19, 38571156812603179008),
                                          (3e20, 385711568126031757312)])
def test_group_count_beyond_int64_exit_2(tmp_path, capsys, budget, count):
    path = budget_config(tmp_path, mode={"type": "budget", "budget": budget})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["estimate", "--config", path]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"config error: /mode: group (2,) needs {count} samples per "
        "replication, more than a 64-bit count holds")


@pytest.mark.parametrize("size", [10 ** 17, 10 ** 19])
def test_pilot_count_beyond_memory_exits_2(tmp_path, capsys, size):
    pilot = {"type": "pilot", "count": size}
    path = budget_config(tmp_path, covariance=pilot)
    assert main(["allocate", "--config", path]) == 2
    assert (f"config error: /covariance/count: {size} pilot samples do not "
            "fit in memory" in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["allocate", "estimate"])
def test_seed_flag_is_the_config_seed(tmp_path, capsys, command):
    # the seed drives the pilot draws, so it moves the allocation too
    pilot = {"type": "pilot", "count": 10}

    def run(*extra, seed=1):
        path = budget_config(tmp_path, covariance=pilot, seed=seed)
        assert main([command, "--config", path, *extra]) == 0
        return capsys.readouterr()

    flagged = run("--seed", "2")
    assert flagged == run(seed=2)
    assert flagged != run("--seed", "1")


@pytest.mark.parametrize("key", ["seed", "replications"])
def test_integer_beyond_float_range_exits_2(tmp_path, capsys, key):
    path = budget_config(tmp_path, **{key: 10 ** 399})
    assert main(["allocate", "--config", path]) == 2
    assert f"config error: /{key}:" in capsys.readouterr().err


def test_estimate_evaluator_failure_exits_4(tmp_path, capsys):
    script = tmp_path / "dies.py"
    script.write_text("import sys\nsys.exit(5)\n")
    path = write_config(tmp_path, {
        "models": {"costs": [1.0]},
        "covariance": {"type": "inline", "matrices": [[4.0]]},
        "mode": {"type": "budget", "budget": 20.0},
        "evaluator": {"type": "command",
                      "argv": [sys.executable, str(script)],
                      "input_dim": 1},
    })
    rc = main(["estimate", "--config", path])
    assert rc == 4
    assert "evaluator failure" in capsys.readouterr().err


def test_benchmark_table(tmp_path, capsys):
    path = budget_config(
        tmp_path,
        models={"costs": [4.0, 1.0, 0.25]},
        synthetic={"hierarchy": {"rate": 2.0}},
        mode={"type": "tolerance", "eps2": 0.01},
    )
    dest = tmp_path / "bench.json"
    rc = main(["benchmark", "--config", path, "--output", str(dest)])
    assert rc == 0
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0].split() == ["method", "cost", "max", "variance"]
    assert [ln.split()[0] for ln in lines[1:]] == ["mlblue", "mlmc", "mfmc"]
    rows = json.loads(dest.read_text())
    blue = rows["mlblue"]["total_cost"]
    for method in ("mlmc", "mfmc"):
        assert "error" not in rows[method]
        assert blue <= rows[method]["total_cost"] * (1 + 1e-9)


def test_benchmark_reports_rejections(tmp_path, capsys, monkeypatch):
    # any config the optimizer accepts also admits single-model MC, so a
    # baseline rejection only happens for stores the CLI cannot reach;
    # force one to check the error-row formatting
    import mlblue.cli as cli_mod

    def deny_mfmc(method, models, store, tolerances):
        if method == "mfmc":
            raise ValueError("no admissible MFMC configuration")
        return real(method, models, store, tolerances)

    real = cli_mod.multi_output_baseline
    monkeypatch.setattr(cli_mod, "multi_output_baseline", deny_mfmc)
    path = budget_config(tmp_path, mode={"type": "tolerance", "eps2": 0.5})
    rc = main(["benchmark", "--config", path])
    assert rc == 0
    out, _ = capsys.readouterr()
    rejected = [ln for ln in out.splitlines() if "rejected:" in ln]
    assert len(rejected) == 1
    assert rejected[0].startswith("mfmc")
    assert "no admissible MFMC configuration" in rejected[0]


def test_benchmark_needs_tolerance_mode(tmp_path, capsys):
    rc = main(["benchmark", "--config", budget_config(tmp_path)])
    assert rc == 2
    assert "tolerance" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    src = str(Path(mlblue.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "mlblue", "allocate",
         "--config", budget_config(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["mode"] == "budget"


def test_pareto_answers_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the 10-model, one-output pareto shape of the benchmark; a product
    # split over two OpenBLAS threads sums in another order and moves the
    # variances in their last digits (with one core both runs use one)
    loadings = SyntheticSuite.random(10, 1, seed=2).loadings
    loadings = loadings / np.linalg.norm(loadings[:, 0, :], axis=1)[:, None, None]
    config = write_config(tmp_path, {
        "models": {"costs": (4.0 ** np.arange(9, -1, -1)).tolist()},
        "synthetic": {"loadings": loadings.tolist()},
        "covariance": {"type": "synthetic"},
        "groups": {"kappa": 3},
        "mode": {"type": "pareto", "sweep": np.logspace(-7, 4, 12).tolist()},
    })
    src = str(Path(mlblue.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        dest = tmp_path / f"frontier-{threads}.json"
        subprocess.run(
            [sys.executable, "-m", "mlblue", "pareto", "--config", config,
             "--output", str(dest), "--format", "json"],
            capture_output=True, env=env, timeout=120, check=True,
        )
        outputs.append(dest.read_bytes())
    assert outputs[0] == outputs[1]
