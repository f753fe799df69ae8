"""Problem configuration: a strict JSON schema resolved into live objects.

A problem file bundles everything one run needs: model costs and output
coverage, exactly one covariance source (inline matrices with nulls for
unknown entries, a pilot-sample spec, or the synthetic suite's exact
covariance), group enumeration limits, the optimization mode, optional
per-model sample caps, and sampling parameters.

Validation is deliberately strict. Unknown keys are errors, not warnings,
and every complaint carries a JSON-pointer path so a bad file can be fixed
without reading this module. Loading resolves all cross-references: the
returned ProblemConfig holds constructed ModelSet/GroupSet/CovarianceStore
objects and the parsed mode, constraints, evaluator and sampling settings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .covariance import CovarianceStore, sample_covariance
from .estimator import BlueSystem
from .models import GroupSet, ModelSet, enumerate_groups
from .synthetic import SyntheticSuite

__all__ = [
    "ConfigError",
    "ProblemConfig",
    "load_problem",
    "parse_problem",
    "check_seed",
    "PILOT_STREAM_INDEX",
]

# Stream index reserved for pilot draws so they never overlap estimation
# draws, which use the group's position in the enumerated group set.
PILOT_STREAM_INDEX = 2 ** 62


class ConfigError(ValueError):
    """A problem-file violation, located by a JSON-pointer path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path or '/'}: {message}")
        self.path = path or "/"


@dataclass(frozen=True)
class ProblemConfig:
    """A fully resolved problem description."""

    models: ModelSet
    groups: GroupSet
    store: CovarianceStore
    suite: SyntheticSuite | None
    mode: str
    budget: float | None
    tolerances: np.ndarray | None
    tau_tilde: float | None
    sweep: tuple[float, ...]
    model_caps: tuple[float | None, ...]
    evaluator: dict
    seed: int
    replications: int

    @property
    def num_outputs(self) -> int:
        return self.models.num_outputs

    @cached_property
    def systems(self) -> tuple[BlueSystem, ...]:
        """One BlueSystem per output, built on first use and then shared."""
        return tuple(BlueSystem.from_covariance(self.groups, self.store, output=s)
                     for s in range(1, self.store.num_outputs + 1))


def _require_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}/{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(path, f"missing required key {key!r}")


def _as_number(value, path, positive=False, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "expected a number")
    try:
        out = float(value)
    except OverflowError:
        raise ConfigError(path, "is beyond the range of a float") from None
    if not np.isfinite(out):
        raise ConfigError(path, "must be finite")
    if positive and out <= 0:
        raise ConfigError(path, "must be > 0")
    if integer:
        if out != int(out):
            raise ConfigError(path, "expected an integer")
        # an int stays exact: float() rounds integers above 2**53
        return value if isinstance(value, int) else int(out)
    return out


def check_seed(seed: int, path: str) -> int:
    """A sampling seed must fit one 64-bit word of the Philox key."""
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(path, f"seed {seed} is outside [0, 2**64)")
    return seed


def _as_number_list(value, path, positive=False):
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a nonempty array of numbers")
    return [_as_number(v, f"{path}/{i}", positive=positive) for i, v in enumerate(value)]


def _parse_models(section):
    _require_keys(section, "/models", ("costs",), ("outputs", "num_outputs"))
    costs = _as_number_list(section["costs"], "/models/costs", positive=True)
    ell = len(costs)
    outputs = section.get("outputs")
    if outputs is not None:
        if not isinstance(outputs, list) or len(outputs) != ell:
            raise ConfigError("/models/outputs", f"expected one entry per model ({ell})")
        for i, out in enumerate(outputs):
            if not isinstance(out, list) or not out:
                raise ConfigError(f"/models/outputs/{i}", "expected a nonempty array of output ids")
            for j, s in enumerate(out):
                if isinstance(s, bool) or not isinstance(s, int):
                    raise ConfigError(f"/models/outputs/{i}/{j}", "expected an integer output id")
    num_outputs = section.get("num_outputs")
    if num_outputs is not None:
        num_outputs = _as_number(num_outputs, "/models/num_outputs", positive=True, integer=True)
    try:
        models = ModelSet(costs, outputs=outputs, num_outputs=num_outputs)
    except ValueError as exc:
        raise ConfigError("/models", str(exc)) from exc
    return models


def _parse_synthetic(section, models):
    if section is None:
        return None
    _require_keys(section, "/synthetic", (), ("loadings", "means", "hierarchy"))
    has_loadings = "loadings" in section
    has_hierarchy = "hierarchy" in section
    if has_loadings == has_hierarchy:
        raise ConfigError("/synthetic", "provide exactly one of 'loadings' or 'hierarchy'")
    if has_hierarchy:
        h = section["hierarchy"]
        _require_keys(h, "/synthetic/hierarchy", (),
                      ("rate", "strength", "h0", "ratio", "mean", "bias", "output_scale"))
        kwargs = {}
        for key in ("rate", "strength", "h0", "ratio", "mean", "bias", "output_scale"):
            if key in h:
                kwargs[key] = _as_number(h[key], f"/synthetic/hierarchy/{key}")
        try:
            suite = SyntheticSuite.hierarchy(
                models.num_models, models.num_outputs, **kwargs)
        except ValueError as exc:
            raise ConfigError("/synthetic/hierarchy", str(exc)) from exc
    else:
        try:
            loadings = np.asarray(section["loadings"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError("/synthetic/loadings", "expected a rectangular numeric array") from exc
        means = section.get("means")
        if means is not None:
            try:
                means = np.asarray(means, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ConfigError("/synthetic/means", "expected a rectangular numeric array") from exc
        try:
            suite = SyntheticSuite(loadings, means)
        except ValueError as exc:
            raise ConfigError("/synthetic", str(exc)) from exc
    if suite.num_models != models.num_models:
        raise ConfigError("/synthetic", f"suite has {suite.num_models} models, /models has {models.num_models}")
    if suite.num_outputs != models.num_outputs:
        raise ConfigError("/synthetic", f"suite has {suite.num_outputs} outputs, /models has {models.num_outputs}")
    return suite


def _per_output(mats):
    """Inline matrices as one per output: a bare single matrix gets wrapped."""
    if mats and isinstance(mats[0], list) and mats[0] and not isinstance(mats[0][0], list):
        return [mats]
    return mats


def _inline_store(section, models):
    mats = section.get("matrices")
    if not isinstance(mats, list) or not mats:
        raise ConfigError("/covariance/matrices", "expected an array of matrices")
    ell, m = models.num_models, models.num_outputs
    mats = _per_output(mats)
    if len(mats) != m:
        raise ConfigError("/covariance/matrices", f"expected {m} matrices (one per output)")
    values = np.zeros((m, ell, ell))
    known = np.zeros((m, ell, ell), dtype=bool)
    for s, mat in enumerate(mats):
        if not isinstance(mat, list) or len(mat) != ell:
            raise ConfigError(f"/covariance/matrices/{s}", f"expected {ell} rows")
        for i, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != ell:
                raise ConfigError(f"/covariance/matrices/{s}/{i}", f"expected {ell} entries")
            for j, entry in enumerate(row):
                if entry is None:
                    continue
                values[s, i, j] = _as_number(entry, f"/covariance/matrices/{s}/{i}/{j}")
                known[s, i, j] = True
    for s in range(m):
        if not np.array_equal(known[s], known[s].T):
            raise ConfigError(f"/covariance/matrices/{s}", "null entries must be symmetric")
    try:
        return CovarianceStore(values, known)
    except ValueError as exc:
        raise ConfigError("/covariance/matrices", str(exc)) from exc


def _parse_covariance(section, models, suite, seed):
    _require_keys(section, "/covariance", ("type",), ("matrices", "count"))
    ctype = section.get("type")
    if ctype == "inline":
        _require_keys(section, "/covariance", ("type", "matrices"))
        return _inline_store(section, models)
    if ctype == "synthetic":
        _require_keys(section, "/covariance", ("type",))
        if suite is None:
            raise ConfigError("/covariance", "covariance type 'synthetic' needs a /synthetic section")
        return suite.exact_store()
    if ctype == "pilot":
        _require_keys(section, "/covariance", ("type", "count"))
        count = _as_number(section["count"], "/covariance/count", positive=True, integer=True)
        if count < 2:
            raise ConfigError("/covariance/count", "need at least 2 pilot samples")
        if suite is None:
            raise ConfigError("/covariance", "covariance type 'pilot' needs a /synthetic section")
        everyone = tuple(range(1, models.num_models + 1))
        try:
            draws = suite.draw_group(everyone, count, seed, PILOT_STREAM_INDEX)
        except (MemoryError, ValueError) as exc:
            raise ConfigError(
                "/covariance/count", f"{count} pilot samples do not fit in memory ({exc})"
            ) from None
        return sample_covariance(draws.transpose(2, 0, 1), models.produces.T)
    raise ConfigError("/covariance/type", "expected 'inline', 'pilot', or 'synthetic'")


def _parse_groups(section, models):
    kappa = None
    deny = []
    if section is not None:
        _require_keys(section, "/groups", (), ("kappa", "deny"))
        if section.get("kappa") is not None:
            kappa = _as_number(section["kappa"], "/groups/kappa", positive=True, integer=True)
        for i, g in enumerate(section.get("deny", [])):
            if not isinstance(g, list) or not g:
                raise ConfigError(f"/groups/deny/{i}", "expected a nonempty array of model ids")
            ids = []
            for j, v in enumerate(g):
                if isinstance(v, bool) or not isinstance(v, int) or not 1 <= v <= models.num_models:
                    raise ConfigError(f"/groups/deny/{i}/{j}",
                                      f"expected a model id in 1..{models.num_models}")
                ids.append(v)
            if len(set(ids)) != len(ids):
                raise ConfigError(f"/groups/deny/{i}", "duplicate model ids")
            deny.append(ids)
    try:
        return enumerate_groups(models, kappa=kappa, deny_list=deny)
    except ValueError as exc:
        raise ConfigError("/groups", str(exc)) from exc


def _parse_mode(section, models):
    _require_keys(section, "/mode", ("type",), ("budget", "eps2", "tau_tilde", "sweep"))
    mtype = section.get("type")
    budget = None
    tolerances = None
    tau = None
    sweep = ()
    if mtype == "budget":
        _require_keys(section, "/mode", ("type", "budget"))
        budget = _as_number(section["budget"], "/mode/budget", positive=True)
    elif mtype == "tolerance":
        _require_keys(section, "/mode", ("type", "eps2"))
        eps2 = section["eps2"]
        if isinstance(eps2, list):
            vals = _as_number_list(eps2, "/mode/eps2", positive=True)
        else:
            vals = [_as_number(eps2, "/mode/eps2", positive=True)] * models.num_outputs
        if len(vals) != models.num_outputs:
            raise ConfigError("/mode/eps2", f"expected {models.num_outputs} tolerances")
        tolerances = np.array(vals)
    elif mtype == "pareto":
        if "sweep" in section:
            _require_keys(section, "/mode", ("type", "sweep"))
            sweep = tuple(_as_number_list(section["sweep"], "/mode/sweep", positive=True))
        else:
            _require_keys(section, "/mode", ("type", "tau_tilde"))
            tau = _as_number(section["tau_tilde"], "/mode/tau_tilde")
            if tau < 0:
                raise ConfigError("/mode/tau_tilde", "must be >= 0")
    else:
        raise ConfigError("/mode/type", "expected 'budget', 'tolerance', or 'pareto'")
    return mtype, budget, tolerances, tau, sweep


def _parse_constraints(section, models):
    caps = [None] * models.num_models
    if section is not None:
        _require_keys(section, "/constraints", (), ("model_caps",))
        raw = section.get("model_caps")
        if raw is not None:
            if not isinstance(raw, list) or len(raw) != models.num_models:
                raise ConfigError("/constraints/model_caps",
                                  f"expected one entry (number or null) per model ({models.num_models})")
            for i, v in enumerate(raw):
                if v is None:
                    continue
                caps[i] = _as_number(v, f"/constraints/model_caps/{i}", positive=True)
    return tuple(caps)


def _parse_evaluator(section):
    if section is None:
        return {"type": "synthetic"}
    _require_keys(section, "/evaluator", ("type",), ("argv", "input_dim"))
    etype = section.get("type")
    if etype == "synthetic":
        _require_keys(section, "/evaluator", ("type",))
        return {"type": "synthetic"}
    if etype == "command":
        _require_keys(section, "/evaluator", ("type", "argv", "input_dim"))
        argv = section["argv"]
        if (not isinstance(argv, list) or not argv
                or not all(isinstance(a, str) for a in argv)):
            raise ConfigError("/evaluator/argv", "expected a nonempty array of strings")
        dim = _as_number(section["input_dim"], "/evaluator/input_dim",
                         positive=True, integer=True)
        return {"type": "command", "argv": list(argv), "input_dim": dim}
    raise ConfigError("/evaluator/type", "expected 'synthetic' or 'command'")


def parse_problem(raw: dict) -> ProblemConfig:
    """Validate a parsed JSON document and resolve it into live objects."""
    _require_keys(raw, "", ("models", "covariance", "mode"),
                  ("synthetic", "groups", "constraints", "evaluator", "seed", "replications"))
    models = _parse_models(raw["models"])
    suite = _parse_synthetic(raw.get("synthetic"), models)
    seed = check_seed(_as_number(raw.get("seed", 0), "/seed", integer=True), "/seed")
    replications = _as_number(raw.get("replications", 100), "/replications",
                              positive=True, integer=True)
    store = _parse_covariance(raw["covariance"], models, suite, seed)
    groups = _parse_groups(raw.get("groups"), models)
    mode, budget, tolerances, tau, sweep = _parse_mode(raw["mode"], models)
    caps = _parse_constraints(raw.get("constraints"), models)
    # an allocate-only config needs no evaluator, so a synthetic evaluator
    # without a /synthetic section is only an error once estimation starts
    evaluator = _parse_evaluator(raw.get("evaluator"))
    return ProblemConfig(
        models=models, groups=groups, store=store, suite=suite, mode=mode,
        budget=budget, tolerances=tolerances, tau_tilde=tau, sweep=sweep,
        model_caps=caps, evaluator=evaluator, seed=seed,
        replications=replications,
    )


def load_problem(path, seed: int | None = None) -> ProblemConfig:
    """Read, validate, and resolve a JSON problem file; a ``seed`` replaces
    its ``/seed`` before anything is drawn, pilot samples included."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("", f"invalid JSON: {exc}") from exc
    if seed is not None and isinstance(raw, dict):
        raw["seed"] = seed
    return parse_problem(raw)
