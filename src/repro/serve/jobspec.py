"""The JSON job-spec schema: the Study surface as a wire format.

A job spec is a plain JSON object describing either a declarative sweep
(the full :class:`~repro.harness.study.Study` surface: base config,
``grid`` / ``zip`` / ``cases`` axes, ``derive`` / ``where`` clauses,
``reps``, shard selection) or a registered experiment by
name.  :func:`validate_spec` checks it strictly — every error names the
offending field — and :func:`spec_to_study` builds the exact Study the
CLI's ``repro-omp sweep`` flags would build, so a job submitted over
HTTP produces records byte-identical to the same sweep run locally.

Sweep specs::

    {
      "kind": "sweep",
      "base": {"platform": "vera", "benchmark": "syncbench", "runs": 2},
      "axes": [
        {"kind": "grid", "axes": {"num_threads": [4, 8]}},
        {"kind": "zip", "axes": {"schedule": ["static", "dynamic"],
                                  "runtime": ["gnu", "llvm"]}},
        {"kind": "cases", "points": [{"noise": "quiet"}]}
      ],
      "derive": {"places": "'threads' if num_threads > 128 else 'cores'"},
      "where": ["num_threads <= 30 or platform == 'dardel'"],
      "reps": 3
    }

Experiment specs::

    {"kind": "experiment", "experiment": "table2", "runs": 2, "reps": 5}

``derive`` / ``where`` clauses are *expressions over config fields*, not
Python callables: they are parsed against a strict AST whitelist (names,
constants, arithmetic, comparisons, boolean logic, conditional
expressions — no calls, no attributes, no subscripts), so a spec can
carry logic without the service evaluating arbitrary code.  Names
resolve like axis keys: config fields first, then ``benchmark_params``.

:func:`spec_from_study` inverts the mapping.  Studies built from plain
axes serialize declaratively; studies carrying Python ``derive`` /
``where`` callables (e.g. the registered experiments' placement lambdas)
cannot ship a lambda in JSON, so they *fold*: the expanded config list
itself becomes one ``cases`` axis of full config dicts over an empty
base.  Folding widens the axis-name set (every config field becomes an
axis), so the tidy-record columns differ — but the expanded config list
is byte-identical, which is the invariant the schema guarantees (and
``tests/test_serve.py`` locks for every registered experiment).

Everything here is a pure function of the spec's content — fingerprints
hash sorted cache keys, never clocks or pids (DET005).
"""

from __future__ import annotations

import ast
import hashlib
import itertools
import json
from dataclasses import fields as _dataclass_fields
from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError, HarnessError, JobSpecError
from repro.harness.backend import parse_shard
from repro.harness.cache import cache_key
from repro.harness.config import ExperimentConfig
from repro.harness.study import Study

__all__ = [
    "compile_clause",
    "reps_key",
    "spec_fingerprint",
    "spec_from_study",
    "spec_to_study",
    "validate_spec",
]

#: Legal ExperimentConfig field names for ``base`` and folded points.
_CONFIG_FIELDS = tuple(f.name for f in _dataclass_fields(ExperimentConfig))

_AXIS_KINDS = ("grid", "zip", "cases")

_SWEEP_KEYS = frozenset({
    "kind", "base", "axes", "derive", "where", "reps",
    "name", "description", "shard",
})
_EXPERIMENT_KEYS = frozenset({
    "kind", "experiment", "runs", "reps", "seed", "shard",
})


def reps_key(benchmark: str) -> str:
    """The repetition knob of *benchmark* (``reps`` maps onto it)."""
    return "num_times" if benchmark == "babelstream" else "outer_reps"


def reps_derive(reps: int) -> Callable[[ExperimentConfig], dict]:
    """The per-config ``reps`` derivation shared by the sweep CLI and the
    job service: the knob's name follows each config's benchmark (which
    may be a swept axis), and an explicit axis/param value wins."""

    def derive_params(cfg: ExperimentConfig) -> dict:
        return {reps_key(cfg.benchmark): reps, **cfg.benchmark_params}

    return derive_params


# ---------------------------------------------------------------------------
# Safe derive/where expressions
# ---------------------------------------------------------------------------

#: AST nodes a derive/where clause may contain.  Deliberately closed:
#: no Call, no Attribute, no Subscript, no comprehensions — a clause is
#: data-flow over config fields, not a program.
_ALLOWED_NODES = (
    ast.Expression,
    ast.BoolOp, ast.And, ast.Or,
    ast.UnaryOp, ast.Not, ast.USub, ast.UAdd,
    ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv,
    ast.Mod, ast.Pow,
    ast.Compare, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
    ast.In, ast.NotIn, ast.Is, ast.IsNot,
    ast.IfExp,
    ast.Constant,
    ast.Name, ast.Load,
    ast.Tuple, ast.List,
)


def compile_clause(text: str, field: str) -> Callable[[ExperimentConfig], Any]:
    """Compile a derive/where expression into ``fn(config) -> value``.

    *field* names the spec location for error messages (e.g.
    ``derive.places``).  Raises :class:`JobSpecError` for syntax errors
    and for any construct outside the whitelist.
    """
    if not isinstance(text, str) or not text.strip():
        raise JobSpecError(
            f"job spec field {field!r}: expected a non-empty expression "
            f"string, got {text!r}"
        )
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise JobSpecError(
            f"job spec field {field!r}: invalid expression {text!r} ({exc.msg})"
        ) from None
    names: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise JobSpecError(
                f"job spec field {field!r}: expression {text!r} uses "
                f"{type(node).__name__}, which is outside the clause "
                f"whitelist (names, constants, arithmetic, comparisons, "
                f"boolean logic, conditionals)"
            )
        if isinstance(node, ast.Name):
            if node.id not in names:
                names.append(node.id)
    code = compile(tree, filename=f"<{field}>", mode="eval")

    def evaluate(cfg: ExperimentConfig) -> Any:
        from repro.harness.study import config_value

        try:
            scope = {name: config_value(cfg, name) for name in names}
        except HarnessError as exc:
            raise JobSpecError(f"job spec field {field!r}: {exc}") from None
        return eval(code, {"__builtins__": {}}, scope)  # noqa: S307 - whitelisted AST

    evaluate.clause = text  # type: ignore[attr-defined]
    return evaluate


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _require_mapping(value: Any, field: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise JobSpecError(
            f"job spec field {field!r}: expected an object, got "
            f"{type(value).__name__}"
        )
    return value


def _require_int(value: Any, field: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise JobSpecError(
            f"job spec field {field!r}: expected an integer >= {minimum}, "
            f"got {value!r}"
        )
    return value


def _validate_base(base: Any) -> dict:
    base = _require_mapping(base, "base")
    for key in base:
        if key not in _CONFIG_FIELDS:
            raise JobSpecError(
                f"job spec field 'base.{key}': unknown config field "
                f"(choose from {', '.join(_CONFIG_FIELDS)})"
            )
    if "benchmark_params" in base:
        _require_mapping(base["benchmark_params"], "base.benchmark_params")
    return {k: base[k] for k in base}


def _validate_axis(entry: Any, index: int) -> dict:
    field = f"axes[{index}]"
    entry = _require_mapping(entry, field)
    kind = entry.get("kind")
    if kind not in _AXIS_KINDS:
        raise JobSpecError(
            f"job spec field '{field}.kind': expected one of "
            f"{_AXIS_KINDS}, got {kind!r}"
        )
    if kind in ("grid", "zip"):
        extra = set(entry) - {"kind", "axes"}
        if extra:
            raise JobSpecError(
                f"job spec field '{field}.{sorted(extra)[0]}': unknown key "
                f"for a {kind} axis (expected 'kind' and 'axes')"
            )
        axes = _require_mapping(entry.get("axes"), f"{field}.axes")
        if not axes:
            raise JobSpecError(
                f"job spec field '{field}.axes': a {kind} axis needs at "
                f"least one KEY: [values] entry"
            )
        clean: dict[str, list] = {}
        lengths = set()
        for key, values in axes.items():
            vfield = f"{field}.axes.{key}"
            if not isinstance(values, list) or not values:
                raise JobSpecError(
                    f"job spec field '{vfield}': expected a non-empty "
                    f"list of values, got {values!r}"
                )
            clean[str(key)] = list(values)
            lengths.add(len(values))
        if kind == "zip" and len(lengths) != 1:
            raise JobSpecError(
                f"job spec field '{field}.axes': zip axes must share a "
                f"length, got { {k: len(v) for k, v in clean.items()} }"
            )
        return {"kind": kind, "axes": clean}
    # cases
    extra = set(entry) - {"kind", "points"}
    if extra:
        raise JobSpecError(
            f"job spec field '{field}.{sorted(extra)[0]}': unknown key "
            f"for a cases axis (expected 'kind' and 'points')"
        )
    points = entry.get("points")
    if not isinstance(points, list) or not points:
        raise JobSpecError(
            f"job spec field '{field}.points': expected a non-empty list "
            f"of override objects, got {points!r}"
        )
    for j, point in enumerate(points):
        _require_mapping(point, f"{field}.points[{j}]")
    return {"kind": "cases", "points": [dict(p) for p in points]}


def validate_spec(spec: Any) -> dict:
    """Validate and normalize a job spec; raises :class:`JobSpecError`
    naming the offending field.

    Returns a normalized copy: defaults filled in (``kind``, ``base``,
    ``axes``, ``name``, ``description``), axis entries cleaned, clause
    expressions compile-checked.  The normalized dict is pure data —
    callers re-derive callables via :func:`spec_to_study`.
    """
    spec = _require_mapping(spec, "<root>")
    kind = spec.get("kind", "sweep")
    if kind not in ("sweep", "experiment"):
        raise JobSpecError(
            f"job spec field 'kind': expected 'sweep' or 'experiment', "
            f"got {kind!r}"
        )

    legal = _SWEEP_KEYS if kind == "sweep" else _EXPERIMENT_KEYS
    for key in spec:
        if key not in legal:
            raise JobSpecError(
                f"job spec field {key!r}: unknown key for a {kind} spec "
                f"(choose from {', '.join(sorted(legal))})"
            )

    out: dict[str, Any] = {"kind": kind}
    if spec.get("shard") is not None:
        shard = spec["shard"]
        try:
            parse_shard(str(shard))
        except ConfigurationError as exc:
            raise JobSpecError(f"job spec field 'shard': {exc}") from None
        out["shard"] = str(shard)
    if spec.get("reps") is not None:
        out["reps"] = _require_int(spec["reps"], "reps")

    if kind == "experiment":
        from repro.harness.experiments import EXPERIMENTS

        name = spec.get("experiment")
        if name not in EXPERIMENTS:
            raise JobSpecError(
                f"job spec field 'experiment': unknown experiment "
                f"{name!r} (choose from {', '.join(sorted(EXPERIMENTS))})"
            )
        if EXPERIMENTS[name].study_builder is None:
            raise JobSpecError(
                f"job spec field 'experiment': {name!r} does not declare "
                f"a study builder and cannot run as a service job"
            )
        out["experiment"] = name
        if spec.get("runs") is not None:
            out["runs"] = _require_int(spec["runs"], "runs")
        if spec.get("seed") is not None:
            out["seed"] = _require_int(spec["seed"], "seed", minimum=0)
        return out

    out["base"] = _validate_base(spec.get("base", {}))
    axes_raw = spec.get("axes", [])
    if not isinstance(axes_raw, list):
        raise JobSpecError(
            f"job spec field 'axes': expected a list of axis objects, "
            f"got {type(axes_raw).__name__}"
        )
    out["axes"] = [_validate_axis(entry, i) for i, entry in enumerate(axes_raw)]

    if spec.get("derive") is not None:
        derive = _require_mapping(spec["derive"], "derive")
        for key, text in derive.items():
            compile_clause(text, f"derive.{key}")
        out["derive"] = {str(k): v for k, v in derive.items()}
    if spec.get("where") is not None:
        where = spec["where"]
        if not isinstance(where, list):
            raise JobSpecError(
                f"job spec field 'where': expected a list of expression "
                f"strings, got {type(where).__name__}"
            )
        for j, text in enumerate(where):
            compile_clause(text, f"where[{j}]")
        out["where"] = list(where)

    out["name"] = str(spec.get("name", "sweep"))
    out["description"] = str(spec.get("description", "declarative CLI sweep"))

    # an unexpandable spec should fail at submit time, not inside a worker
    try:
        study = spec_to_study(out)
        if not study.configs():
            raise JobSpecError(
                "job spec field 'where': the filters select no "
                "configurations"
            )
    except (ConfigurationError, HarnessError) as exc:
        raise JobSpecError(f"job spec: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# Spec <-> Study
# ---------------------------------------------------------------------------

def spec_to_study(spec: Mapping[str, Any]) -> Study:
    """Build the :class:`Study` a validated *spec* describes.

    The construction mirrors the sweep CLI exactly — same base-config
    handling, same axis application order, same per-config ``reps``
    derivation — so identical parameters produce identical configs (and
    identical cache keys) whether they arrive as flags or as JSON.
    """
    if spec.get("kind") == "experiment":
        from repro.harness.experiments import EXPERIMENTS

        knobs: dict[str, Any] = {}
        if spec.get("runs") is not None:
            knobs["runs"] = spec["runs"]
        if spec.get("seed") is not None:
            knobs["seed"] = spec["seed"]
        if spec.get("reps") is not None:
            # one number maps onto whichever repetition knobs the builder
            # has, exactly like the CLI's --reps
            knobs["outer_reps"] = spec["reps"]
            knobs["num_times"] = spec["reps"]
        return EXPERIMENTS[spec["experiment"]].build_study(**knobs)

    base_fields = dict(spec.get("base", {}))
    try:
        base = ExperimentConfig(**base_fields)
    except (ConfigurationError, TypeError) as exc:
        raise JobSpecError(f"job spec field 'base': {exc}") from None
    study = Study(
        base,
        name=str(spec.get("name", "sweep")),
        description=str(spec.get("description", "declarative CLI sweep")),
    )
    for entry in spec.get("axes", []):
        if entry["kind"] == "grid":
            study = study.grid(**entry["axes"])
        elif entry["kind"] == "zip":
            study = study.zip(**entry["axes"])
        else:
            study = study.cases(*entry["points"])
    for key, text in (spec.get("derive") or {}).items():
        study = study.derive(**{key: compile_clause(text, f"derive.{key}")})
    for j, text in enumerate(spec.get("where") or []):
        study = study.where(compile_clause(text, f"where[{j}]"))
    if spec.get("reps") is not None:
        study = study.derive(benchmark_params=reps_derive(spec["reps"]))
    return study


def _axis_to_entry(axis) -> dict:
    """Serialize one internal ``_Axis``; grid/zip reconstruct their value
    lists, anything unreconstructable falls back to explicit points."""
    points = [dict(p) for p in axis.points]
    if axis.kind in ("grid", "zip"):
        values: dict[str, list] = {}
        for name in axis.names:
            seen: list = []
            for point in points:
                if name not in point:
                    break
                value = point[name]
                if axis.kind == "zip" or value not in seen:
                    seen.append(value)
            else:
                values[name] = seen
                continue
            break
        if len(values) == len(axis.names):
            candidate = {"kind": axis.kind, "axes": values}
            if axis.kind == "grid":
                rebuilt = [
                    dict(zip(axis.names, combo))
                    for combo in itertools.product(
                        *(values[n] for n in axis.names)
                    )
                ]
            else:
                rebuilt = [
                    dict(zip(axis.names, combo))
                    for combo in zip(*(values[n] for n in axis.names))
                ]
            if rebuilt == points:
                return candidate
    return {"kind": "cases", "points": points}


def spec_from_study(study: Study, *, fold: bool | None = None) -> dict:
    """Serialize *study* to a job spec whose expansion is byte-identical.

    Plain-axis studies serialize declaratively.  Studies carrying Python
    ``derive`` / ``where`` callables cannot ship them as JSON, so they
    fold: the expanded config list becomes one ``cases`` axis of full
    config dicts over an empty base (same configs, wider axis-name set —
    see the module docstring).  *fold* forces either behavior.
    """
    has_callables = bool(study._derived or study._predicates)
    if fold is None:
        fold = has_callables
    if has_callables and not fold:
        raise JobSpecError(
            f"study {study.name!r} carries Python derive/where callables; "
            f"serialize it folded (fold=True) or express the clauses as "
            f"spec expressions"
        )
    if fold:
        return {
            "kind": "sweep",
            "base": {},
            "axes": [{
                "kind": "cases",
                "points": [cfg.to_dict() for cfg in study.configs()],
            }],
            "name": study.name,
            "description": study.description,
        }
    return {
        "kind": "sweep",
        "base": study.base.to_dict(),
        "axes": [_axis_to_entry(axis) for axis in study._axes],
        "name": study.name,
        "description": study.description,
    }


def spec_fingerprint(study: Study) -> str:
    """Content fingerprint of a job: the SHA-256 over the sorted cache
    keys of the study's expanded configs.

    Two specs that expand to the same work share a fingerprint — the
    dedup key for in-flight sharing.  A pure function of config content
    (the cache keys are themselves SHA-256 over canonical config JSON):
    no clock, pid, hostname or entropy may enter here (DET005).
    """
    keys = sorted(cache_key(cfg) for cfg in study.configs())
    blob = json.dumps(keys, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
