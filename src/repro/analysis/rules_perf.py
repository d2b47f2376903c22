"""Hot-path contract rules: PERF001 (``__slots__`` discipline), PERF002
(no per-iteration closure allocation), PERF003 (no per-repetition
Python loops in fused-path code) and PERF004 (no loop-invariant
container rebuilds inside loops).

The PR 5 engine overhaul bought its 2.2-2.8x by making the event loop
allocation-free: slotted instances and one reusable trampoline per
process; the fused rep-axis engine (:mod:`repro.sim.fused`) bought its
speedup by turning the repetition axis into an array dimension.  These
rules keep both disciplines from eroding as the hot modules grow.
"""

from __future__ import annotations

import ast

from repro.analysis.context import FileContext
from repro.analysis.registry import Reporter, Rule, register_rule
from repro.analysis.visitor import WalkState

#: The simulation hot path: every instance attribute read/write and every
#: allocation in these packages happens O(events) times per run.
HOT_PACKAGES = ("sim", "omp.tasking")

#: Base-class names that make __slots__ pointless or impossible.
_EXEMPT_BASES = {
    "Exception", "BaseException", "Enum", "IntEnum", "StrEnum", "Flag",
    "NamedTuple", "Protocol", "TypedDict", "type", "ABC",
}


def _base_name(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Subscript):  # Generic[...] / Protocol[...]
        return _base_name(node.value)
    return ""


def _declares_slots(node: ast.ClassDef) -> bool:
    for item in node.body:
        if isinstance(item, ast.Assign):
            targets = [t.id for t in item.targets if isinstance(t, ast.Name)]
            if "__slots__" in targets:
                return True
        elif isinstance(item, ast.AnnAssign):
            if isinstance(item.target, ast.Name) and item.target.id == "__slots__":
                return True
    return False


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else ""
        )
        if name == "dataclass":
            return deco
    return None


@register_rule
class SlotsDiscipline(Rule):
    """PERF001: hot-path classes must declare ``__slots__``."""

    id = "PERF001"
    title = "hot-path classes must declare __slots__"
    rationale = (
        "Instances in sim/ and omp/tasking/ are touched O(events) times "
        "per run; a __dict__-backed attribute read is a hash lookup where "
        "a slotted one is an indexed load, and every un-slotted instance "
        "costs ~3x the memory.  The PR 5 speedups assumed (and the bench "
        "trajectory tracks) slotted hot-path objects."
    )
    fix_hint = (
        "add __slots__ = (...) to the class, or slots=True to its "
        "@dataclass decorator"
    )
    packages = HOT_PACKAGES
    node_types = (ast.ClassDef,)

    def visit(
        self, node: ast.ClassDef, ctx: FileContext, state: WalkState,
        report: Reporter,
    ) -> None:
        base_names = {_base_name(b) for b in node.bases}
        if base_names & _EXEMPT_BASES or any(
            name.endswith(("Error", "Exception", "Warning")) for name in base_names
        ):
            return
        if _declares_slots(node):
            return
        deco = _dataclass_decorator(node)
        if deco is not None:
            if isinstance(deco, ast.Call) and any(
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in deco.keywords
            ):
                return
            report(
                node,
                f"hot-path dataclass {node.name!r} lacks slots=True",
                fix_hint="add slots=True to the @dataclass(...) decorator",
            )
            return
        report(node, f"hot-path class {node.name!r} declares no __slots__")


@register_rule
class NoClosureInLoop(Rule):
    """PERF002: no closure/lambda allocation inside hot-path loops."""

    id = "PERF002"
    title = "no per-iteration closure/lambda allocation in hot loops"
    rationale = (
        "A lambda or def inside a for/while body allocates a fresh "
        "function object every iteration.  On the event hot path that "
        "was the dominant allocation churn before PR 5 (one lambda per "
        "process step); the engine now binds one trampoline per process "
        "precisely to avoid it, and new per-event closures would undo "
        "that win invisibly."
    )
    fix_hint = (
        "hoist the function out of the loop and bind loop variables via "
        "default arguments, or store a reusable callable on the object "
        "(the Process.resume trampoline pattern)"
    )
    packages = HOT_PACKAGES
    node_types = (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(
        self, node: ast.AST, ctx: FileContext, state: WalkState,
        report: Reporter,
    ) -> None:
        if state.loop_depth == 0:
            return
        kind = (
            "lambda" if isinstance(node, ast.Lambda)
            else f"nested function {node.name!r}"
        )
        report(
            node,
            f"{kind} is allocated on every iteration of an enclosing "
            f"hot-path loop",
        )


#: Identifiers that name the repetition/run count.  A ``for`` loop over
#: ``range(<one of these>)`` in fused-path code walks the rep axis in
#: Python — exactly the scalar-engine shape the fused plane exists to
#: replace.
_REP_COUNT_NAMES = frozenset({
    "runs", "n_runs", "num_runs", "outer_reps", "num_times", "reps", "n_reps",
})

#: The module that *is* the fused engine; every loop over the rep axis
#: inside it is suspect regardless of function naming.
_FUSED_MODULE = ("repro", "sim", "fused")


def _range_rep_name(iter_node: ast.AST) -> str | None:
    """The rep-count identifier a ``range(...)`` iteration consumes.

    Returns the offending name when *iter_node* is a ``range(...)`` call
    whose arguments mention a :data:`_REP_COUNT_NAMES` identifier
    (directly, as an attribute like ``config.runs``, or inside arithmetic
    such as ``range(n_reps - 1)``); ``None`` otherwise.  Loops over
    ``range(out.shape[1])``, ``np.flatnonzero(...)``, ``enumerate(...)``
    or plain collections never match — the fused engine's sanctioned
    sequential loops (time-coupled *steps*, not repetitions) use exactly
    those shapes.
    """
    if not isinstance(iter_node, ast.Call):
        return None
    func = iter_node.func
    if not (isinstance(func, ast.Name) and func.id == "range"):
        return None
    for arg in list(iter_node.args) + [kw.value for kw in iter_node.keywords]:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Name) and sub.id in _REP_COUNT_NAMES:
                return sub.id
            if isinstance(sub, ast.Attribute) and sub.attr in _REP_COUNT_NAMES:
                return sub.attr
    return None


@register_rule
class NoRepLoopInFusedPath(Rule):
    """PERF003: no per-repetition Python ``for`` loops in fused-path code."""

    id = "PERF003"
    title = "no per-repetition Python loops in fused-path scopes"
    rationale = (
        "The fused rep-axis engine earns its speedup by evaluating all "
        "repetitions of a run as one (R, ...)-shaped array program; a "
        "Python `for` over range(runs/outer_reps/num_times/...) inside "
        "repro.sim.fused or a *_fused function reintroduces the scalar "
        "per-rep interpreter loop the plane exists to replace, and the "
        "regression is invisible because results stay byte-identical."
    )
    fix_hint = (
        "vectorize over the rep axis (RepStreams draws, (R, n) array "
        "ops); a genuinely sequential *step* loop (time-coupled "
        "iterations) should iterate range(out.shape[1]) over a "
        "pre-drawn (R, steps) array instead of a rep-count name"
    )
    packages = None  # fused scopes are named, not package-bound
    node_types = (ast.For,)

    def visit(
        self, node: ast.For, ctx: FileContext, state: WalkState,
        report: Reporter,
    ) -> None:
        in_fused_module = ctx.module_parts == _FUSED_MODULE
        in_fused_function = any(
            name.endswith("_fused") for name in state.scope_stack
        )
        if not (in_fused_module or in_fused_function):
            return
        name = _range_rep_name(node.iter)
        if name is None:
            return
        where = (
            "repro.sim.fused" if in_fused_module
            else f"fused-path function {state.scope_name()!r}"
        )
        report(
            node,
            f"per-repetition loop over range({name}) in {where} walks "
            f"the rep axis in Python",
        )


#: Container constructors whose call copies their argument in full.
_REBUILT_CONTAINERS = frozenset({"set", "list", "dict"})

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SCOPE_BOUNDARIES = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda,
)


def _root_name(node: ast.AST) -> str | None:
    """``a`` for ``a``, ``a.b.c`` and ``a[i].b``; ``None`` otherwise."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _names_bound(nodes: list[ast.AST]) -> set[str]:
    """Names a loop rebinds or mutates on every iteration: targets of
    assignments, ``for`` targets, walrus targets, ``del`` statements, and
    receivers of method calls or item stores (``a.append(x)``,
    ``a[k] = v``), all by their root name."""
    out: set[str] = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, (ast.Name, ast.Attribute, ast.Subscript)):
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    root = _root_name(node)
                    if root is not None:
                        out.add(root)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                root = _root_name(node.func.value)
                if root is not None:
                    out.add(root)
    return out


def _loop_varying(parents: list[ast.AST], call: ast.AST) -> set[str] | None:
    """Names that vary per iteration of the innermost loop that evaluates
    *call* once per iteration, or ``None`` when no loop in the enclosing
    scope does (a ``for`` iterable or a comprehension's first iterable is
    evaluated once, before the loop starts)."""
    child = call
    for i in range(len(parents) - 1, -1, -1):
        parent = parents[i]
        if isinstance(parent, _SCOPE_BOUNDARIES):
            return None
        if isinstance(parent, (ast.For, ast.AsyncFor)):
            if child in parent.body:
                return _names_bound([parent.target, *parent.body])
        elif isinstance(parent, ast.While):
            if child is parent.test or child in parent.body:
                return _names_bound(parent.body)
        elif isinstance(parent, _COMPREHENSIONS):
            if child is not parent.generators[0]:
                # the element: evaluated per item
                return _names_bound(parent.generators)
        elif isinstance(parent, ast.comprehension):
            owner = parents[i - 1]
            if child is not parent.iter or parent is not owner.generators[0]:
                # a condition, or a later generator's iterable: per item
                return _names_bound(owner.generators)
        child = parent
    return None


@register_rule
class NoInvariantRebuildInLoop(Rule):
    """PERF004: no loop-invariant ``set/list/dict(...)`` rebuilt per iteration."""

    id = "PERF004"
    title = "no loop-invariant set/list/dict rebuilt inside a loop"
    rationale = (
        "A set(...), list(...) or dict(...) conversion copies its whole "
        "argument.  Inside a loop body or a comprehension condition whose "
        "loop never changes that argument, the copy is rebuilt on every "
        "iteration for the same result: `c not in set(same_numa)` inside "
        "a comprehension over a 256-cpu pool made wakeup placement "
        "quadratic in machine size.  The cost hides in the per-iteration "
        "constant, so results never reveal it."
    )
    fix_hint = (
        "build the container once before the loop (or cache it on the "
        "object when its input is frozen) and reuse it inside"
    )
    packages = None
    node_types = (ast.Call,)

    def visit(
        self, node: ast.Call, ctx: FileContext, state: WalkState,
        report: Reporter,
    ) -> None:
        func = node.func
        if not (isinstance(func, ast.Name) and func.id in _REBUILT_CONTAINERS):
            return
        if len(node.args) != 1 or node.keywords:
            return
        arg = node.args[0]
        if any(
            isinstance(sub, (ast.Call, ast.NamedExpr, ast.Lambda, *_COMPREHENSIONS))
            for sub in ast.walk(arg)
        ):
            return  # may differ between evaluations even with fixed names
        varying = _loop_varying(state.parents, node)
        if varying is None:
            return
        names = {
            sub.id for sub in ast.walk(arg) if isinstance(sub, ast.Name)
        }
        if names & varying:
            return
        report(
            node,
            f"{func.id}({ast.unparse(arg)}) is rebuilt on every iteration "
            f"of a loop that never changes its argument",
        )
