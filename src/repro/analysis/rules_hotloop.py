"""Hot-loop purity rules (HOT001-HOT003).

The seven profiled stages (``compute_step``/``advance``/``stripe_sum``/
``wir_update``/``gossip_round``/``lb_decide``/``lb_apply``) execute once per
iteration per replica; the paper-scale campaigns run millions of such
iterations.  PR 5's large-P work got its speedups almost entirely by
removing Python-level loops and per-iteration allocations from these
regions -- these rules keep them out.

The regions are declared in :data:`HOT_REGIONS` as ``Class.method`` names
per file, each in one of two modes:

* ``"loop"`` -- only code inside the function's outermost ``for`` (the
  iteration loop itself is the boundary; setup/teardown around it is free);
* ``"body"`` -- the whole function is hot (per-iteration helpers).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.analysis.framework import FileContext, LintRule, register_rule
from repro.analysis.rules_determinism import _collect_imports, _qualified

__all__ = ["HOT_REGIONS", "HotLoopPythonLoopRule", "HotLoopCopyRule", "HotLoopAllocationRule"]

#: file (package-relative) -> {qualified function name -> "loop" | "body"}.
HOT_REGIONS: Dict[str, Dict[str, str]] = {
    "repro/batch/runner.py": {
        "BatchRunner.run": "loop",
        "BatchRunner._stripe_loads": "body",
        "BatchRunner._stripe_loads_all": "body",
        "BatchRunner._fill_columns": "body",
        "BatchRunner._build_context": "body",
        "BatchRunner._execute_lb_steps": "body",
    },
}

#: numpy constructors that allocate a fresh array per call.
_NP_ALLOCATORS = frozenset(
    {
        "zeros",
        "ones",
        "empty",
        "full",
        "zeros_like",
        "ones_like",
        "empty_like",
        "full_like",
        "arange",
        "linspace",
        "concatenate",
        "stack",
        "vstack",
        "hstack",
        "column_stack",
        "tile",
        "repeat",
        "copy",
        "array",
        "asarray",
        "eye",
    }
)


def _qualified_functions(
    tree: ast.Module,
) -> Iterator[Tuple[str, Union[ast.FunctionDef, ast.AsyncFunctionDef]]]:
    """Yield ``("Class.method" | "function", node)`` for every def."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _outermost_for(func: ast.AST) -> Optional[ast.For]:
    """First ``for`` statement in DFS statement order (the iteration loop)."""

    def scan(body: List[ast.stmt]) -> Optional[ast.For]:
        for stmt in body:
            if isinstance(stmt, ast.For):
                return stmt
            for attr in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, attr, None)
                if inner:
                    found = scan(inner)
                    if found is not None:
                        return found
            handlers = getattr(stmt, "handlers", None)
            if handlers:
                for handler in handlers:
                    found = scan(handler.body)
                    if found is not None:
                        return found
        return None

    return scan(getattr(func, "body", []))


def _region_nodes(ctx: FileContext) -> Iterator[ast.AST]:
    """Every AST node inside a hot region of this file."""
    regions = HOT_REGIONS.get(ctx.module_path)
    if not regions:
        return
    for name, func in _qualified_functions(ctx.tree):
        mode = regions.get(name)
        if mode is None:
            continue
        if mode == "loop":
            loop = _outermost_for(func)
            if loop is None:
                continue
            roots: List[ast.stmt] = list(loop.body) + list(loop.orelse)
        else:
            roots = list(func.body)
        for root in roots:
            yield from ast.walk(root)


@register_rule
class HotLoopPythonLoopRule(LintRule):
    rule_id = "HOT001"
    name = "python-loop-in-hot-stage"
    severity = "error"
    rationale = (
        "A Python-level `for`/`while` inside a profiled stage iterates once "
        "per PE or replica per iteration -- the O(P*R*T) interpreter cost "
        "that PR 5's vectorization removed. Express the stage as numpy "
        "array ops; if a loop is provably O(small-constant), suppress with "
        "the bound in the justification."
    )

    def check(self, ctx: FileContext) -> None:
        for node in _region_nodes(ctx):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                ctx.report(
                    node,
                    "Python loop inside a profiled hot stage; vectorize "
                    "over PEs/replicas with array ops",
                )


@register_rule
class HotLoopCopyRule(LintRule):
    rule_id = "HOT002"
    name = "copy-in-hot-stage"
    severity = "error"
    rationale = (
        "`list(...)` and `.tolist()` materialize a Python object per "
        "element on every iteration; hot stages must stay in array land "
        "(ints/floats out of `.item()` or scalar indexing are fine)."
    )

    def check(self, ctx: FileContext) -> None:
        for node in _region_nodes(ctx):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "list":
                ctx.report(
                    node,
                    "`list(...)` copy inside a profiled hot stage",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "tolist"
            ):
                ctx.report(
                    node,
                    "`.tolist()` copy inside a profiled hot stage",
                )


@register_rule
class HotLoopAllocationRule(LintRule):
    rule_id = "HOT003"
    name = "allocation-in-hot-stage"
    severity = "warning"
    rationale = (
        "Fresh numpy arrays and comprehensions inside a profiled stage "
        "allocate on every iteration; preallocate buffers in __init__ and "
        "write in place (`out=`, slice assignment). Warning severity: some "
        "allocations are once-per-LB-step, not once-per-iteration -- "
        "suppress those with the cadence in the justification."
    )

    def check(self, ctx: FileContext) -> None:
        modules, members = _collect_imports(ctx.tree)
        for node in _region_nodes(ctx):
            if isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                ctx.report(
                    node,
                    "comprehension allocates per iteration inside a "
                    "profiled hot stage",
                )
            elif isinstance(node, ast.Call):
                qualified = _qualified(node.func, modules, members)
                if qualified is None:
                    continue
                parts = qualified.split(".")
                if (
                    len(parts) == 2
                    and parts[0] == "numpy"
                    and parts[1] in _NP_ALLOCATORS
                ):
                    ctx.report(
                        node,
                        f"`np.{parts[1]}(...)` allocates inside a profiled "
                        "hot stage; preallocate and write in place",
                    )
