"""PAR008 -- fork/pickle safety for pool payloads and worker functions.

``run_sharded`` (and the stdlib pool APIs underneath it) promises
byte-identical results for any worker count.  That promise survives only
if everything shipped to a worker process round-trips through pickle and
carries no hidden shared state.  Three patterns break it:

* **Lambdas as pool payloads.**  ``pool.map(lambda ...)`` raises under the
  ``spawn`` start method and silently relies on ``fork`` elsewhere --
  either way the payload is not a stable, picklable unit of work.
* **Nested functions as pool payloads.**  A function defined inside
  another function closure-captures its environment (commonly an
  ``np.random.Generator`` or a ``Tracer``); pickle cannot serialize the
  closure, and under ``fork`` each worker gets a *copy* whose mutations
  (RNG state advances, recorded spans) never propagate back.
* **Module-global mutation inside worker functions.**  A function passed
  to a pool (payload or ``initializer=``) that assigns to, or calls a
  mutator on, a module-level binding builds per-process state.  The
  parent never sees those writes, so results can depend on which worker
  ran which shard.  The one sanctioned idiom -- installing a read-only
  payload once per worker from the pool initializer -- must carry a
  justified ``# lint: allow[PAR008]``.

Payload sinks recognized: ``<pool|executor>.map/submit/imap/
imap_unordered/apply/apply_async/starmap``, the ``initializer=`` /
``target=`` keywords of ``ProcessPoolExecutor`` / ``Pool`` / ``Process``
constructors, and the sharded drivers ``run_sharded`` /
``run_frames_parallel``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.context import ModuleContext, ProjectContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Rule, register

#: Method names that submit work to a pool-like receiver.
POOL_METHODS = frozenset(
    {"map", "submit", "imap", "imap_unordered", "apply", "apply_async", "starmap"}
)

#: Receiver identifiers (final segment, lowercased) treated as pools.
POOL_RECEIVER_HINTS = ("pool", "executor")

#: Constructors whose keywords carry worker functions.
POOL_CONSTRUCTORS = frozenset({"ProcessPoolExecutor", "Pool", "Process"})
POOL_CONSTRUCTOR_KEYWORDS = frozenset({"initializer", "target"})

#: Sharded drivers from :mod:`repro.core.parallel`; the first positional
#: argument is the (picklable) task payload.
SHARDED_DRIVERS = frozenset({"run_sharded", "run_frames_parallel"})

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)


def _final_identifier(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _module_level_bindings(tree: ast.Module) -> Set[str]:
    """Names bound by assignments at module top level."""
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


def _function_index(
    tree: ast.Module,
) -> Tuple[Dict[str, ast.FunctionDef], Set[str]]:
    """(module-level defs by name, names of nested defs)."""
    top_level: Dict[str, ast.FunctionDef] = {}
    nested: Set[str] = set()

    def walk(node: ast.AST, depth: int) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if depth == 0 and isinstance(child, ast.FunctionDef):
                    top_level[child.name] = child
                elif depth > 0:
                    nested.add(child.name)
                walk(child, depth + 1)
            elif isinstance(child, ast.ClassDef):
                # Methods keep the enclosing depth: a depth-0 method used as
                # a payload is picklable (via its instance) but still gets
                # the global-mutation check; it is never a "nested" closure.
                walk(child, depth)
            else:
                walk(child, depth)

    walk(tree, 0)
    return top_level, nested


def _payload_sites(tree: ast.Module) -> Iterator[Tuple[ast.expr, str]]:
    """Yield ``(payload_expr, sink_description)`` for every pool sink."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in POOL_METHODS:
            receiver = _final_identifier(func.value)
            if receiver is not None and any(
                hint in receiver.lower() for hint in POOL_RECEIVER_HINTS
            ):
                if node.args:
                    yield node.args[0], f"{receiver}.{func.attr}()"
        name = _final_identifier(func)
        if name in POOL_CONSTRUCTORS:
            for keyword in node.keywords:
                if keyword.arg in POOL_CONSTRUCTOR_KEYWORDS:
                    yield keyword.value, f"{name}({keyword.arg}=...)"
        elif name in SHARDED_DRIVERS and node.args:
            yield node.args[0], f"{name}()"


@register
class ParallelSafetyRule(Rule):
    code = "PAR008"
    summary = (
        "pool payloads must be module-level picklable functions that do "
        "not mutate module globals"
    )

    def check(self, module: ModuleContext, project: ProjectContext) -> Iterator[Diagnostic]:
        top_level, nested = _function_index(module.tree)
        globals_ = _module_level_bindings(module.tree)
        worker_fns: List[Tuple[str, ast.FunctionDef, str]] = []
        seen_workers: Set[str] = set()

        for payload, sink in _payload_sites(module.tree):
            if isinstance(payload, ast.Lambda):
                yield self.diagnostic(
                    module,
                    payload.lineno,
                    f"lambda passed to {sink}: lambdas cannot be pickled to "
                    "worker processes; define the worker at module level",
                )
                continue
            name = _final_identifier(payload)
            if name is None:
                continue
            if name in nested and name not in top_level:
                yield self.diagnostic(
                    module,
                    payload.lineno,
                    f"nested function '{name}' passed to {sink}: closures "
                    "(captured rng/tracer state included) do not pickle and "
                    "fork-copied state never propagates back; define the "
                    "worker at module level",
                )
            elif name in top_level and name not in seen_workers:
                seen_workers.add(name)
                worker_fns.append((name, top_level[name], sink))

        for name, fn, sink in worker_fns:
            yield from self._check_global_mutation(module, name, fn, sink, globals_)

    def _check_global_mutation(
        self,
        module: ModuleContext,
        fn_name: str,
        fn: ast.FunctionDef,
        sink: str,
        globals_: Set[str],
    ) -> Iterator[Diagnostic]:
        declared_global: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        mutable = globals_ | declared_global

        def flag(lineno: int, name: str) -> Diagnostic:
            return self.diagnostic(
                module,
                lineno,
                f"worker function '{fn_name}' (passed to {sink}) mutates "
                f"module global '{name}'; worker-process writes never reach "
                "the parent -- return state explicitly",
            )

        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    name = self._mutated_global(target, mutable, declared_global)
                    if name is not None:
                        yield flag(node.lineno, name)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATOR_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in mutable
            ):
                yield flag(node.lineno, node.func.value.id)

    @staticmethod
    def _mutated_global(
        target: ast.expr, mutable: Set[str], declared_global: Set[str]
    ) -> Optional[str]:
        # x = ... rebinds a local unless declared global; x[k] = ... and
        # x.attr = ... mutate whatever module-level object x names.
        if isinstance(target, ast.Name) and target.id in declared_global:
            return target.id
        if isinstance(target, (ast.Subscript, ast.Attribute)) and isinstance(
            target.value, ast.Name
        ):
            if target.value.id in mutable:
                return target.value.id
        return None
