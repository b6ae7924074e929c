"""PAR008 -- no module-global mutation in functions run on a pool.

``run_frames_parallel`` (and the stdlib executor APIs underneath it)
promises byte-identical results for any worker count.  Its shards run on
threads of one process and share everything that process holds, so a
function submitted to a pool that assigns to, or calls a mutator on, a
module-level binding is a data race: concurrent writes interleave, and
results can depend on which thread ran which shard.  Shards must return
their state explicitly; a justified ``# lint: allow[PAR008]`` marks a
write that is safe by construction.

Payload sinks recognized: ``<pool|executor>.map/submit/imap/
imap_unordered/apply/apply_async/starmap``, where the first positional
argument names a function (or method) defined in the same module.
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


def _functions_by_name(tree: ast.Module) -> Dict[str, List[ast.FunctionDef]]:
    """Every function, method and nested def in the module, by name."""
    functions: Dict[str, List[ast.FunctionDef]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            functions.setdefault(node.name, []).append(node)
    return functions


def _payload_sites(tree: ast.Module) -> Iterator[Tuple[ast.expr, str]]:
    """Yield ``(payload_expr, sink_description)`` for every pool sink."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in POOL_METHODS):
            continue
        # ``ThreadPoolExecutor(...).map(...)``: name the pool by its
        # constructor.
        value = func.value.func if isinstance(func.value, ast.Call) else func.value
        receiver = _final_identifier(value)
        if receiver is not None and any(
            hint in receiver.lower() for hint in POOL_RECEIVER_HINTS
        ):
            yield node.args[0], f"{receiver}.{func.attr}()"


@register
class ParallelSafetyRule(Rule):
    code = "PAR008"
    summary = "functions submitted to a pool must not mutate module globals"

    def check(self, module: ModuleContext, project: ProjectContext) -> Iterator[Diagnostic]:
        functions = _functions_by_name(module.tree)
        globals_ = _module_level_bindings(module.tree)
        seen: Set[str] = set()
        for payload, sink in _payload_sites(module.tree):
            name = _final_identifier(payload)
            if name is None or name in seen or name not in functions:
                continue
            seen.add(name)
            for fn in functions[name]:
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
                f"function '{fn_name}' (passed to {sink}) mutates module "
                f"global '{name}'; pool threads share it, so concurrent "
                "writes race -- return state explicitly",
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
