"""LAY002 -- layering: imports must follow the package DAG downward.

The spine mirrors the paper's pipeline stages::

    geometry -> shapes -> network -> core -> {surface, runtime}
        -> {applications, evaluation, io} -> cli

A module may import from its own package or any *strictly lower* layer.
Upward edges and lateral edges between distinct same-rank packages are
both violations: the consumer layers above ``surface``/``runtime`` are
deliberately independent of each other, and ``surface`` and ``runtime``
never import one another.  Relative imports are resolved against the
importing module's package before ranking.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.context import ModuleContext, ProjectContext, layer_of
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Rule, register


def _top_package(module_name: str) -> Optional[str]:
    parts = module_name.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


def _resolve_relative(importer: str, module: Optional[str], level: int) -> Optional[str]:
    """Absolute dotted target of a ``from ... import`` statement."""
    if level == 0:
        return module
    base = importer.split(".")
    # level=1 strips the module segment, each extra level one package more.
    if len(base) < level:
        return None
    prefix = base[: len(base) - level]
    return ".".join(prefix + [module]) if module else ".".join(prefix)


@register
class LayeringRule(Rule):
    code = "LAY002"
    summary = "imports must follow the geometry->...->cli DAG with no upward or lateral edges"

    def check(self, module: ModuleContext, project: ProjectContext) -> Iterator[Diagnostic]:
        own_rank = layer_of(module.module_name)
        if own_rank is None:
            return
        own_pkg = _top_package(module.module_name)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                targets = [(alias.name, node.lineno) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                resolved = _resolve_relative(module.module_name, node.module, node.level)
                targets = [(resolved, node.lineno)] if resolved else []
            else:
                continue
            for target, lineno in targets:
                if not target or not target.startswith("repro"):
                    continue
                target_rank = layer_of(target)
                target_pkg = _top_package(target)
                if target_rank is None:
                    continue
                if target_pkg is not None and target_pkg == own_pkg:
                    continue  # intra-package imports are always fine
                if target_rank > own_rank:
                    yield self.diagnostic(
                        module,
                        lineno,
                        f"upward import: {module.module_name} (layer {own_rank}) "
                        f"imports {target} (layer {target_rank})",
                    )
                elif target_rank == own_rank:
                    yield self.diagnostic(
                        module,
                        lineno,
                        f"lateral import between same-layer packages: "
                        f"{module.module_name} imports {target}",
                    )
