"""Per-module and per-project context handed to lint rules.

A :class:`ModuleContext` bundles everything a rule may need about one
source file: its path, its dotted module name (resolved by walking up
``__init__.py`` markers), the parsed AST, the raw source, and the per-line
suppression table.  A :class:`ProjectContext` carries whole-tree facts --
today only the configuration schema extracted from
``repro/core/config.py`` (see :mod:`repro.analysis.configschema`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Optional

from repro.analysis.configschema import ConfigSchema
from repro.analysis.suppressions import collect_suppressions

#: Layer ranks of the import DAG (lower may never import higher).  The
#: paper's pipeline fixes the spine geometry -> network -> core -> surface;
#: ``shapes`` (ground-truth region generators) sits below ``network`` which
#: samples deployments from it.  ``runtime`` (the message-passing simulator
#: and the paper's loss-free protocols) ranks alongside ``surface``: tests
#: and benches drive its protocols against the centralized code, and it
#: never imports the layers above it.
#: The consumer layers -- applications, evaluation, io -- sit side by side
#: above with no lateral edges, so any of them can be deleted without
#: touching the others.  ``service`` (the durable job queue and
#: worker pool) drives full pipeline runs *through* the evaluation layer,
#: so it sits above the consumers; ``cli`` and the lint subsystem are
#: topmost.  ``observability`` (stdlib-only tracing/metrics) ranks *below*
#: the whole spine: every layer may emit spans and metrics, so the one
#: legal position for the subsystem is underneath ``geometry``, importing
#: nothing.
LAYER_RANKS: Dict[str, int] = {
    "observability": -1,
    "geometry": 0,
    "shapes": 1,
    "network": 2,
    "core": 3,
    "surface": 4,
    "runtime": 4,
    "applications": 5,
    "evaluation": 5,
    "io": 5,
    "service": 6,
    "cli": 7,
    "analysis": 7,
}

#: Rank assigned to the package root (``repro/__init__.py``): it re-exports
#: the public API and therefore sits above everything.
ROOT_RANK = 8


def resolve_module_name(path: Path) -> str:
    """Dotted module name of ``path``, walking up ``__init__.py`` markers.

    ``src/repro/core/ubf.py`` -> ``repro.core.ubf``;
    ``src/repro/core/__init__.py`` -> ``repro.core``.  A file outside any
    package resolves to its bare stem.
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        if parent.parent == parent:
            break
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def layer_of(module_name: str) -> Optional[int]:
    """Rank of a ``repro.*`` module in the layering DAG, None if exempt."""
    parts = module_name.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return ROOT_RANK
    return LAYER_RANKS.get(parts[1])


@dataclass
class ModuleContext:
    """Everything rules know about one source file."""

    path: str
    module_name: str
    source: str
    tree: ast.Module
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    @classmethod
    def from_source(
        cls, source: str, *, path: str = "<string>", module_name: str = "<module>"
    ) -> "ModuleContext":
        return cls(
            path=path,
            module_name=module_name,
            source=source,
            tree=ast.parse(source),
            suppressions=collect_suppressions(source),
        )

    @classmethod
    def from_file(cls, file_path: Path, *, display_path: Optional[str] = None) -> "ModuleContext":
        source = file_path.read_text(encoding="utf-8")
        return cls.from_source(
            source,
            path=display_path if display_path is not None else str(file_path),
            module_name=resolve_module_name(file_path),
        )


@dataclass
class ProjectContext:
    """Whole-tree facts shared by all modules in one lint run."""

    config_schema: Optional[ConfigSchema] = None
