"""repro.analysis: AST-based static analysis for the reproduction.

A dependency-free (stdlib-``ast``) lint subsystem that mechanically
enforces the invariants the paper's claims rest on:

* **LOC001** locality -- ``repro.core`` / ``repro.surface`` never read
  ground truth (that is what makes the algorithm *localized*);
* **LAY002** layering -- imports follow the
  ``geometry -> ... -> cli`` DAG with no upward edges;
* **RNG003** reproducibility -- randomness flows through seeded
  ``np.random.Generator`` parameters;
* **MUT004** mutable default arguments;
* **EXC005** bare / over-broad ``except``;
* **CFG006** config keys must exist on the dataclasses in
  ``repro/core/config.py``;
* **DET007** no set iteration / unsorted filesystem enumeration in
  ranked layers;
* **PAR008** functions submitted to a pool must not mutate module
  globals;
* **FLT009** no exact float ``==``/``!=`` or float reductions over
  unordered collections in ranked layers;
* **TRC010** tracer spans entered with ``with``; metric names keep one
  kind.

Run as ``repro-lint <paths>`` or ``python -m repro.analysis <paths>``.
Per-line escape hatch: ``# lint: allow[CODE] -- justification``.
See ``docs/STATIC_ANALYSIS.md`` for the full catalogue.

The dynamic half of the sanitizer lives in
:mod:`repro.analysis.sanitize` (``repro-san``): it re-runs a pinned
scenario across hash seeds and worker counts and byte-diffs the outputs.
"""

from repro.analysis.cli import main
from repro.analysis.configschema import ConfigSchema, extract_config_schema
from repro.analysis.context import LAYER_RANKS, ModuleContext, ProjectContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import lint_paths, lint_source
from repro.analysis.registry import Rule, iter_rules, register

__all__ = [
    "ConfigSchema",
    "Diagnostic",
    "LAYER_RANKS",
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "extract_config_schema",
    "iter_rules",
    "lint_paths",
    "lint_source",
    "main",
    "register",
]
