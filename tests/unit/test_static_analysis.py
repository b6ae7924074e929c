"""Unit tests for the repro-lint subsystem (repro.analysis).

Every rule LOC001..CFG006 gets at least one triggering fixture and one
passing fixture; the ``# lint: allow[...]`` escape hatch is checked for
exact-code suppression; and a gate test runs the full linter over ``src/``
so new violations fail CI instead of accumulating.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import extract_config_schema, iter_rules, lint_paths, lint_source
from repro.analysis.cli import main as lint_main
from repro.analysis.context import resolve_module_name
from repro.analysis.suppressions import collect_suppressions

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

CONFIG_SOURCE = textwrap.dedent(
    """
    from dataclasses import dataclass, field
    from typing import Optional

    @dataclass(frozen=True)
    class UBFConfig:
        epsilon: float = 1e-3
        ball_radius: Optional[float] = None

        @property
        def radius(self) -> float:
            return self.ball_radius or 1.0 + self.epsilon

    @dataclass(frozen=True)
    class DetectorConfig:
        ubf: UBFConfig = field(default_factory=UBFConfig)
        localization: str = "auto"

        def resolved_localization(self) -> str:
            return self.localization
    """
)


def codes(diags):
    return [d.code for d in diags]


def lint(source, module_name="repro.evaluation.example", **kw):
    return lint_source(textwrap.dedent(source), module_name=module_name, **kw)


# ---------------------------------------------------------------- LOC001


def test_loc001_flags_ground_truth_attribute_in_core():
    diags = lint(
        """
        def f(network):
            return network.positions
        """,
        module_name="repro.core.ubf",
    )
    assert codes(diags) == ["LOC001"]
    assert "positions" in diags[0].message


def test_loc001_flags_truth_and_forbidden_imports_in_surface():
    diags = lint(
        """
        from repro.shapes import library

        def f(network):
            return network.truth_boundary
        """,
        module_name="repro.surface.mesh",
    )
    assert sorted(codes(diags)).count("LOC001") == 2


def test_loc001_silent_outside_localized_layers():
    diags = lint(
        """
        from repro.shapes import library

        def f(network):
            return network.positions
        """,
        module_name="repro.evaluation.metrics",
    )
    assert "LOC001" not in codes(diags)


# ---------------------------------------------------------------- LAY002


def test_lay002_flags_upward_import():
    diags = lint(
        "from repro.surface.mesh import TriangularMesh\n",
        module_name="repro.network.graph",
    )
    assert codes(diags) == ["LAY002"]
    assert "upward" in diags[0].message


def test_lay002_flags_lateral_import_between_consumer_packages():
    diags = lint(
        "import repro.io.meshio\n",
        module_name="repro.evaluation.reporting",
    )
    assert codes(diags) == ["LAY002"]
    assert "lateral" in diags[0].message


def test_lay002_allows_downward_and_intra_package_imports():
    diags = lint(
        """
        from repro.geometry.primitives import foo
        from repro.network.graph import NetworkGraph
        from repro.core.config import UBFConfig
        """,
        module_name="repro.core.pipeline",
    )
    assert diags == []


def test_lay002_cli_may_import_everything():
    diags = lint(
        """
        from repro.evaluation.experiments import run_scenario
        from repro.core.pipeline import BoundaryDetector
        """,
        module_name="repro.cli",
    )
    assert diags == []


# ---------------------------------------------------------------- RNG003


def test_rng003_flags_module_level_calls():
    diags = lint(
        """
        import numpy as np
        import random

        JITTER = np.random.uniform(0, 1)
        SHUFFLED = random.random()
        """
    )
    assert codes(diags) == ["RNG003", "RNG003"]


def test_rng003_flags_unseeded_default_rng_and_global_seed():
    diags = lint(
        """
        import numpy as np
        from numpy.random import default_rng

        def f():
            np.random.seed(0)
            return default_rng()
        """
    )
    assert codes(diags) == ["RNG003", "RNG003"]


def test_rng003_defaults_and_decorators_execute_at_import_time():
    # ``def f(x=np.random.rand())`` runs the call when the module is
    # imported, not when f is called -- it must count as module level.
    diags = lint(
        """
        import numpy as np

        def f(x=np.random.rand()):
            return x
        """
    )
    assert codes(diags) == ["RNG003"]
    assert "module-level" in diags[0].message

    diags = lint(
        """
        import numpy as np

        def tag(value):
            def deco(fn):
                return fn
            return deco

        @tag(np.random.uniform(0, 1))
        def g():
            return 1
        """
    )
    assert codes(diags) == ["RNG003"]
    assert "module-level" in diags[0].message


def test_rng003_import_numpy_random_submodule_forms():
    # plain ``import numpy.random`` binds the root name ``numpy``
    diags = lint(
        """
        import numpy.random

        def f():
            numpy.random.seed(0)
        """
    )
    assert codes(diags) == ["RNG003"]
    assert "global RNG state" in diags[0].message
    # aliased form binds the submodule directly
    diags = lint(
        """
        import numpy.random as npr

        def f():
            npr.seed(0)
        """
    )
    assert codes(diags) == ["RNG003"]
    assert "global RNG state" in diags[0].message


def test_rng003_accepts_seeded_generators_and_cli_module():
    assert (
        lint(
            """
            import numpy as np

            def f(seed):
                return np.random.default_rng(seed)
            """
        )
        == []
    )
    # unseeded default_rng is tolerated only in repro.cli
    assert (
        lint(
            """
            import numpy as np

            def f():
                return np.random.default_rng()
            """,
            module_name="repro.cli",
        )
        == []
    )


# ---------------------------------------------------------------- MUT004


def test_mut004_flags_mutable_defaults():
    diags = lint(
        """
        def f(xs=[], mapping={}, items=set(), *, named=list()):
            return xs, mapping, items, named
        """
    )
    assert codes(diags) == ["MUT004"] * 4


def test_mut004_accepts_frozen_dataclass_and_none_defaults():
    diags = lint(
        """
        from repro.core.config import UBFConfig

        def f(config=UBFConfig(), xs=None, label="x"):
            return config, xs, label
        """,
        module_name="repro.core.ubf",
    )
    assert "MUT004" not in codes(diags)


# ---------------------------------------------------------------- EXC005


def test_exc005_flags_bare_and_broad_except():
    diags = lint(
        """
        def f():
            try:
                work()
            except:
                pass
            try:
                work()
            except Exception:
                return None
        """
    )
    assert codes(diags) == ["EXC005", "EXC005"]


def test_exc005_accepts_specific_and_reraising_handlers():
    diags = lint(
        """
        def f():
            try:
                work()
            except ValueError:
                pass
            try:
                work()
            except Exception:
                cleanup()
                raise
        """
    )
    assert diags == []


# ---------------------------------------------------------------- CFG006


def test_cfg006_flags_unknown_attribute_and_kwarg():
    diags = lint(
        """
        from repro.core.config import DetectorConfig, UBFConfig

        def f(config: DetectorConfig):
            bad = config.ubf.epsilonn
            return UBFConfig(ball_radus=2.0)
        """,
        config_source=CONFIG_SOURCE,
    )
    assert codes(diags) == ["CFG006", "CFG006"]
    assert "epsilonn" in diags[0].message
    assert "ball_radus" in diags[1].message


def test_cfg006_resolves_chains_properties_and_self_attributes():
    diags = lint(
        """
        from repro.core.config import DetectorConfig

        class Detector:
            def __init__(self, config: DetectorConfig):
                self.config = config

            def go(self):
                mode = self.config.resolved_localization()
                return self.config.ubf.radius, self.config.ubf.bogus
        """,
        config_source=CONFIG_SOURCE,
    )
    assert codes(diags) == ["CFG006"]
    assert "bogus" in diags[0].message


def test_cfg006_untyped_objects_are_left_alone():
    diags = lint(
        """
        def f(config):
            return config.definitely_not_a_field
        """,
        config_source=CONFIG_SOURCE,
    )
    assert diags == []


def test_cfg006_container_annotations_are_not_config_instances():
    # List[UBFConfig] holds configs but is not one; list methods must not
    # be flagged as unknown config attributes.
    diags = lint(
        """
        from typing import List, Sequence
        from repro.core.config import UBFConfig

        def f(configs: List[UBFConfig], more: "Sequence[UBFConfig]"):
            configs.append(UBFConfig())
            return configs, more
        """,
        config_source=CONFIG_SOURCE,
    )
    assert diags == []


def test_cfg006_optional_wrappers_still_resolve():
    diags = lint(
        """
        from typing import Optional, Union
        from repro.core.config import UBFConfig

        def f(a: Optional[UBFConfig], b: Union[UBFConfig, None], c: "UBFConfig"):
            return a.epsilonn, b.epsilonn, c.epsilonn
        """,
        config_source=CONFIG_SOURCE,
    )
    assert codes(diags) == ["CFG006"] * 3


def test_cfg006_schema_extraction():
    schema = extract_config_schema(CONFIG_SOURCE)
    assert set(schema.classes) == {"UBFConfig", "DetectorConfig"}
    ubf = schema.classes["UBFConfig"]
    assert {"epsilon", "ball_radius"} <= ubf.fields
    assert "radius" in ubf.members and "radius" not in ubf.fields
    assert schema.resolve_chain("DetectorConfig", "ubf") == "UBFConfig"


# ---------------------------------------------------------------- DET007


def test_det007_flags_set_iteration_forms():
    diags = lint(
        """
        GROUPS = {1, 2, 3}

        def f(xs):
            for g in GROUPS:
                print(g)
            rows = [x for x in {n for n in xs}]
            return list(set(xs)), rows
        """
    )
    assert codes(diags) == ["DET007"] * 3


def test_det007_flags_unsorted_fs_enumeration_and_accepts_sorted():
    diags = lint(
        """
        import os
        from pathlib import Path

        def f(root):
            a = os.listdir(root)
            b = list(Path(root).iterdir())
            c = sorted(os.listdir(root))
            d = sorted(Path(root).glob("*.json"))
            return a, b, c, d
        """
    )
    assert codes(diags) == ["DET007", "DET007"]
    assert "os.listdir" in diags[0].message


def test_det007_accepts_sorted_sets_and_untyped_names():
    diags = lint(
        """
        def f(xs, maybe_set):
            for x in sorted(set(xs)):
                print(x)
            for y in maybe_set:
                print(y)
            return sum(1 for _ in xs)
        """
    )
    assert diags == []


def test_det007_rebound_names_are_not_provable_sets():
    # ``items`` is assigned a set once but later rebound to a list: the
    # rule must not flag iteration over it.
    diags = lint(
        """
        def f(xs):
            items = {1, 2}
            items = sorted(items)
            for x in items:
                print(x)
        """
    )
    assert diags == []


def test_det007_silent_outside_ranked_layers():
    diags = lint(
        """
        def f(xs):
            for x in set(xs):
                print(x)
        """,
        module_name="scripts.helper",
    )
    assert diags == []


# ---------------------------------------------------------------- PAR008


def test_par008_flags_global_mutation_in_worker():
    diags = lint(
        """
        CACHE = {}

        def worker(x):
            CACHE[x] = x * 2
            return CACHE[x]

        def drive(xs):
            from concurrent.futures import ThreadPoolExecutor
            return list(ThreadPoolExecutor(2).map(worker, xs))
        """
    )
    assert codes(diags) == ["PAR008"]
    assert "CACHE" in diags[0].message


def test_par008_checks_closures_and_ignores_lambdas():
    """Closures and lambdas run fine on threads; a closure still may not
    write a module global."""
    diags = lint(
        """
        SEEN = []

        def drive(pool, xs, rng):
            def scaled(x):
                return rng.random() * x

            def record(x):
                SEEN.append(x)

            pool.map(lambda x: x + 1, xs)
            pool.map(scaled, xs)
            return pool.map(record, xs)
        """
    )
    assert codes(diags) == ["PAR008"]
    assert "record" in diags[0].message and "SEEN" in diags[0].message


def test_par008_flags_mutator_methods_not_initializers():
    diags = lint(
        """
        STATE = []

        def init(payload):
            STATE.append(payload)

        def work(x):
            STATE.extend([x])
            return x

        def drive(xs):
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(initializer=init) as pool:
                return list(pool.map(work, xs))
        """
    )
    assert codes(diags) == ["PAR008"]
    assert "work" in diags[0].message and "STATE" in diags[0].message


def test_par008_accepts_pure_module_level_worker():
    diags = lint(
        """
        def worker(x):
            local = {}
            local[x] = x * 2
            return local[x]

        def drive(pool, xs):
            return pool.map(worker, xs)
        """
    )
    assert diags == []


# ---------------------------------------------------------------- FLT009


def test_flt009_flags_exact_float_comparisons():
    diags = lint(
        """
        def f(x, y):
            if x == 0.0:
                return 1
            return x != -1.5 or y == float(x)
        """
    )
    assert codes(diags) == ["FLT009"] * 3


def test_flt009_flags_sum_over_set():
    diags = lint(
        """
        def f(xs):
            weights = {0.1, 0.2, 0.3}
            return sum(weights)
        """
    )
    assert codes(diags) == ["FLT009"]
    assert "hash order" in diags[0].message


def test_flt009_accepts_int_comparisons_and_ordered_sums():
    diags = lint(
        """
        def f(xs, n):
            if n == 0:
                return 0.0
            return sum(sorted(xs))
        """
    )
    assert diags == []


def test_flt009_silent_outside_ranked_layers():
    diags = lint("OK = 1.0 == 1.0\n", module_name="scripts.check")
    assert diags == []


# ---------------------------------------------------------------- TRC010


def test_trc010_flags_span_without_with():
    diags = lint(
        """
        def f(tracer):
            span = tracer.span("stage")
            return span
        """
    )
    assert codes(diags) == ["TRC010"]
    assert "with" in diags[0].message


def test_trc010_accepts_with_and_returned_spans():
    diags = lint(
        """
        def f(tracer):
            with tracer.span("stage") as s:
                s.set("k", 1)

        def g(self):
            return self._tracer.span("stage")
        """
    )
    assert diags == []


def test_trc010_ignores_non_tracer_span_methods():
    diags = lint(
        """
        import re

        def f(text):
            match = re.search("x", text)
            return match.span()
        """
    )
    assert diags == []


def test_trc010_flags_metric_kind_conflict():
    diags = lint(
        """
        def f(metrics):
            metrics.counter("ubf.balls").inc()
            metrics.counter("ubf.balls").inc()
            metrics.gauge("ubf.balls").set(1)
        """
    )
    assert codes(diags) == ["TRC010"]
    assert "ubf.balls" in diags[0].message and "counter" in diags[0].message


def test_trc010_distinct_metric_names_are_fine():
    diags = lint(
        """
        def f(registry):
            registry.counter("a").inc()
            registry.gauge("b").set(1)
            registry.histogram("c").observe(2)
        """
    )
    assert diags == []


# ------------------------------------------------------- escape hatch


def test_allow_comment_suppresses_exactly_the_named_code():
    source = """
    def f(network):
        return network.positions  # lint: allow[LOC001] -- documented shim
    """
    assert lint(source, module_name="repro.core.ubf") == []
    # the same comment must NOT suppress a different rule on that line
    other = """
    def f(network, xs=[]):  # lint: allow[LOC001]
        return xs
    """
    assert codes(lint(other, module_name="repro.core.ubf")) == ["MUT004"]


def test_allow_comment_is_line_scoped():
    source = """
    def f(network):
        a = network.positions  # lint: allow[LOC001]
        return network.positions
    """
    diags = lint(source, module_name="repro.core.ubf")
    assert codes(diags) == ["LOC001"]
    assert diags[0].line == 4


def test_allow_comment_parsing_multiple_codes():
    table = collect_suppressions("x = 1  # lint: allow[LOC001, RNG003]\ny = 2\n")
    assert table == {1: frozenset({"LOC001", "RNG003"})}
    assert collect_suppressions("z = 3  # lint: allow[]\n") == {}


def test_one_line_triggering_two_rules_needs_both_codes():
    # iterating a set (DET007) while comparing floats exactly (FLT009) on
    # the same line: suppressing one code must leave the other live.
    source = """
    def f(xs):
        return [x for x in set(xs) if x == 0.5]  # lint: allow[DET007]
    """
    assert codes(lint(source)) == ["FLT009"]
    both = """
    def f(xs):
        return [x for x in set(xs) if x == 0.5]  # lint: allow[DET007, FLT009]
    """
    assert lint(both) == []


def test_unknown_code_suppression_suppresses_nothing():
    source = """
    def f(xs):
        for x in set(xs):  # lint: allow[NOPE999]
            print(x)
    """
    assert codes(lint(source)) == ["DET007"]


def test_allow_comment_works_for_det007_and_par008():
    det = """
    def f(xs):
        for x in set(xs):  # lint: allow[DET007] -- feeds a commutative reduction
            print(x)
    """
    assert lint(det) == []
    par = """
    STATE = {}

    def work(x):
        STATE[x] = x  # lint: allow[PAR008] -- one key per item, never read back

    def drive(pool, xs):
        return list(pool.map(work, xs))
    """
    assert lint(par) == []


def test_keep_suppressed_marks_but_does_not_count():
    source = """
    def f(xs):
        for x in set(xs):  # lint: allow[DET007] -- justified
            print(x)
    """
    diags = lint(source, keep_suppressed=True)
    assert codes(diags) == ["DET007"]
    assert diags[0].suppressed is True
    assert lint(source) == []


# -------------------------------------------------------------- framework


def test_module_name_resolution():
    assert resolve_module_name(SRC / "repro" / "core" / "ubf.py") == "repro.core.ubf"
    assert resolve_module_name(SRC / "repro" / "core" / "__init__.py") == "repro.core"


def test_every_registered_rule_has_code_and_summary():
    rules = iter_rules()
    assert [r.code for r in rules] == [
        "CFG006",
        "DET007",
        "EXC005",
        "FLT009",
        "LAY002",
        "LOC001",
        "MUT004",
        "PAR008",
        "RNG003",
        "TRC010",
    ]
    assert all(r.summary for r in rules)


def test_select_unknown_rule_code_raises():
    with pytest.raises(KeyError):
        lint_source("x = 1\n", select=["NOPE999"])


def test_diagnostic_render_format(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text("def f(xs=[]):\n    return xs\n")
    diags, errors = lint_paths([bad])
    assert errors == []
    assert len(diags) == 1
    rendered = diags[0].render()
    assert rendered.startswith(str(bad)) and ": MUT004 " in rendered


def test_syntax_error_reported_as_error_not_clean(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    diags, errors = lint_paths([bad])
    assert diags == []
    assert len(errors) == 1 and "syntax error" in errors[0]


def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert lint_main([str(clean)]) == 0
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(xs=[]):\n    return xs\n")
    assert lint_main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert ": MUT004 " in out
    assert lint_main(["--list-rules"]) == 0


def test_cli_exit_codes_are_the_documented_contract(tmp_path, capsys):
    """Pin the documented exit codes: 0 clean, 1 findings, 2 usage/file error."""
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(xs=[]):\n    return xs\n")
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert lint_main([str(clean)]) == 0
    assert lint_main([str(dirty)]) == 1
    assert lint_main([str(broken)]) == 2
    # file-level errors dominate findings: a dirty tree with a broken file
    # still exits 2, because the broken file is not known to be clean
    assert lint_main([str(tmp_path)]) == 2
    # usage error (unknown --select) is also 2
    assert lint_main(["--select", "NOPE999", str(clean)]) == 2
    capsys.readouterr()


def test_cli_json_format_fields_and_sorted_keys(tmp_path, capsys):
    import json as json_mod

    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        "def f(xs=[]):  # lint: allow[MUT004] -- test fixture\n"
        "    return xs\n"
        "def g(ys=[]):\n"
        "    return ys\n"
    )
    assert lint_main(["--format", "json", str(dirty)]) == 1
    out = capsys.readouterr().out
    doc = json_mod.loads(out)
    assert doc["errors"] == []
    assert [f["suppressed"] for f in doc["findings"]] == [True, False]
    for finding in doc["findings"]:
        assert sorted(finding) == ["code", "line", "message", "path", "suppressed"]
        assert finding["code"] == "MUT004"
        assert finding["path"] == str(dirty)
    assert [f["line"] for f in doc["findings"]] == [1, 3]
    # keys are emitted sorted at every level, so output is byte-stable
    assert out == json_mod.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_cli_json_format_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert lint_main(["--format", "json", str(clean)]) == 0
    suppressed_only = tmp_path / "suppressed.py"
    suppressed_only.write_text(
        "def f(xs=[]):  # lint: allow[MUT004] -- fixture\n    return xs\n"
    )
    # suppressed findings are listed but do not fail the run
    assert lint_main(["--format", "json", str(suppressed_only)]) == 0
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert lint_main(["--format", "json", str(broken)]) == 2
    capsys.readouterr()


def test_cli_rejects_unknown_select_even_with_no_py_files(tmp_path, capsys):
    # An empty tree must not let an invalid --select exit 0 as "clean".
    empty = tmp_path / "empty"
    empty.mkdir()
    assert lint_main(["--select", "NOPE999", str(empty)]) == 2
    captured = capsys.readouterr()
    assert "NOPE999" in captured.err
    assert "clean" not in captured.out
    # a valid code over the same empty tree is genuinely clean
    assert lint_main(["--select", "MUT004", str(empty)]) == 0


def test_linter_runs_with_numpy_import_blocked(tmp_path):
    """The CI lint job installs no dependencies; importing repro.analysis
    must not pull numpy in through repro/__init__.py (PEP 562 laziness)."""
    blocker = tmp_path / "numpy.py"
    blocker.write_text("raise ImportError('numpy blocked: lint must be stdlib-only')\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), str(SRC)])
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(SRC)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_lazy_init_type_checking_imports_match_runtime_exports():
    """repro/__init__.py lists its exports twice: in the TYPE_CHECKING
    block (for type checkers) and in _EXPORT_MODULES (for PEP 562 runtime
    resolution).  Keep the two in lockstep."""
    import ast as ast_mod

    import repro

    tree = ast_mod.parse((SRC / "repro" / "__init__.py").read_text(encoding="utf-8"))
    type_checking_names = {}
    for node in tree.body:
        if not (
            isinstance(node, ast_mod.If)
            and isinstance(node.test, ast_mod.Name)
            and node.test.id == "TYPE_CHECKING"
        ):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast_mod.ImportFrom):
                for alias in stmt.names:
                    type_checking_names[alias.asname or alias.name] = stmt.module
    assert type_checking_names == repro._EXPORTS
    assert set(repro.__all__) == {"__version__", *repro._EXPORTS}
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


# ------------------------------------------------------------------ gate


def test_src_tree_is_clean():
    """Gate: the shipped source tree must produce zero diagnostics.

    Violations are fixed, not baselined; a justified ``# lint: allow``
    with a trailing reason is the only accepted escape.
    """
    diags, errors = lint_paths([SRC])
    assert errors == []
    assert diags == [], "\n".join(d.render() for d in diags)
