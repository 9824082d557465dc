"""The pipeline layering contract (see ``tools/check_layering.py``).

The tier-1 incarnation of the CI ``layering`` job: the assemblies
depend on the shared :mod:`repro.pipeline` layer and never on each
other, the pipeline layer never imports an assembly, and no public
callable in ``src/`` has only tests for callers.
"""

import pathlib
import sys

_TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

sys.path.insert(0, str(_TOOLS))

import check_layering  # noqa: E402


class TestLayering:
    def test_no_cross_assembly_imports(self):
        violations, _ = check_layering.check(_SRC)
        assert violations == []

    def test_every_assembly_sits_on_pipeline(self):
        _, uses_pipeline = check_layering.check(_SRC)
        assert uses_pipeline == {
            "repro.engine": True,
            "repro.stream": True,
            "repro.collector": True,
            "repro.fleet": True,
        }

    def test_checker_flags_synthetic_violation(self, tmp_path):
        """The checker itself works: a planted import is caught."""
        package = tmp_path / "repro"
        for name in ("", "engine", "stream", "pipeline", "ixp"):
            directory = package / name if name else package
            directory.mkdir(parents=True, exist_ok=True)
            (directory / "__init__.py").write_text("")
        (package / "engine" / "__init__.py").write_text(
            "import repro.pipeline\n"
        )
        (package / "ixp" / "__init__.py").write_text(
            "from repro.pipeline import core\n"
        )
        (package / "stream" / "bad.py").write_text(
            "import repro.pipeline\nfrom repro.engine import runner\n"
        )
        violations, uses = check_layering.check(tmp_path)
        assert len(violations) == 1
        assert "repro.stream" in violations[0]
        assert "repro.engine" in violations[0]
        assert uses == {"repro.engine": True, "repro.stream": True}

    def test_checker_resolves_relative_imports(self, tmp_path):
        """`from .. import engine` inside repro.stream is caught."""
        package = tmp_path / "repro"
        for name in ("engine", "stream", "ixp", "pipeline"):
            (package / name).mkdir(parents=True, exist_ok=True)
            (package / name / "__init__.py").write_text(
                "import repro.pipeline\n"
            )
        (package / "__init__.py").write_text("")
        (package / "stream" / "sneaky.py").write_text(
            "from ..engine import worker\n"
        )
        violations, _ = check_layering.check(tmp_path)
        assert len(violations) == 1
        assert "sneaky" in violations[0]

    def test_checker_reads_lazy_export_tables(self, tmp_path):
        """A re-export that moved from an import statement into a
        package's ``lazy_exports`` table is still an edge: a forbidden
        module named there is flagged, and the real packages' tables
        are read."""
        package = tmp_path / "repro"
        for name in ("", "engine", "stream", "pipeline", "ixp"):
            directory = package / name if name else package
            directory.mkdir(parents=True, exist_ok=True)
            (directory / "__init__.py").write_text("import repro.pipeline\n")
        (package / "stream" / "__init__.py").write_text(
            "from repro import lazy_exports\n"
            "import repro.pipeline\n"
            "__all__, __getattr__, __dir__ = lazy_exports(__name__, {\n"
            "    'repro.engine.runner': ('run_wild_isp_sharded',),\n"
            "})\n"
        )
        violations, _ = check_layering.check(tmp_path)
        assert len(violations) == 1
        assert "__init__.py:4: repro.stream imports repro.engine.runner" in (
            violations[0]
        )
        real = _SRC / "repro" / "stream" / "__init__.py"
        assert "repro.stream.processor" in {
            imported
            for imported, _line in check_layering.iter_imports(
                real, "repro.stream"
            )
        }

    def test_sealed_file_module_is_substrate(self, tmp_path):
        """Checkpoints and rule artifacts share ``resilience.sealed``
        only because it sits below both: the real module imports no
        ``repro`` package at all, and a planted upward import is
        flagged."""
        real = _SRC / "repro" / "resilience" / "sealed.py"
        assert not [
            imported
            for imported, _line in check_layering.iter_imports(
                real, "repro.resilience.sealed"
            )
            if imported.startswith("repro")
        ]
        package = tmp_path / "repro" / "resilience"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "sealed.py").write_text(
            "from repro.pipeline.state import pack_entries\n"
        )
        (package / "quarantine.py").write_text(
            "from repro.pipeline import events\n"  # not sealed: fine
        )
        violations, _ = check_layering.check(tmp_path)
        assert len(violations) == 1
        assert "repro.resilience.sealed" in violations[0]
        assert "repro.pipeline" in violations[0]

    def test_cli_entrypoint_passes_on_real_tree(self, capsys):
        assert check_layering.main(["--root", str(_SRC)]) == 0
        assert "layering ok" in capsys.readouterr().out


def _plant(tmp_path, files):
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


class TestTestOnlyCode:
    def test_real_tree_has_no_test_only_code(self):
        assert check_layering.unreferenced(_SRC.parent) == []

    def test_every_allowlist_entry_gives_a_reason(self):
        assert all(
            reason.strip()
            for reason in check_layering.TEST_ONLY_ALLOWED.values()
        )

    def test_flags_a_test_only_function_and_passes_an_allowlisted_one(
        self, tmp_path
    ):
        """A public function only ``tests/`` calls is flagged; one an
        example calls, one on the allowlist, private names and a
        definition's references to itself are not what decide it."""
        repo = _plant(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/mod.py": (
                "def used():\n    return 1\n\n"
                "def test_only(n):\n"
                "    return test_only(n - 1) if n else 0\n\n"
                "def kept_for_tests():\n    return 2\n\n"
                "def _private():\n    return 3\n\n"
                "class Stale:\n    pass\n"
            ),
            "examples/demo.py": "from repro.mod import used\nused()\n",
            "tests/test_mod.py": (
                "from repro.mod import Stale, kept_for_tests, test_only\n"
                "test_only(2); kept_for_tests(); Stale()\n"
            ),
        })
        violations = check_layering.unreferenced(
            repo, allowed={"repro.mod.kept_for_tests": "a reference check"}
        )
        assert len(violations) == 2
        assert "mod.py:4: repro.mod.test_only has no caller" in violations[0]
        assert "repro.mod.Stale has no caller" in violations[1]

    def test_flags_a_stale_or_reasonless_allowlist_entry(self, tmp_path):
        repo = _plant(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/mod.py": "def used():\n    return 1\n",
            "tools/run.py": "from repro.mod import used\nused()\n",
        })
        assert check_layering.unreferenced(
            repo, allowed={"repro.mod.used": "now has a caller"}
        ) == [
            "allowlist entry repro.mod.used matches no test-only code "
            "(it gained a caller or was deleted): drop it"
        ]
        assert check_layering.unreferenced(
            repo, allowed={"repro.mod.used": " "}
        ) == ["allowlist entry repro.mod.used gives no reason"]
