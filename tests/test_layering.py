"""The pipeline layering contract (see ``tools/check_layering.py``).

The tier-1 incarnation of the CI ``layering`` job: the three entry
point assemblies (engine, stream, ixp) depend on the shared
:mod:`repro.pipeline` layer and never on each other, and the pipeline
layer never imports an assembly.
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
            "repro.ixp": True,
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
        assert uses == {
            "repro.engine": True,
            "repro.stream": True,
            "repro.ixp": True,
        }

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
