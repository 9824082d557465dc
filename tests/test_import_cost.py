"""What a command loads, and what a package names.

A package names its API and loads a name's module on first use
(:func:`repro.lazy_exports`); a subcommand imports its own layers.
Each import-set case runs in a fresh interpreter and reads
``sys.modules`` at exit.  No timing is asserted: a reintroduced eager
import shows up as a module that should not be there, or as a count
over its budget.
"""

import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro
from tests.conftest import write_artifacts

_SRC = pathlib.Path(repro.__file__).resolve().parent.parent

#: the simulation and the paper's analyses — none of it is needed to
#: detect over a stored export or a live feed
_WORLD = tuple(
    f"repro.{name}"
    for name in (
        "experiments", "scenario", "devices", "isp", "ixp", "sweep",
        "engine", "tls", "analysis", "faults",
    )
)

_REPORT = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print('\\nMODULES ' + json.dumps(sorted(\n"
    "    name for name in sys.modules\n"
    "    if name == 'repro' or name.startswith('repro.')))))\n"
)


def _loaded(code: str) -> list:
    """``repro.*`` modules in ``sys.modules`` after ``code`` ran in a
    fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(_SRC), env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-c", _REPORT + code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    for line in done.stdout.splitlines():
        if line.startswith("MODULES "):
            return json.loads(line[len("MODULES "):])
    raise AssertionError(f"no module report:\n{done.stdout}\n{done.stderr}")


def _cli(*argv) -> list:
    return _loaded(
        f"sys.argv = ['repro', *{[str(arg) for arg in argv]!r}]\n"
        "import runpy\n"
        "runpy.run_module('repro', run_name='__main__')\n"
    )


def _under(modules, package: str) -> list:
    return [
        name for name in modules
        if name == package or name.startswith(package + ".")
    ]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    from tests.test_rules_lifecycle import world_v1

    return write_artifacts(
        tmp_path_factory.mktemp("import-cost") / "artifacts", *world_v1()
    )


class TestImportSet:
    """Module budgets: ``stream run`` on an empty file loaded 109
    ``repro`` modules and an idle ``collect`` 116 before packages
    loaded lazily; they now load 36 and 47."""

    def _check(self, modules, budget, needs=()):
        loaded_world = [
            name for name in modules if name.startswith(_WORLD)
        ]
        assert loaded_world == []
        assert _under(modules, "repro.fleet") == []
        for name in needs:  # the case really ran what it names
            assert name in modules
        assert len(modules) <= budget, modules

    def test_stream_run_on_empty_input(self, artifacts, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("# haystack-flows v1 sampling=1\n")
        modules = _cli("stream", "run", empty, "--artifacts", artifacts)
        self._check(modules, 45, needs=["repro.stream.processor"])
        assert _under(modules, "repro.collector") == []

    def test_idle_collect_into_an_engine(self, artifacts, tmp_path):
        modules = _cli(
            "collect", "--no-control", "--idle-exit", "0.2",
            "--artifacts", artifacts,
            "--ready-file", tmp_path / "ready.json",
        )
        self._check(
            modules, 55,
            needs=["repro.collector.service", "repro.stream.processor"],
        )

    def test_import_stream_package(self):
        self._check(_loaded("import repro.stream\n"), 2)

    def test_import_serialization(self):
        modules = _loaded("import repro.core.serialization\n")
        self._check(modules, 10, needs=["repro.core.rules"])


_PACKAGES = sorted(
    name
    for _, name, is_package in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    )
    if is_package
)


class TestPublicSurface:
    @pytest.mark.parametrize("name", _PACKAGES)
    def test_every_exported_name_resolves(self, name):
        package = importlib.import_module(name)
        star = {}
        exec(f"from {name} import *", star)
        for exported in package.__all__:
            value = getattr(package, exported)
            assert star[exported] is value
        assert set(package.__all__) <= set(dir(package))

    @pytest.mark.parametrize("name", _PACKAGES)
    def test_unknown_name_names_the_package(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=repr(name)):
            package.no_such_name  # noqa: B018

    def test_experiment_registry(self, capsys):
        from repro import cli

        registry = cli.EXPERIMENTS
        assert cli.main(["list"]) == 0
        assert capsys.readouterr().out == "".join(
            f"{identifier}\n" for identifier in sorted(registry)
        )
        fig11 = importlib.import_module("repro.experiments.fig11_isp_wild")
        assert registry["fig11"] == (fig11.run, fig11.render)


class TestBlasPool:
    """``python -m repro`` caps OpenBLAS at one thread before numpy
    loads: nothing here calls BLAS, and the idle pool's workers spin."""

    _THREADS = (
        "import os\n"
        "import repro.__main__\n"
        "import numpy\n"
        "print('THREADS', len(os.listdir('/proc/self/task')),"
        " os.environ['OPENBLAS_NUM_THREADS'])\n"
    )

    def _run(self, **env):
        environment = {
            name: value for name, value in os.environ.items()
            if name != "OPENBLAS_NUM_THREADS"
        }
        environment.update(env)
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(_SRC), environment.get("PYTHONPATH")))
        )
        done = subprocess.run(
            [sys.executable, "-c", self._THREADS],
            env=environment, capture_output=True, text=True, timeout=120,
        )
        (line,) = [
            line for line in done.stdout.splitlines()
            if line.startswith("THREADS ")
        ]
        threads, setting = line.split()[1:]
        return int(threads), setting

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2
        or not os.path.isdir("/proc/self/task"),
        reason="one core starts no BLAS workers",
    )
    def test_one_thread_after_numpy_loads(self):
        assert self._run() == (1, "1")

    def test_a_setting_from_outside_wins(self):
        assert self._run(OPENBLAS_NUM_THREADS="2")[1] == "2"
