#!/usr/bin/env python3
"""Layering checker: the pipeline dependency contract, enforced — and
no public code that only tests call.

The staged pipeline refactor rests on one directional rule:

* :mod:`repro.engine` and :mod:`repro.stream` are *assemblies* — each
  imports :mod:`repro.pipeline`, and neither may import the other;
  :mod:`repro.ixp` (the aggregate fabric model) imports none of the
  assemblies either;
* :mod:`repro.pipeline` is the shared layer — it may import the
  substrate (core, netflow, runtime, resilience, ...) but none of the
  assemblies;
* :mod:`repro.netflow` is substrate — the columnar decode stage lives
  there next to the flow-line parser, so it must not import upward
  into the pipeline layer or any assembly;
* :mod:`repro.resilience.sealed` (the crash-safe generation file both
  stream checkpoints and rule artifacts are) is substrate: it imports
  nothing from pipeline, stream, rules, collector or fleet, which is
  what lets :mod:`repro.stream` and :mod:`repro.rules` share it
  without importing each other;
* :mod:`repro.rules` (the versioned rule-lifecycle subsystem) may sit
  on the substrate and shared layers (core, resilience, pipeline) but
  never on an assembly — and neither :mod:`repro.pipeline` nor
  :mod:`repro.netflow` may import it back (the swap machinery in
  ``repro.pipeline.swap`` stays artifact-agnostic);
* :mod:`repro.collector` (live collector mode) is a fourth assembly:
  it sits on pipeline/netflow/stream/runtime/resilience but never on
  :mod:`repro.engine` or :mod:`repro.ixp`, and nothing below the
  assembly layer may import it back;
* :mod:`repro.fleet` (sharded streaming) is a fifth assembly: the
  router sits on pipeline/netflow/stream/runtime/resilience (its
  workers *run* the stream assembly) but never on
  :mod:`repro.engine`, :mod:`repro.ixp`, or :mod:`repro.collector` —
  the collector may import the fleet (``--fleet-workers``), never the
  reverse — and nothing below the assembly layer may import it back.

This script walks the import statements of every module in the scoped
packages with :mod:`ast` (no third-party import-linter needed) and
exits non-zero on a violation, printing ``file:line`` for each.

The second check keeps ``src/`` to what runs: every public module-level
function or class of :mod:`repro` must be referred to — by name, outside
its own body — from ``src/``, ``benchmarks/``, ``examples/`` or
``tools/``.  A name only ``tests/`` uses fails unless
:data:`TEST_ONLY_ALLOWED` lists it with a reason.  Matching is by name
(a method or attribute of the same name counts as a reference), so the
check errs towards passing.

Both run in CI as the ``layering`` job and in the tier-1 suite via
``tests/test_layering.py``.

Usage::

    python tools/check_layering.py [--root src]
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import sys
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: package -> packages it must never import (directly or lazily).
FORBIDDEN: Dict[str, Set[str]] = {
    "repro.engine": {
        "repro.stream",
        "repro.ixp",
        "repro.collector",
        "repro.fleet",
    },
    "repro.stream": {
        "repro.engine",
        "repro.ixp",
        "repro.collector",
        "repro.fleet",
    },
    "repro.ixp": {
        "repro.engine",
        "repro.stream",
        "repro.collector",
        "repro.fleet",
    },
    "repro.collector": {"repro.engine", "repro.ixp"},
    "repro.fleet": {"repro.engine", "repro.ixp", "repro.collector"},
    "repro.pipeline": {
        "repro.engine",
        "repro.stream",
        "repro.ixp",
        "repro.rules",
        "repro.collector",
        "repro.fleet",
    },
    "repro.netflow": {
        "repro.pipeline",
        "repro.engine",
        "repro.stream",
        "repro.ixp",
        "repro.rules",
        "repro.collector",
        "repro.fleet",
    },
    "repro.rules": {
        "repro.engine",
        "repro.stream",
        "repro.ixp",
        "repro.collector",
        "repro.fleet",
    },
    "repro.resilience.sealed": {
        "repro.pipeline",
        "repro.engine",
        "repro.stream",
        "repro.ixp",
        "repro.rules",
        "repro.collector",
        "repro.fleet",
    },
}

#: assemblies that must actually sit on the shared layer: at least one
#: module in each must import repro.pipeline.
MUST_USE_PIPELINE = (
    "repro.engine",
    "repro.stream",
    "repro.collector",
    "repro.fleet",
)

#: directories (beside ``src``) whose code counts as a caller
CALLER_DIRS = ("src", "benchmarks", "examples", "tools")

#: public ``repro`` functions/classes (or whole packages) that only
#: tests call, each with the reason it stays in ``src``
TEST_ONLY_ALLOWED: Dict[str, str] = {
    "repro.faults": (
        "the fault-injection harness: the fault, soak and swap suites "
        "break the shipped code through it, so it must import from the "
        "package and track its internals"
    ),
    "repro.isp.simulation.validate_packet_level": (
        "reference check: packet-level sampling the vectorised "
        "event-level simulation is compared against"
    ),
    "repro.analysis.detection_model.exact_detection_probability": (
        "reference check: the exact sum the Monte Carlo detection "
        "estimate is compared against"
    ),
    "repro.core.levels.validate_levels": (
        "reference check: generated rules must claim no level finer "
        "than the backend structure inferred from the catalog supports"
    ),
    "repro.stream.checkpoint.list_checkpoints": (
        "the checkpoint-directory listing the kill/resume suites pin "
        "cadence and pruning on; a resume itself only needs the newest "
        "valid checkpoint"
    ),
    "repro.resilience.lookups.ResilientPassiveDns": (
        "the resilient passive-DNS adapter build_hitlist's degraded-"
        "class path is driven through (dnsdb=...)"
    ),
    "repro.resilience.lookups.ResilientScanDataset": (
        "the resilient scan adapter build_hitlist's certificate "
        "fallback is driven through (scans=...)"
    ),
}


def module_name(root: pathlib.Path, path: pathlib.Path) -> str:
    """Dotted module name of ``path`` relative to the source root."""
    relative = path.relative_to(root).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def iter_imports(
    path: pathlib.Path, module: str
) -> Iterator[Tuple[str, int]]:
    """Yield ``(imported module, line)`` for every import statement.

    Handles plain imports, from-imports, and relative imports
    (resolved against ``module``); imports nested in functions count
    too — a lazy import is still a dependency.  So does every module
    named in a package's :func:`repro.lazy_exports` table: a name
    re-exported through a string is still an edge.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    package_parts = module.split(".")
    is_package = path.name == "__init__.py"
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_lazy_exports(node.func):
            for table in node.args:
                if isinstance(table, ast.Dict):
                    for key in table.keys:
                        if isinstance(key, ast.Constant):
                            yield key.value, key.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if node.module is not None:
                    yield node.module, node.lineno
                continue
            # Relative import: drop `level` components from the end of
            # the importing module's package path.
            keep = len(package_parts) - node.level + (1 if is_package else 0)
            base = ".".join(package_parts[:keep]) if keep > 0 else ""
            target = (
                f"{base}.{node.module}" if node.module else base
            )
            if target:
                yield target, node.lineno


def _is_lazy_exports(func: ast.expr) -> bool:
    return getattr(func, "id", getattr(func, "attr", None)) == "lazy_exports"


def within(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def check(root: pathlib.Path) -> Tuple[List[str], Dict[str, bool]]:
    """Return (violations, assembly -> imports-pipeline flag)."""
    violations: List[str] = []
    uses_pipeline: Dict[str, bool] = {}
    for path in sorted(root.rglob("*.py")):
        module = module_name(root, path)
        for package in MUST_USE_PIPELINE:
            if within(module, package):
                uses_pipeline.setdefault(package, False)
        owners = [
            package for package in FORBIDDEN if within(module, package)
        ]
        if not owners:
            continue
        for imported, line in iter_imports(path, module):
            for package in owners:
                if package in uses_pipeline and within(
                    imported, "repro.pipeline"
                ):
                    uses_pipeline[package] = True
                for banned in FORBIDDEN[package]:
                    if within(imported, banned):
                        violations.append(
                            f"{path}:{line}: {module} imports "
                            f"{imported} ({package} must not depend "
                            f"on {banned})"
                        )
    return violations, uses_pipeline


def public_definitions(
    root: pathlib.Path,
) -> Iterator[Tuple[str, str, pathlib.Path, int]]:
    """``(module, name, path, line)`` of every public module-level
    function and class under ``root/repro``."""
    for path in sorted((root / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        module = module_name(root, path)
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                yield module, node.name, path, node.lineno


def referenced_names(repo: pathlib.Path) -> Set[str]:
    """Every name the caller directories refer to: loaded names,
    attributes and imported names, except a definition's references
    to itself inside its own body."""
    names: Set[str] = set()
    for directory in CALLER_DIRS:
        for path in sorted((repo / directory).rglob("*.py")):
            tree = ast.parse(
                path.read_text(encoding="utf-8"), filename=str(path)
            )
            for top in tree.body:
                own = getattr(top, "name", None)
                for node in ast.walk(top):
                    if isinstance(node, ast.Name):
                        name = node.id
                    elif isinstance(node, ast.Attribute):
                        name = node.attr
                    elif isinstance(node, ast.alias):
                        name = node.name.rpartition(".")[2]
                    else:
                        continue
                    if name != own:
                        names.add(name)
    return names


def unreferenced(
    repo: pathlib.Path, allowed: Optional[Dict[str, str]] = None
) -> List[str]:
    """Public callables of ``repo/src`` only tests use, and allowlist
    entries without a reason or that no longer match one."""
    allowed = TEST_ONLY_ALLOWED if allowed is None else allowed
    used = referenced_names(repo)
    violations: List[str] = []
    matched: Set[str] = set()
    for module, name, path, line in public_definitions(repo / "src"):
        if name in used:
            continue
        qualified = f"{module}.{name}"
        entry = next(
            (key for key in allowed if within(qualified, key)), None
        )
        if entry is None:
            violations.append(
                f"{path}:{line}: {qualified} has no caller outside "
                "tests (delete it, or allowlist it with a reason in "
                "tools/check_layering.py)"
            )
        else:
            matched.add(entry)
    for entry, reason in allowed.items():
        if not reason.strip():
            violations.append(f"allowlist entry {entry} gives no reason")
        elif entry not in matched:
            violations.append(
                f"allowlist entry {entry} matches no test-only code "
                "(it gained a caller or was deleted): drop it"
            )
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent / "src",
        help="source root containing the repro package (default: src)",
    )
    args = parser.parse_args(argv)
    violations, uses_pipeline = check(args.root)
    for violation in violations:
        print(violation, file=sys.stderr)
    for package, used in sorted(uses_pipeline.items()):
        if not used:
            violations.append(package)
            print(
                f"{package} never imports repro.pipeline — the "
                "assembly has come off the shared layer",
                file=sys.stderr,
            )
    test_only = unreferenced(args.root.resolve().parent)
    for violation in test_only:
        print(violation, file=sys.stderr)
    if violations or test_only:
        return 1
    print(
        "layering ok: engine/stream/collector/fleet sit on pipeline, "
        "not on each other; every public callable has a caller "
        "outside tests"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
