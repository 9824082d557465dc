#!/usr/bin/env python3
"""Layering checker: the pipeline dependency contract, enforced.

The staged pipeline refactor rests on one directional rule:

* :mod:`repro.engine`, :mod:`repro.stream`, and :mod:`repro.ixp` are
  *assemblies* — each may import :mod:`repro.pipeline`, and none may
  import the other two;
* :mod:`repro.pipeline` is the shared layer — it may import the
  substrate (core, netflow, runtime, resilience, ...) but none of the
  three assemblies;
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
exits non-zero on a violation, printing ``file:line`` for each.  It is
wired into CI as the ``layering`` job and into the tier-1 suite via
``tests/test_layering.py``.

Usage::

    python tools/check_layering.py [--root src]
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import sys
from typing import Dict, Iterator, List, Set, Tuple

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
    "repro.ixp",
    "repro.collector",
    "repro.fleet",
)


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
    too — a lazy import is still a dependency.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    package_parts = module.split(".")
    is_package = path.name == "__init__.py"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
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
    if violations:
        return 1
    print(
        "layering ok: engine/stream/ixp/collector/fleet sit on "
        "pipeline, not on each other"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
