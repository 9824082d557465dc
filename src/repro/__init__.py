"""Reproduction of "A Haystack Full of Needles: Scalable Detection of IoT
Devices in the Wild" (Saidi et al., IMC 2020).

The package is organised as a set of substrates (``netflow``, ``dns``,
``tls``, ``cloud``, ``devices``, ``isp``, ``ixp``) underneath the paper's
primary contribution in :mod:`repro.core`: a methodology for detecting
consumer IoT devices at subscriber-line granularity from sparsely sampled
flow headers.

Quickstart::

    from repro.scenario import build_default_scenario
    from repro.core.hitlist import build_hitlist
    from repro.core.rules import generate_rules
    from repro.core.detector import FlowDetector

    scenario = build_default_scenario(seed=7)
    hitlist = build_hitlist(scenario)
    rules = generate_rules(scenario, hitlist)
    detector = FlowDetector(rules, hitlist, threshold=0.4)

See ``examples/quickstart.py`` for a complete runnable walk-through.

Every subpackage names its public API in its ``__init__`` but loads a
name's defining module only on first use (:func:`lazy_exports`), so a
command imports the layers it runs and nothing else.
"""

import importlib
import sys
from typing import Dict, Tuple

__version__ = "1.0.0"

__all__ = ["__version__"]


def lazy_exports(package: str, table: Dict[str, Tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for a package whose public
    names resolve on first access (PEP 562).

    ``table`` maps each defining module to the names it contributes.
    The first access imports that module and caches the value in the
    package namespace; an unknown name raises :class:`AttributeError`
    naming the package.  ``tools/check_layering.py`` reads the table's
    modules as the package's import edges.
    """
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        if name not in owner:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(owner[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return list(owner), __getattr__, __dir__
