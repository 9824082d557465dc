"""One module per paper artefact (table/figure), plus a shared cached
:class:`~repro.experiments.context.ExperimentContext` so the scenario,
ground-truth capture, and wild runs are computed once per process and
reused by every benchmark."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.context": ("ExperimentContext", "get_context"),
    },
)
