"""Versioned rule lifecycle: publish, validate, hot-swap.

The paper re-derives the hitlist per time window because DNS↔IP
mappings churn daily; a long-running detector therefore needs rule
updates *without* a restart (the restart would lose evidence state).
:mod:`repro.rules.lifecycle` owns the artifact side of that story —
a versioned on-disk store with crash-safe publishes and last-good
fallback, and candidate validation; ``repro artifacts --versioned``
publishes, and a running engine polls the store's head.  The pipeline
side (staging, event-time activation, evidence migration) lives in
:mod:`repro.pipeline.swap`.

Layering: this package sits on core/resilience/pipeline and must never
import the assemblies (``repro.engine``/``repro.stream``/``repro.ixp``)
— enforced by ``tools/check_layering.py``.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.rules.lifecycle": (
            "ARTIFACT_MAGIC", "ARTIFACT_VERSION", "ArtifactError",
            "CandidateRejected", "LoadedArtifact", "RulesArtifact",
            "VersionedRuleStore", "artifact_path", "list_artifacts",
            "read_artifact", "validate_candidate", "write_artifact",
        ),
    },
)
