"""Versioned rule artifacts and candidate validation.

The detection rules of Section 5 are derived from a *daily* hitlist:
the DNS↔IP mappings behind IoT backends churn, so a long-running
detector must pick up recomputed rules without a restart (a restart
would lose every subscriber's evidence window).  This module owns the
artifact half of the live-refresh story:

* :class:`RulesArtifact` / :func:`write_artifact` /
  :func:`read_artifact` — one rule generation (rules + hitlist +
  version) as a sealed file (:mod:`repro.resilience.sealed`, the file
  stream checkpoints are too), so a reader never observes a
  half-written or silently truncated generation.
* :func:`validate_candidate` — the gate a recomputed candidate must
  pass before it may be published: non-empty, schema-complete,
  version strictly newer than the incumbent, endpoint coverage within
  configured delta bounds of the incumbent.
* :class:`VersionedRuleStore` — a directory of versioned artifacts
  with monotonically increasing versions, last-good fallback on
  corrupt newest generations, and pruning.

``repro artifacts --versioned`` is the publisher.  A recompute that
routes :func:`~repro.core.hitlist.build_hitlist` through the resilient
lookup adapters (:mod:`repro.resilience.lookups`) either yields a
candidate :meth:`VersionedRuleStore.publish` gates, or fails; either
way a failure leaves the store on its last-good generation.  Consumers
poll :meth:`VersionedRuleStore.head`.

The pipeline half — staging a loaded generation, event-time activation
at the next hour boundary, evidence migration — lives in
:mod:`repro.pipeline.swap`; the stream assembly wires the two together.
"""

from __future__ import annotations

import json
import logging
import pathlib
import re
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.core.hitlist import Hitlist
from repro.core.rules import RuleSet
from repro.core.serialization import (
    hitlist_from_json,
    hitlist_to_json,
    rules_from_json,
    rules_to_json,
)
from repro.pipeline.swap import RuleGeneration
from repro.resilience.sealed import (
    SealedFileError,
    list_sealed,
    newest_valid,
    prune_sealed,
    read_sealed,
    write_sealed,
)

__all__ = [
    "ARTIFACT_MAGIC",
    "ARTIFACT_VERSION",
    "ArtifactError",
    "CandidateRejected",
    "LoadedArtifact",
    "RulesArtifact",
    "VersionedRuleStore",
    "artifact_path",
    "list_artifacts",
    "read_artifact",
    "validate_candidate",
    "write_artifact",
]

logger = logging.getLogger(__name__)

#: First token of every artifact header line.
ARTIFACT_MAGIC = "repro-rules-artifact"
#: On-disk format revision.
ARTIFACT_VERSION = 1

_PathLike = Union[str, pathlib.Path]
_FILE_RE = re.compile(r"^rules-v(\d+)\.json$")


class ArtifactError(RuntimeError):
    """An artifact file is unreadable: bad header, hash, or schema."""


class CandidateRejected(ValueError):
    """A recomputed candidate failed validation and was not published."""


@dataclass(frozen=True)
class RulesArtifact:
    """One publishable rule generation: rules + hitlist + version."""

    version: int
    rules: RuleSet
    hitlist: Hitlist

    def to_payload(self) -> bytes:
        """The canonical JSON body (without the integrity header)."""
        document = {
            "format": f"haystack-rules-artifact/{ARTIFACT_VERSION}",
            "version": self.version,
            "rules": json.loads(rules_to_json(self.rules)),
            "hitlist": json.loads(hitlist_to_json(self.hitlist)),
        }
        return json.dumps(
            document, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "RulesArtifact":
        try:
            document = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArtifactError(f"artifact body is not JSON: {exc}")
        expected = f"haystack-rules-artifact/{ARTIFACT_VERSION}"
        if document.get("format") != expected:
            raise ArtifactError(
                f"not a {expected} document: {document.get('format')!r}"
            )
        for key in ("version", "rules", "hitlist"):
            if key not in document:
                raise ArtifactError(f"artifact missing {key!r} section")
        try:
            rules = rules_from_json(json.dumps(document["rules"]))
            hitlist = hitlist_from_json(json.dumps(document["hitlist"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise ArtifactError(f"artifact sections malformed: {exc}")
        return cls(
            version=int(document["version"]), rules=rules, hitlist=hitlist
        )


@dataclass(frozen=True)
class LoadedArtifact:
    """A successfully read artifact plus how it was found."""

    artifact: RulesArtifact
    #: newer-but-corrupt generations skipped to reach this one
    fallbacks: int = 0


def artifact_path(directory: _PathLike, version: int) -> pathlib.Path:
    """Where generation ``version`` lives inside ``directory``."""
    return pathlib.Path(directory) / f"rules-v{version:010d}.json"


def list_artifacts(directory: _PathLike) -> List[Tuple[int, pathlib.Path]]:
    """All ``(version, path)`` pairs in ``directory``, oldest first."""
    return list_sealed(directory, _FILE_RE)


def write_artifact(path: _PathLike, artifact: RulesArtifact) -> None:
    """Atomically publish ``artifact`` at ``path``: a crash leaves the
    old file or the complete new one, never a torn artifact."""
    write_sealed(
        path, ARTIFACT_MAGIC, ARTIFACT_VERSION, (artifact.to_payload(),)
    )


def read_artifact(path: _PathLike) -> RulesArtifact:
    """Read and integrity-check one artifact file; :class:`ArtifactError`
    on any damage: missing file, bad magic, truncated body, hash
    mismatch, malformed sections, a version the file name disagrees with."""
    target = pathlib.Path(path)
    try:
        payload = read_sealed(target, ARTIFACT_MAGIC, ARTIFACT_VERSION)
    except SealedFileError as exc:
        raise ArtifactError(f"artifact {target}: {exc}") from exc
    artifact = RulesArtifact.from_payload(payload)
    named = _FILE_RE.match(target.name)
    if named and int(named.group(1)) != artifact.version:
        raise ArtifactError(
            f"artifact {target} claims version {artifact.version}, "
            f"filename says {int(named.group(1))}"
        )
    return artifact


def _coverage(hitlist: Hitlist) -> int:
    """Total (day, address, port) endpoints the hitlist monitors."""
    return sum(
        len(endpoints) for endpoints in hitlist.daily_endpoints.values()
    )


def validate_candidate(
    candidate: RulesArtifact,
    current: Optional[RulesArtifact] = None,
    max_coverage_drop: float = 0.5,
    max_coverage_growth: float = 20.0,
) -> None:
    """The publish gate: raise :class:`CandidateRejected` unless sane.

    Checks, in order:

    1. *non-empty* — at least one rule, one monitored domain, and one
       daily endpoint (an empty candidate would silently blind the
       detector);
    2. *monotonic version* — strictly newer than the incumbent, so a
       stale recompute can never roll the fleet backwards;
    3. *coverage delta bounds* — the endpoint count may not collapse
       below ``(1 - max_coverage_drop)`` of the incumbent's nor explode
       past ``max_coverage_growth`` times it; both are symptoms of a
       broken upstream (empty passive-DNS answers, a runaway join)
       rather than genuine churn.
    """
    if not candidate.rules.class_names():
        raise CandidateRejected("candidate has no rules")
    if not candidate.rules.monitored_domains():
        raise CandidateRejected("candidate monitors no domains")
    if _coverage(candidate.hitlist) == 0:
        raise CandidateRejected("candidate hitlist has no endpoints")
    if candidate.version < 1:
        raise CandidateRejected(
            f"candidate version must be >= 1, got {candidate.version}"
        )
    if current is not None:
        if candidate.version <= current.version:
            raise CandidateRejected(
                f"candidate version {candidate.version} is not newer "
                f"than active version {current.version}"
            )
        old = _coverage(current.hitlist)
        new = _coverage(candidate.hitlist)
        if old > 0:
            if new < old * (1.0 - max_coverage_drop):
                raise CandidateRejected(
                    f"endpoint coverage collapsed {old} -> {new} "
                    f"(more than {max_coverage_drop:.0%} drop)"
                )
            if new > old * max_coverage_growth:
                raise CandidateRejected(
                    f"endpoint coverage exploded {old} -> {new} "
                    f"(more than {max_coverage_growth:g}x growth)"
                )


class VersionedRuleStore:
    """A directory of versioned rule artifacts with last-good reads.

    Publishes are validated, monotonically versioned, and atomic;
    reads fall back past damaged newest generations.  The store keeps
    the newest ``keep`` generations plus whatever a reader might still
    be resuming from — pruning only removes artifacts strictly older
    than the newest ``keep``.
    """

    def __init__(self, directory: _PathLike, keep: int = 5) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = pathlib.Path(directory)
        self.keep = keep
        self.directory.mkdir(parents=True, exist_ok=True)

    def latest_version(self) -> int:
        """Newest on-disk version (0 when the store is empty).

        Counts damaged artifacts too: versions are allocated above any
        file present, so a torn v5 never lets a later publish reuse 5.
        """
        artifacts = list_artifacts(self.directory)
        return artifacts[-1][0] if artifacts else 0

    def load_latest(self) -> Optional[LoadedArtifact]:
        """Newest *readable* generation (last-good fallback): a corrupt
        or torn newer artifact is logged, skipped and counted in
        :attr:`LoadedArtifact.fallbacks`; ``None`` when none reads."""
        found, skipped = newest_valid(
            self.directory, _FILE_RE, read_artifact, ArtifactError,
            logger.warning,
        )
        if found is None:
            return None
        return LoadedArtifact(found[1], fallbacks=len(skipped))

    def load_version(self, version: int) -> RulesArtifact:
        """A specific generation; :class:`ArtifactError` if unreadable.

        Resume paths use this: a checkpoint taken under version *k*
        must restart under version *k*'s rules, not whatever is newest.
        """
        return read_artifact(artifact_path(self.directory, version))

    def head(self) -> int:
        """Newest *readable* version (0 = none) — with :meth:`generation`
        an engine's :class:`~repro.pipeline.swap.RuleSource`."""
        loaded = self.load_latest()
        return loaded.artifact.version if loaded else 0

    def generation(self, version: int) -> Optional[RuleGeneration]:
        """Generation ``version`` ready to stage (day index prebuilt),
        or ``None`` when the store no longer holds a readable one."""
        try:
            artifact = self.load_version(version)
        except ArtifactError:
            return None
        return RuleGeneration.prepare(
            version, artifact.rules, artifact.hitlist, build_index=True
        )

    def publish(
        self,
        rules: RuleSet,
        hitlist: Hitlist,
        validate: bool = True,
        max_coverage_drop: float = 0.5,
        max_coverage_growth: float = 20.0,
    ) -> RulesArtifact:
        """Validate and atomically publish the next generation.

        The version is allocated as ``latest_version() + 1``; with
        ``validate`` (the default) the candidate must pass
        :func:`validate_candidate` against the current last-good
        generation or :class:`CandidateRejected` propagates and the
        store is left untouched.
        """
        current = self.load_latest()
        version = self.latest_version() + 1
        candidate = RulesArtifact(
            version=version, rules=rules, hitlist=hitlist
        )
        if validate:
            validate_candidate(
                candidate,
                current=current.artifact if current else None,
                max_coverage_drop=max_coverage_drop,
                max_coverage_growth=max_coverage_growth,
            )
        write_artifact(artifact_path(self.directory, version), candidate)
        prune_sealed(self.directory, _FILE_RE, self.keep)
        return candidate
