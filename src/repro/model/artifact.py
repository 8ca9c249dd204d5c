"""Versioned, integrity-checked model artifacts.

An *artifact* is everything a scoring process needs to serve traffic without
retraining: the ensemble member weights, the fitted feature normalizer, the
per-member margin scales that pin batch-independent scoring, and a manifest
recording the codec/model/feature-stats versions plus a SHA-256 per payload
file.  The store keeps every published version side by side::

    <root>/
        CURRENT                    # name of the live version (atomic pointer)
        v0001-3fa9c1d2/
            manifest.json          # versions, config, sha256 per file
            normalizer.json
            members/member_0.npz
            members/member_1.npz
        v0002-8c77e0ab/
            ...

Publish is atomic and ordered: the version directory is staged under a
``.tmp`` name, every payload is written and fsynced, the manifest goes in
last, the directory is renamed into place, and only then is ``CURRENT``
swapped (tmp file + ``os.replace``).  A crash at any point leaves either the
previous version live or a ``.tmp`` stager that readers ignore — never a
half-published artifact behind the pointer.

Load refuses rather than guesses: a missing file, a checksum mismatch, or an
unsupported version raises :class:`~repro.errors.ArtifactError` (a
:class:`ModelError`), and :meth:`ArtifactStore.load_with_fallback` walks
older versions newest-first so a corrupted hot swap degrades to the last
good artifact instead of taking the service down.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ArtifactError
from ..features import Normalizer
from ..sim.trace import TRACE_VERSION
from ..telemetry import get_logger, log_event
from .perceptron import MODEL_VERSION, HashedPerceptron, ensemble_margins, trace_verdicts

logger = get_logger("repro.model.artifact")

#: bump when the manifest schema or directory layout changes
ARTIFACT_VERSION = 1

_CURRENT = "CURRENT"
_MANIFEST = "manifest.json"
_NORMALIZER = "normalizer.json"
_MEMBER_DIR = "members"


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _fsync_file(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class LoadedArtifact:
    """A fully verified artifact, ready to score."""

    version: str
    path: Path
    manifest: dict
    models: list[HashedPerceptron]
    normalizer: Normalizer
    scales: list[float]

    @property
    def n_features(self) -> int:
        return int(self.models[0].n_features)

    def score_rows(self, X: np.ndarray) -> np.ndarray:
        """Per-sample ensemble margins with the artifact's pinned scales —
        independent of how rows are batched."""
        Z = self.normalizer.transform(np.asarray(X, dtype=np.float64))
        return ensemble_margins(self.models, Z, self.scales)

    def score_traces(
        self, X: np.ndarray, groups: np.ndarray, n_traces: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(row margins, per-trace verdicts) for a stacked sample matrix.

        Pipeline eval scores with the same pinned scales it publishes here
        and reduces through the same :func:`trace_verdicts`, so a trace's
        verdict and mean margin from the daemon equal metrics.json's."""
        margins = self.score_rows(X)
        return margins, trace_verdicts(margins, groups, n_traces)[1]


@dataclass
class PublishResult:
    version: str
    path: Path
    manifest: dict = field(repr=False)


class ArtifactStore:
    """Directory of versioned artifacts with an atomic ``CURRENT`` pointer."""

    def __init__(self, root):
        self.root = Path(root)

    # -- naming ----------------------------------------------------------

    def versions(self) -> list[str]:
        """Published version names, oldest first (lexicographic: the serial
        prefix makes that creation order)."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.name
            for p in self.root.iterdir()
            if p.is_dir() and p.name.startswith("v") and not p.name.endswith(".tmp")
        )

    def current(self) -> str | None:
        """Name in the ``CURRENT`` pointer, or None when nothing is published."""
        try:
            name = (self.root / _CURRENT).read_text().strip()
        except OSError:
            return None
        return name or None

    def _next_version(self, digest: str) -> str:
        serials = [int(v[1:5]) for v in self.versions() if v[1:5].isdigit()]
        return f"v{(max(serials) + 1 if serials else 1):04d}-{digest[:8]}"

    # -- publish ---------------------------------------------------------

    def publish(
        self,
        models: list[HashedPerceptron],
        normalizer: Normalizer,
        scales: list[float],
        *,
        meta: dict | None = None,
        set_current: bool = True,
    ) -> PublishResult:
        """Stage, verify, and atomically publish a new artifact version.

        With ``set_current=False`` the version is fully published but the
        ``CURRENT`` pointer is left untouched — a **candidate** artifact that
        shadow traffic can score without any live reader seeing it.  Swap it
        in later with :meth:`promote`.
        """
        if not models:
            raise ArtifactError("cannot publish an empty ensemble")
        if len(scales) != len(models):
            raise ArtifactError(
                f"got {len(scales)} margin scales for {len(models)} members"
            )
        widths = {m.n_features for m in models}
        if len(widths) != 1:
            raise ArtifactError(f"ensemble members disagree on n_features: {sorted(widths)}")

        digest_seed = hashlib.sha256()
        for m in models:
            digest_seed.update(m.weights.tobytes())
        version = self._next_version(digest_seed.hexdigest())
        final = self.root / version
        stage = self.root / f"{version}.{os.getpid()}.tmp"
        try:
            (stage / _MEMBER_DIR).mkdir(parents=True)
            files: dict[str, str] = {}
            for k, model in enumerate(models):
                rel = f"{_MEMBER_DIR}/member_{k}.npz"
                model.save(stage / rel)
                _fsync_file(stage / rel)
                files[rel] = _sha256_file(stage / rel)
            normalizer.save(stage / _NORMALIZER)
            _fsync_file(stage / _NORMALIZER)
            files[_NORMALIZER] = _sha256_file(stage / _NORMALIZER)

            manifest = {
                "artifact_version": ARTIFACT_VERSION,
                "model_version": MODEL_VERSION,
                "trace_version": TRACE_VERSION,
                "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                "version": version,
                "n_members": len(models),
                "n_features": models[0].n_features,
                "margin_scales": [float(s) for s in scales],
                "files": files,
                "meta": dict(meta or {}),
            }
            manifest_path = stage / _MANIFEST
            manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
            _fsync_file(manifest_path)
            os.rename(stage, final)
        except ArtifactError:
            shutil.rmtree(stage, ignore_errors=True)
            raise
        except OSError as exc:
            shutil.rmtree(stage, ignore_errors=True)
            raise ArtifactError(f"cannot publish artifact under {self.root}: {exc}") from exc
        if set_current:
            self._set_current(version)
        log_event(
            logger,
            "artifact.publish",
            version=version,
            members=len(models),
            n_features=manifest["n_features"],
            current=set_current,
            root=str(self.root),
        )
        return PublishResult(version=version, path=final, manifest=manifest)

    def promote(self, version: str) -> None:
        """Atomically point ``CURRENT`` at an already-published version.

        This is the canary-gate passing move: a candidate published with
        ``set_current=False`` becomes live in one pointer swap, exactly the
        same swap a fresh publish performs.  Unknown versions are refused.
        """
        if version not in self.versions():
            raise ArtifactError(
                f"cannot promote unknown version {version!r} under {self.root}"
            )
        previous = self.current()
        self._set_current(version)
        log_event(logger, "artifact.promote", version=version, previous=previous)

    def _set_current(self, version: str) -> None:
        tmp = self.root / f".{_CURRENT}.{os.getpid()}.tmp"
        try:
            tmp.write_text(version + "\n")
            os.replace(tmp, self.root / _CURRENT)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise ArtifactError(f"cannot update {_CURRENT} pointer: {exc}") from exc

    # -- load ------------------------------------------------------------

    def load(self, version: str | None = None) -> LoadedArtifact:
        """Load and fully verify one version (default: ``CURRENT``).

        Raises :class:`ArtifactError` on any missing file, checksum or
        version mismatch — the artifact is refused whole.
        """
        if version is None:
            version = self.current()
            if version is None:
                raise ArtifactError(f"no {_CURRENT} pointer under {self.root}")
        path = self.root / version
        manifest = self._read_manifest(path)
        self._verify_checksums(path, manifest)

        try:
            normalizer = Normalizer.load(path / _NORMALIZER)
        except Exception as exc:
            raise ArtifactError(f"{version}: bad normalizer stats: {exc}") from exc
        member_rels = sorted(f for f in manifest["files"] if f.startswith(_MEMBER_DIR + "/"))
        if len(member_rels) != int(manifest.get("n_members", -1)):
            raise ArtifactError(
                f"{version}: manifest lists {len(member_rels)} member files "
                f"but n_members={manifest.get('n_members')}"
            )
        models = [HashedPerceptron.load(path / rel) for rel in member_rels]
        widths = {m.n_features for m in models}
        if widths != {int(manifest["n_features"])}:
            raise ArtifactError(
                f"{version}: member widths {sorted(widths)} disagree with "
                f"manifest n_features={manifest['n_features']}"
            )
        scales = [float(s) for s in manifest["margin_scales"]]
        if len(scales) != len(models) or not all(np.isfinite(s) and s >= 0 for s in scales):
            raise ArtifactError(f"{version}: invalid margin_scales {scales}")
        if normalizer.mean.shape[0] != int(manifest["n_features"]):
            raise ArtifactError(
                f"{version}: normalizer width {normalizer.mean.shape[0]} disagrees "
                f"with manifest n_features={manifest['n_features']}"
            )
        log_event(logger, "artifact.load", version=version, members=len(models))
        return LoadedArtifact(
            version=version,
            path=path,
            manifest=manifest,
            models=models,
            normalizer=normalizer,
            scales=scales,
        )

    def _read_manifest(self, path: Path) -> dict:
        try:
            manifest = json.loads((path / _MANIFEST).read_text())
        except OSError as exc:
            raise ArtifactError(f"cannot read manifest under {path}: {exc}") from exc
        except ValueError as exc:
            raise ArtifactError(f"manifest under {path} is not valid JSON: {exc}") from exc
        if not isinstance(manifest, dict):
            raise ArtifactError(f"manifest under {path} is not a JSON object")
        if manifest.get("artifact_version") != ARTIFACT_VERSION:
            raise ArtifactError(
                f"unsupported artifact version {manifest.get('artifact_version')!r} "
                f"under {path}, expected {ARTIFACT_VERSION}"
            )
        if manifest.get("model_version") != MODEL_VERSION:
            raise ArtifactError(
                f"artifact under {path} was built for model version "
                f"{manifest.get('model_version')!r}, this build expects {MODEL_VERSION}"
            )
        for key in ("files", "margin_scales", "n_features", "n_members"):
            if key not in manifest:
                raise ArtifactError(f"manifest under {path} is missing {key!r}")
        return manifest

    def _verify_checksums(self, path: Path, manifest: dict) -> None:
        for rel, expected in sorted(manifest["files"].items()):
            target = path / rel
            if not target.is_file():
                raise ArtifactError(f"artifact file {rel} is missing under {path}")
            actual = _sha256_file(target)
            if actual != expected:
                raise ArtifactError(
                    f"checksum mismatch for {rel} under {path}: "
                    f"manifest says {expected[:12]}…, file is {actual[:12]}…"
                )

    def load_with_fallback(self, *, skip: set[str] | None = None) -> LoadedArtifact:
        """Load ``CURRENT``; on failure walk older versions newest-first and
        serve the first one that verifies.  This is the hot-reload safety
        net: a corrupt publish degrades to the last good artifact."""
        skip = skip or set()
        tried: list[str] = []
        candidates: list[str] = []
        current = self.current()
        if current is not None and current not in skip:
            candidates.append(current)
        for version in reversed(self.versions()):
            if version not in candidates and version not in skip:
                candidates.append(version)
        for version in candidates:
            try:
                loaded = self.load(version)
            except ArtifactError as exc:
                tried.append(version)
                # WARNING, not INFO: every skipped version is a bad publish
                # an operator must eventually clean up, and walking past one
                # silently is how a store fills with corrupt artifacts
                log_event(
                    logger,
                    "artifact.fallback",
                    level=logging.WARNING,
                    version=version,
                    error=type(exc).__name__,
                    reason=str(exc)[:160],
                )
                continue
            if tried:
                log_event(
                    logger,
                    "artifact.degraded",
                    level=logging.WARNING,
                    serving=version,
                    refused=",".join(tried),
                )
            return loaded
        raise ArtifactError(
            f"no loadable artifact under {self.root} "
            f"(tried {tried or 'nothing — store is empty'})"
        )
