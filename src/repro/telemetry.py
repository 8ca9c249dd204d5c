"""Structured logging shared by every layer.

Events are single-line ``key=value`` records with a fixed ``event`` field so
they stay grep-able and machine-parseable without pulling in a logging
framework.  Error-ish events carry the shared error taxonomy ``code`` from
:mod:`repro.errors` so logs, quarantine manifests, and metrics all speak the
same vocabulary.

Configuration is idempotent by *inspection*, not by module global alone: the
handler installed by :func:`get_logger` is tagged, and configuration checks
for the tag on the ``repro`` root logger before adding another.  This keeps
re-imports (pytest's rootdir shuffling can import this module twice under
two names) from double-configuring and duplicating every log line.
:func:`reset_logging` tears the handler down again for tests.
"""

from __future__ import annotations

import logging
import sys
import time
from contextlib import contextmanager

#: attribute stamped on the handler this module installs, so configuration
#: can be detected even when the module is re-imported under a fresh name
#: (a fresh module gets a fresh ``_CONFIGURED`` global, but the logging
#: hierarchy is process-wide).
_HANDLER_TAG = "_repro_telemetry_handler"

_CONFIGURED = False


def _our_handlers(root: logging.Logger) -> list[logging.Handler]:
    return [h for h in root.handlers if getattr(h, _HANDLER_TAG, False)]


def _ensure_configured() -> None:
    global _CONFIGURED
    root = logging.getLogger("repro")
    installed = _our_handlers(root)
    if _CONFIGURED and installed:
        return
    if not installed:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(name)s %(message)s"))
        setattr(handler, _HANDLER_TAG, True)
        root.addHandler(handler)
        root.setLevel(logging.INFO)
        root.propagate = False
    _CONFIGURED = True


def get_logger(name: str) -> logging.Logger:
    """Return a logger under the ``repro`` hierarchy, configuring the root
    handler once (stderr, so stdout stays free for machine output)."""
    _ensure_configured()
    if name.startswith("repro"):
        return logging.getLogger(name)
    return logging.getLogger("repro").getChild(name)


def reset_logging() -> None:
    """Remove the handler(s) this module installed and forget the configured
    state.  Test hook: lets suites assert clean (re)configuration without
    leaking handlers between tests or duplicating output."""
    global _CONFIGURED
    root = logging.getLogger("repro")
    for handler in _our_handlers(root):
        root.removeHandler(handler)
        handler.close()
    _CONFIGURED = False


def fmt_event(event: str, **fields: object) -> str:
    """Render ``event=... k=v ...`` with stable field order and quoting of
    values containing whitespace."""
    parts = [f"event={event}"]
    for key, value in fields.items():
        text = str(value)
        if any(ch.isspace() for ch in text):
            text = repr(text)
        parts.append(f"{key}={text}")
    return " ".join(parts)


def log_event(logger: logging.Logger, event: str, *, level: int = logging.INFO, **fields) -> None:
    # formatting costs microseconds per event; a disabled one costs nothing
    if logger.isEnabledFor(level):
        logger.log(level, fmt_event(event, **fields))


@contextmanager
def span(logger: logging.Logger, name: str, **fields):
    """Log a ``<name>.start`` / ``<name>.done`` pair around a block, with
    elapsed seconds on the closing event (``<name>.error`` + the exception's
    taxonomy code when the block raises).  The yielded dict is merged into
    the closing event, so callers can attach results discovered inside the
    span (counts, cache hits, ...) without a second log call."""
    extra: dict[str, object] = {}
    log_event(logger, f"{name}.start", **fields)
    t0 = time.monotonic()
    try:
        yield extra
    except Exception as exc:
        log_event(
            logger,
            f"{name}.error",
            level=logging.ERROR,
            elapsed=f"{time.monotonic() - t0:.3f}",
            error=f"{type(exc).__name__}: {exc}",
            code=getattr(exc, "code", "-"),
            **fields,
        )
        raise
    log_event(
        logger,
        f"{name}.done",
        elapsed=f"{time.monotonic() - t0:.3f}",
        **{**fields, **extra},
    )
