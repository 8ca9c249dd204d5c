"""Telemetry configuration must be idempotent -- including across the
re-import scenario pytest can trigger -- and resettable for tests."""

from __future__ import annotations

import logging

from repro import telemetry


def _tagged_handlers() -> list[logging.Handler]:
    root = logging.getLogger("repro")
    return [h for h in root.handlers if getattr(h, telemetry._HANDLER_TAG, False)]


def teardown_module() -> None:
    # leave the process configured the way every other test expects
    telemetry.reset_logging()
    telemetry.get_logger("repro")


def test_get_logger_configures_exactly_once():
    telemetry.reset_logging()
    for name in ("repro.a", "repro.b", "other", "repro.a"):
        telemetry.get_logger(name)
    assert len(_tagged_handlers()) == 1


def test_reimport_with_stale_global_does_not_double_configure():
    """A re-imported module copy starts with ``_CONFIGURED = False`` while the
    process-wide logging tree is already configured; configuration must detect
    the installed handler instead of trusting the module global."""
    telemetry.reset_logging()
    telemetry.get_logger("repro.first")
    assert len(_tagged_handlers()) == 1
    telemetry._CONFIGURED = False  # simulate the fresh module copy
    telemetry.get_logger("repro.second")
    assert len(_tagged_handlers()) == 1


def test_reset_logging_removes_handler_and_allows_reconfigure():
    telemetry.get_logger("repro.x")
    telemetry.reset_logging()
    assert _tagged_handlers() == []
    assert telemetry._CONFIGURED is False
    telemetry.get_logger("repro.x")
    assert len(_tagged_handlers()) == 1


def test_reset_logging_is_idempotent():
    telemetry.reset_logging()
    telemetry.reset_logging()
    assert _tagged_handlers() == []


def test_logger_names_join_the_repro_hierarchy():
    telemetry.reset_logging()
    assert telemetry.get_logger("repro.ingest").name == "repro.ingest"
    assert telemetry.get_logger("ingest").name == "repro.ingest"


def test_handler_is_not_duplicated_in_captured_output(capsys):
    telemetry.reset_logging()
    logger = telemetry.get_logger("repro.dup_check")
    telemetry.get_logger("repro.dup_check")  # second configure attempt
    logger.info(telemetry.fmt_event("dup.check", n=1))
    err = capsys.readouterr().err
    assert err.count("event=dup.check") == 1


def test_fmt_event_field_order_and_quoting():
    line = telemetry.fmt_event("x.y", b=2, a="has space")
    assert line == "event=x.y b=2 a='has space'"


def test_disabled_log_event_never_formats_its_fields(capsys):
    """An event below the logger's level costs nothing: its fields are never
    rendered, so per-trace DEBUG events are free at the default INFO."""
    telemetry.reset_logging()
    logger = telemetry.get_logger("repro.lazy_check")

    class Unprintable:
        def __str__(self):
            raise AssertionError("a disabled event formatted its fields")

    assert logger.getEffectiveLevel() == logging.INFO
    telemetry.log_event(logger, "lazy.debug", level=logging.DEBUG, field=Unprintable())
    telemetry.log_event(logger, "lazy.info", n=1)
    err = capsys.readouterr().err
    assert "event=lazy.debug" not in err
    assert "event=lazy.info n=1" in err


# -- span ------------------------------------------------------------------


def test_span_logs_start_and_done_with_elapsed(capsys):
    telemetry.reset_logging()
    logger = telemetry.get_logger("repro.span_check")
    with telemetry.span(logger, "stage", items=3):
        pass
    err = capsys.readouterr().err
    assert "event=stage.start items=3" in err
    assert "event=stage.done elapsed=" in err
    assert "items=3" in err.splitlines()[-1]


def test_span_merges_yielded_fields_into_done_event(capsys):
    telemetry.reset_logging()
    logger = telemetry.get_logger("repro.span_check")
    with telemetry.span(logger, "stage") as extra:
        extra["hits"] = 5
    err = capsys.readouterr().err
    done = [line for line in err.splitlines() if "event=stage.done" in line]
    assert len(done) == 1
    assert "hits=5" in done[0]


def test_span_logs_error_with_taxonomy_code_and_reraises(capsys):
    from repro.errors import IngestError

    telemetry.reset_logging()
    logger = telemetry.get_logger("repro.span_check")
    try:
        with telemetry.span(logger, "stage"):
            raise IngestError("boom")
    except IngestError:
        pass
    else:  # pragma: no cover - the span must re-raise
        raise AssertionError("span swallowed the exception")
    err = capsys.readouterr().err
    error_lines = [line for line in err.splitlines() if "event=stage.error" in line]
    assert len(error_lines) == 1
    assert "error='IngestError: boom'" in error_lines[0]
    assert "code=ingest_error" in error_lines[0]
    assert "event=stage.done" not in err


def test_span_error_for_plain_exception_uses_dash_code(capsys):
    telemetry.reset_logging()
    logger = telemetry.get_logger("repro.span_check")
    try:
        with telemetry.span(logger, "stage"):
            raise ValueError("plain")
    except ValueError:
        pass
    err = capsys.readouterr().err
    assert "code=-" in err
