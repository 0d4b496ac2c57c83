"""Fixtures shared by every test module."""

import pytest

import repro.log

from .helpers import force_kernel  # noqa: F401  (registers the fixture)


@pytest.fixture(autouse=True)
def _isolated_sweep_cache(monkeypatch, tmp_path_factory):
    """Point the default sweep cache at a fresh per-test directory.

    CLI runs and sweeps memoize trials under ``$BICORD_SWEEP_CACHE`` (else
    ``~/.cache/bicord/sweeps``); the suite must neither read stale entries
    from nor write into the user's cache.  The directory is not the test's
    own ``tmp_path``, so tests asserting on that stay unaffected.
    """
    monkeypatch.setenv("BICORD_SWEEP_CACHE", str(tmp_path_factory.mktemp("sweeps")))


@pytest.fixture(autouse=True)
def _repro_log_to_caplog(caplog, monkeypatch):
    """Route the ``repro`` logger into ``caplog`` instead of stderr.

    The CLI installs a stderr handler the first time it configures
    logging; marking logging as configured leaves it only setting the
    level, so sweep and campaign progress lands in the test's captured
    log and the suite writes nothing to stderr.
    """
    logger = repro.log.get_logger()
    level = logger.level
    monkeypatch.setattr(repro.log, "_configured", True)
    monkeypatch.setattr(logger, "handlers", [caplog.handler])
    yield
    logger.setLevel(level)
