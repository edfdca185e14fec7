"""Boundary validation for the configuration dataclasses.

``StudyConfig``, ``MachineConfig`` and ``ReplayConfig`` check their
values in ``__post_init__`` so a bad value fails where it enters, not as
a traceback deep in the simulator or as a silently odd artifact.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """A configuration value outside its valid range.

    A ``ValueError`` to library callers; the CLI prints it as one line
    and exits 2.
    """


def require(ok: bool, message: str) -> None:
    """Raise :class:`ConfigError` with ``message`` unless ``ok``.

    Write conditions as positive comparisons (``value > 0``) so a NaN
    fails them.
    """
    if not ok:
        raise ConfigError(message)
