"""Expectations that depend on ``REPRO_CHECKED_ENGINES``.

The checked-tier1 CI job exports ``REPRO_CHECKED_ENGINES=1``, which
makes ``resolve_engine`` wrap every engine in
:class:`~repro.parallel.checked.CheckedEngine`: names read
``checked(<name>)`` and the backend sits behind ``.inner``.  Tests that
assert an engine's name or type use these helpers so they hold with
and without the variable.
"""

from __future__ import annotations

import os
from typing import Any

#: Same parse as ``resolve_engine``: unset, ``""``, ``"0"`` and
#: ``"false"`` leave engines unwrapped.
CHECKED_ENGINES = os.environ.get("REPRO_CHECKED_ENGINES", "").strip() not in (
    "",
    "0",
    "false",
)


def engine_label(name: str) -> str:
    """The name a resolved ``name`` engine reports."""
    return f"checked({name})" if CHECKED_ENGINES else name


def unwrap_checked(engine: Any) -> Any:
    """The backend behind the checked wrapper (``engine`` itself when
    the variable is unset)."""
    return engine.inner if CHECKED_ENGINES else engine
