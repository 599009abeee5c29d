"""Baseline suppression files for ``repro check``.

A baseline is a JSON document of *accepted* findings; anything matching
it is filtered out of a run, so a repository can adopt the analyzer
without first driving every legacy finding to zero.  Fingerprints are
``(rule, path, symbol)`` — deliberately not line numbers, so unrelated
edits above a finding do not invalidate the baseline.

Format::

    {"version": 1,
     "suppressions": [
        {"rule": "RPR611", "path": "src/repro/x.py", "symbol": "repro.x.f"}
     ]}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Set, Tuple, Union

from .findings import Finding

__all__ = [
    "BaselineError",
    "Fingerprint",
    "fingerprint",
    "load_baseline",
    "save_baseline",
    "apply_baseline",
]

Fingerprint = Tuple[str, str, str]


class BaselineError(ValueError):
    """The baseline file is malformed."""


def fingerprint(violation: Finding) -> Fingerprint:
    return (violation.rule, violation.path, violation.symbol)


def load_baseline(path: Union[str, Path]) -> Set[Fingerprint]:
    """Parse a baseline file into a set of fingerprints."""
    try:
        data: object = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
    if not isinstance(data, dict) or data.get("version") != 1:
        raise BaselineError(f"baseline {path}: expected {{'version': 1, ...}}")
    entries = data.get("suppressions", [])
    if not isinstance(entries, list):
        raise BaselineError(f"baseline {path}: 'suppressions' must be a list")
    fingerprints: Set[Fingerprint] = set()
    for entry in entries:
        if not isinstance(entry, dict) or not {"rule", "path"} <= set(entry):
            raise BaselineError(
                f"baseline {path}: each suppression needs 'rule' and 'path'"
            )
        fingerprints.add(
            (str(entry["rule"]), str(entry["path"]), str(entry.get("symbol", "")))
        )
    return fingerprints


def save_baseline(
    path: Union[str, Path], violations: Iterable[Finding]
) -> None:
    """Write the current findings as an accept-all baseline."""
    entries = sorted({fingerprint(v) for v in violations})
    payload = {
        "version": 1,
        "suppressions": [
            {"rule": rule, "path": file, "symbol": symbol}
            for rule, file, symbol in entries
        ],
    }
    Path(path).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )


def apply_baseline(
    violations: List[Finding], fingerprints: Set[Fingerprint]
) -> List[Finding]:
    """Drop violations whose fingerprint appears in the baseline."""
    return [v for v in violations if fingerprint(v) not in fingerprints]
