"""SARIF 2.1.0 export for ``repro check`` findings.

SARIF (Static Analysis Results Interchange Format) is what code-scanning
UIs ingest — the CI workflow uploads this file so findings annotate pull
requests.  We emit one run with every catalogued rule (the per-line
RPR1xx–5xx rules and the RPR6xx–8xx interprocedural families) in
``tool.driver.rules`` and one ``result`` per violation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Tuple, Union

__all__ = ["to_sarif", "write_sarif"]

#: A finding in its ``Violation.to_json`` dict shape.
FindingJson = Mapping[str, Any]

_SARIF_VERSION = "2.1.0"
_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def all_rules() -> List[Tuple[str, str, str]]:
    """Catalogue rows of every rule ``repro check`` can report."""
    # Imported here: the rule families themselves import this package.
    from ..check import FAMILIES
    from ..rules import rule_catalogue

    rows = list(rule_catalogue())
    for family in FAMILIES:
        rows += family.catalogue()
    return rows


def _rules_block() -> List[Dict[str, Any]]:
    return [
        {
            "id": rule_id,
            "name": rule_id,
            "shortDescription": {"text": title},
            "fullDescription": {"text": rationale},
            "defaultConfiguration": {"level": "error"},
        }
        for rule_id, title, rationale in all_rules()
    ]


def to_sarif(violations: Iterable[FindingJson]) -> Dict[str, Any]:
    """Render violation dicts (``Violation.to_json`` shape) as SARIF."""
    rules = _rules_block()
    index = {rule["id"]: i for i, rule in enumerate(rules)}
    results = []
    for violation in violations:
        rule_id = str(violation["rule"])
        results.append(
            {
                "ruleId": rule_id,
                "ruleIndex": index.get(rule_id, -1),
                "level": "error",
                "message": {"text": str(violation["message"])},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": str(violation["path"]).replace("\\", "/"),
                                "uriBaseId": "ROOTPATH",
                            },
                            "region": {
                                "startLine": max(1, int(violation["line"])),
                                "startColumn": max(1, int(violation["col"]) + 1),
                            },
                        }
                    }
                ],
            }
        )
    return {
        "$schema": _SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-check",
                        "informationUri": "https://example.invalid/repro",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def write_sarif(path: Union[str, Path], violations: Iterable[FindingJson]) -> None:
    Path(path).write_text(
        json.dumps(to_sarif(violations), indent=2) + "\n", encoding="utf-8"
    )
