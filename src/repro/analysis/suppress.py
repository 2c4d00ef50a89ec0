"""Suppression policy of ``python -m repro analyze``.

Three mechanisms:

* **line suppression** — flake8-style ``# noqa`` on the offending line: a
  blanket ``# noqa`` suppresses every code, ``# noqa: SPMD003`` one code,
  ``# noqa: SPMD003, SPMD101`` several.
* **file suppression** — a ``# repro: noqa`` comment in the first
  :data:`FILE_HEADER_LINES` lines suppresses the whole file (generated
  files, vendored code).
* **justification enforcement** — a code-listing suppression must carry a
  justification after the codes (``# noqa: SPMD003 — fixture exercises the
  hang path``).  A bare ``# noqa: SPMD003`` is itself reported as
  **SPMD007**: unreviewed suppressions are how real hazards hide.  A
  blanket ``# noqa`` stays legal (it also suppresses the SPMD007 on its own
  line), preserving compatibility with third-party tool conventions.
"""

from __future__ import annotations

import re
from typing import List, Sequence

from .rules import Finding

#: Lines at the top of a file searched for ``# repro: noqa``.
FILE_HEADER_LINES = 5

_NOQA_RE = re.compile(
    r"#\s*noqa(?!\w)(?::\s*(?P<codes>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*)"
    r"(?P<rest>[^#]*))?",
    re.IGNORECASE,
)
_FILE_NOQA_RE = re.compile(r"#\s*repro\s*:\s*noqa\b", re.IGNORECASE)
#: A justification needs at least one real word after the code list.
_JUSTIFIED_RE = re.compile(r"[A-Za-z][A-Za-z]+")

SPMD007_HINT = (
    "add a justification after the code list "
    "(# noqa: SPMD00N — why this is intentional)"
)


def file_suppressed(lines: Sequence[str]) -> bool:
    """Whether a ``# repro: noqa`` header opts the whole file out."""
    return any(
        _FILE_NOQA_RE.search(line)
        for line in lines[:FILE_HEADER_LINES]
    )


def line_suppressed(finding: Finding, lines: Sequence[str]) -> bool:
    """Whether a same-line ``# noqa`` comment covers this finding."""
    if not 0 < finding.line <= len(lines):
        return False
    match = _NOQA_RE.search(lines[finding.line - 1])
    if match is None:
        return False
    codes = match.group("codes")
    if codes is None:
        return True  # blanket "# noqa"
    allowed = {code.strip().upper() for code in codes.split(",")}
    return finding.code in allowed


def unjustified_findings(path: str, lines: Sequence[str]) -> List[Finding]:
    """SPMD007 findings for code-listing suppressions with no rationale."""
    findings: List[Finding] = []
    for lineno, line in enumerate(lines, start=1):
        match = _NOQA_RE.search(line)
        if match is None or match.group("codes") is None:
            continue
        rest = match.group("rest") or ""
        if _JUSTIFIED_RE.search(rest):
            continue
        findings.append(
            Finding(
                path=path,
                line=lineno,
                col=match.start(),
                code="SPMD007",
                message=(
                    f"suppression '# noqa: {match.group('codes').strip()}' "
                    f"has no justification; say why the hazard is "
                    f"intentional"
                ),
                hint=SPMD007_HINT,
            )
        )
    return findings


def apply(findings: List[Finding], source: str, path: str) -> List[Finding]:
    """Full suppression pass for one file's findings.

    Drops findings covered by file- or line-level suppressions and appends
    SPMD007 findings for bare code-listing suppressions — which are
    themselves subject to blanket ``# noqa`` and file-level suppression.
    """
    lines = source.splitlines()
    if file_suppressed(lines):
        return []
    findings = findings + unjustified_findings(path, lines)
    return [f for f in findings if not line_suppressed(f, lines)]
