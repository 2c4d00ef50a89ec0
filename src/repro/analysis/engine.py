"""The SPMD analyzer: ``python -m repro analyze``.

Pipeline, per invocation:

1. parse every ``.py`` file under the given paths into one
   :class:`~repro.analysis.program.Program` (whole-program, so taint
   follows calls across files, resolved through each module's imports);
2. run the **summary fixpoint** as a worklist over every body — module
   function, method, nested ``def`` and each module's top-level
   ``<module>`` code: a body's CFG dataflow environments, return tokens,
   collective sequence and divergence-prone parameters are recomputed only
   when a callee's summary changed, in program order, each body at most
   :data:`MAX_ROUNDS` times so recursion terminates;
3. every recomputation scans the body with the rules (``rules.py``), so
   each body's last scan already holds its findings under the converged
   summaries; only a body whose callees changed after its cap ran out is
   scanned once more;
4. apply the suppression policy (``# noqa`` with justification,
   ``# repro: noqa`` file headers, SPMD007 for bare suppressions);
5. diff against the committed baseline (``repro.analysis/1``) and render
   text, JSON, or SARIF — all three byte-deterministic for identical
   inputs, which CI verifies by diffing two runs.

The baseline stores findings with paths relative to the baseline file's own
directory, so a baseline committed at the repo root matches regardless of
how the analyzed paths were spelled on the command line.
"""

from __future__ import annotations

import argparse
import ast
import heapq
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from . import suppress
from .cfg import build_cfg, dataflow
from .program import FunctionInfo, Program, module_name
from .rules import HINTS, Finding, FunctionScan
from .taint import (
    COLLECTIVE_CALLS,
    Evaluator,
    Summary,
    initial_env,
    make_transfer,
)

SCHEMA = "repro.analysis/1"

#: Recomputations allowed per body; token sets are finite so convergence is
#: fast, and genuine recursion cycles stabilize within a few rounds.
MAX_ROUNDS = 10


class FlowAnalyzer:
    """Whole-program analysis over a set of parsed modules."""

    def __init__(self, sources: Dict[str, str]) -> None:
        self.sources = sources
        self.program = Program(COLLECTIVE_CALLS)
        self.parse_findings: List[Finding] = []
        known = set(sources)
        for path in sorted(sources):
            try:
                tree = ast.parse(sources[path], filename=path)
            except SyntaxError as exc:
                self.parse_findings.append(
                    Finding(
                        path=path,
                        line=exc.lineno or 1,
                        col=exc.offset or 0,
                        code="SPMD000",
                        message=f"syntax error: {exc.msg}",
                        hint="fix the syntax error so the file can be analyzed",
                    )
                )
                continue
            self.program.add_module(path, module_name(path, known), tree)

    def _scan(
        self, info: FunctionInfo, summaries: Dict[int, Summary]
    ) -> Tuple[Summary, List[Finding]]:
        """Dataflow environments of one body, then its rule scan."""
        env_at = dataflow(
            build_cfg(info.body),
            initial_env(info),
            make_transfer(Evaluator(self.program, summaries, info)),
        )
        return FunctionScan(info, self.program, summaries, env_at).run()

    # -- analysis ----------------------------------------------------------

    def run(self) -> List[Finding]:
        functions = self.program.functions
        index = {id(f.node): i for i, f in enumerate(functions)}
        callers: List[Set[int]] = [set() for _ in functions]
        for i, info in enumerate(functions):
            for target in self.program.callees(info):
                callers[index[id(target.node)]].add(i)
        summaries: Dict[int, Summary] = {
            id(f.node): Summary() for f in functions
        }
        findings_of: List[List[Finding]] = [[] for _ in functions]
        runs = [0] * len(functions)
        stale: Set[int] = set()
        queue = list(range(len(functions)))
        queued = set(queue)
        while queue:
            i = heapq.heappop(queue)
            queued.discard(i)
            info = functions[i]
            runs[i] += 1
            new, findings_of[i] = self._scan(info, summaries)
            stale.discard(i)
            if new == summaries[id(info.node)]:
                continue
            summaries[id(info.node)] = new
            for caller in callers[i]:
                if runs[caller] >= MAX_ROUNDS:
                    stale.add(caller)
                elif caller not in queued:
                    heapq.heappush(queue, caller)
                    queued.add(caller)
        for i in sorted(stale):
            findings_of[i] = self._scan(functions[i], summaries)[1]

        findings = list(self.parse_findings)
        for found in findings_of:
            findings.extend(found)
        return self._suppress_and_sort(findings)

    def _suppress_and_sort(self, findings: List[Finding]) -> List[Finding]:
        by_path: Dict[str, List[Finding]] = {}
        for finding in findings:
            by_path.setdefault(finding.path, []).append(finding)
        out: List[Finding] = []
        for path in sorted(self.sources):
            out.extend(
                suppress.apply(by_path.get(path, []), self.sources[path], path)
            )
        seen: Set[Tuple] = set()
        unique: List[Finding] = []
        for finding in sorted(
            out, key=lambda f: (f.path, f.line, f.col, f.code, f.message)
        ):
            key = (finding.path, finding.line, finding.col, finding.code)
            if key not in seen:
                seen.add(key)
                unique.append(finding)
        return unique


def analyze_source(source: str, path: str = "<string>") -> List[Finding]:
    """Analyze one source string (the fixture-corpus entry point)."""
    return FlowAnalyzer({path: source}).run()


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files and directory trees into a sorted ``.py`` stream."""
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path
        elif not path.exists():
            raise FileNotFoundError(f"analysis target does not exist: {path}")


def analyze_paths(paths: Iterable[Path]) -> List[Finding]:
    """Analyze every ``.py`` file under ``paths`` as one program."""
    sources: Dict[str, str] = {}
    for file_path in iter_python_files(paths):
        sources[str(file_path)] = Path(file_path).read_text(encoding="utf-8")
    return FlowAnalyzer(sources).run()


# -- baseline --------------------------------------------------------------


def _baseline_key(finding: Finding, anchor: Path) -> Tuple:
    path = Path(finding.path)
    try:
        path = path.resolve().relative_to(anchor.resolve())
    except (ValueError, OSError):
        pass
    return (path.as_posix(), finding.code, finding.line, finding.message)


def write_baseline(
    baseline_path: Path, findings: Sequence[Finding]
) -> None:
    anchor = baseline_path.parent
    entries = [
        {
            "path": _baseline_key(f, anchor)[0],
            "code": f.code,
            "line": f.line,
            "message": f.message,
        }
        for f in findings
    ]
    entries.sort(key=lambda e: (e["path"], e["line"], e["code"]))
    doc = {"schema": SCHEMA, "findings": entries}
    baseline_path.write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_baseline(baseline_path: Path) -> Set[Tuple]:
    doc = json.loads(baseline_path.read_text(encoding="utf-8"))
    if doc.get("schema") != SCHEMA:
        raise ValueError(
            f"baseline {baseline_path} has schema "
            f"{doc.get('schema')!r}, expected {SCHEMA!r}"
        )
    return {
        (e["path"], e["code"], e["line"], e["message"])
        for e in doc.get("findings", [])
    }


def split_baselined(
    findings: Sequence[Finding],
    baseline: Set[Tuple],
    anchor: Path,
) -> Tuple[List[Finding], List[Finding]]:
    """Partition findings into (new, baselined)."""
    new: List[Finding] = []
    old: List[Finding] = []
    for finding in findings:
        if _baseline_key(finding, anchor) in baseline:
            old.append(finding)
        else:
            new.append(finding)
    return new, old


# -- output formats --------------------------------------------------------


def format_text(
    findings: Sequence[Finding], baselined: Sequence[Finding] = ()
) -> str:
    lines = [f"{f.format()}\n    hint: {f.hint}" for f in findings]
    summary = (
        f"{len(findings)} new finding(s)"
        if findings
        else "clean: 0 new findings"
    )
    if baselined:
        summary += f" ({len(baselined)} baselined)"
    lines.append(summary)
    return "\n".join(lines)


def format_json(
    findings: Sequence[Finding], baselined: Sequence[Finding] = ()
) -> str:
    counts: Dict[str, int] = {}
    for finding in list(findings) + list(baselined):
        counts[finding.code] = counts.get(finding.code, 0) + 1
    doc = {
        "schema": SCHEMA,
        "counts": counts,
        "new": [asdict(f) for f in findings],
        "baselined": [asdict(f) for f in baselined],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def format_sarif(
    findings: Sequence[Finding], baselined: Sequence[Finding] = ()
) -> str:
    """Minimal SARIF 2.1.0 — one run, one result per finding."""
    rule_ids = sorted(
        {f.code for f in list(findings) + list(baselined)} | set(HINTS)
    )
    results = []
    for finding, suppressed in [(f, False) for f in findings] + [
        (f, True) for f in baselined
    ]:
        result = {
            "ruleId": finding.code,
            "level": "warning",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": Path(finding.path).as_posix()
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        if suppressed:
            result["suppressions"] = [{"kind": "external"}]
        results.append(result)
    doc = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analyze",
                        "informationUri": "https://example.invalid/repro",
                        "rules": [
                            {
                                "id": rule_id,
                                "shortDescription": {
                                    "text": HINTS.get(rule_id, rule_id)
                                },
                            }
                            for rule_id in rule_ids
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


# -- CLI -------------------------------------------------------------------


def default_target() -> Path:
    """With no explicit paths, analyze the installed ``repro`` package."""
    return Path(__file__).resolve().parent.parent


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``analyze`` arguments, shared by :func:`main` and ``repro.cli``."""
    parser.add_argument(
        "paths", nargs="*", help="files/dirs (default: the repro package)"
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="accepted-findings file (repro.analysis/1)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the --baseline file from the current findings",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro analyze")
    add_arguments(parser)
    return run(parser.parse_args(argv))


def run(args: argparse.Namespace) -> int:
    """Analyze, gate against the baseline, print; 1 on new findings, 2 on
    a bad path or baseline."""
    paths = [Path(p) for p in args.paths] or [default_target()]
    try:
        findings = analyze_paths(paths)
    except OSError as exc:
        print(f"repro analyze: error: {exc}", file=sys.stderr)
        return 2

    baselined: List[Finding] = []
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
        if args.write_baseline:
            write_baseline(baseline_path, findings)
            print(
                f"wrote {len(findings)} finding(s) to {baseline_path}",
                file=sys.stderr,
            )
            return 0
        try:
            baseline = load_baseline(baseline_path)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"repro analyze: bad baseline: {exc}", file=sys.stderr)
            return 2
        findings, baselined = split_baselined(
            findings, baseline, baseline_path.parent
        )
    elif args.write_baseline:
        print(
            "repro analyze: --write-baseline requires --baseline",
            file=sys.stderr,
        )
        return 2

    formatter = {
        "text": format_text,
        "json": format_json,
        "sarif": format_sarif,
    }[args.format]
    print(formatter(findings, baselined))
    return 1 if findings else 0
