"""Linter engine: file walking, suppressions, and reporting.

v1 of the engine was strictly per-file: parse, run every rule, filter
through the inline-suppression table.  v2 layers the whole-program
analysis on top without changing that contract:

* every file is still parsed once and handed to the per-file rules
  (:mod:`repro.lint.rules`, BRS001–BRS009);
* the same parse of each ``repro.*`` module is distilled into *facts*
  (:mod:`repro.lint.project`), which feed the project model and the
  interprocedural rules (:mod:`repro.lint.wholeprogram`,
  BRS010–BRS013).

Suppression syntax (the reason is mandatory)::

    expr()  # repro-lint: disable=BRS001 fixture exercises the bad API
    # repro-lint: disable=BRS002,BRS006 reason text     (whole next line)

A comment-only suppression line applies to the next source line, so
multi-line statements can be suppressed without trailing comments.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import re
import time as _time
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

from .project import ModuleFacts, Project, extract_facts

__all__ = [
    "Violation",
    "FileContext",
    "LintReport",
    "iter_python_files",
    "lint_source",
    "lint_file",
    "lint_paths",
    "report_as_dict",
    "REPORT_SCHEMA_VERSION",
]

#: Pseudo-rule reported when a suppression comment carries no reason.
SUPPRESSION_CODE = "BRS000"

#: Bumped on incompatible JSON-report layout changes.  v2 added
#: ``schema_version`` itself and per-rule wall-time ``rule_timings``;
#: v3 dropped the cache and baseline fields.
REPORT_SCHEMA_VERSION = 3

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)(.*)$"
)


@dataclasses.dataclass(frozen=True)
class Violation:
    """One rule hit: where it is and what discipline it breaks."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Interprocedural rules attach the offending call chain (one
    #: ``path:line: qualname()`` entry per hop, ending at the sink).
    chain: Optional[Tuple[str, ...]] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (one array entry in the report)."""
        out: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.chain is not None:
            out["chain"] = list(self.chain)
        return out

    def render(self) -> str:
        """``path:line:col: RULE message`` — editor-clickable; chains
        render one indented hop per line."""
        head = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if not self.chain:
            return head
        hops = "\n".join(f"    {hop}" for hop in self.chain)
        return f"{head}\n{hops}"


@dataclasses.dataclass
class FileContext:
    """Everything a per-file rule may inspect about one file."""

    path: str
    module: Tuple[str, ...]
    tree: ast.Module
    source_lines: List[str]

    def in_packages(self, *packages: str) -> bool:
        """True when the file lives under ``repro.<package>`` for any given
        package name (``core``, ``overlay``, ``experiments``, ...)."""
        if len(self.module) < 2 or self.module[0] != "repro":
            return False
        return self.module[1] in packages

    def is_module(self, *parts: str) -> bool:
        """True when the dotted module path equals ``parts`` exactly."""
        return self.module == parts


@dataclasses.dataclass
class LintReport:
    """Aggregate result of one lint run."""

    files: int
    violations: List[Violation]
    #: Per-rule wall time in seconds (whole-program rules included).
    rule_timings: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.violations

    def counts(self) -> Dict[str, int]:
        """Violation count per rule code, sorted by code."""
        out: Dict[str, int] = {}
        for v in sorted(self.violations, key=lambda v: v.rule):
            out[v.rule] = out.get(v.rule, 0) + 1
        return out


def _module_parts(path: str) -> Tuple[str, ...]:
    """Best-effort dotted module path: everything from the last ``repro``
    path segment on (``src/repro/core/ldt.py`` → ``("repro","core","ldt")``).

    Files outside a ``repro`` tree (tests, benchmarks) keep their own
    trailing segments so path-scoped rules simply never match them.
    """
    norm = path.replace(os.sep, "/")
    parts = [p for p in norm.split("/") if p and p != "."]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "repro" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return tuple(parts)


def _parse_suppressions(
    source_lines: Sequence[str], path: str
) -> Tuple[Dict[int, Set[str]], List[Violation]]:
    """Scan source lines for suppression comments.

    Returns ``line → {codes}`` (comment-only lines also cover the next
    line) plus the BRS000 violations for reasonless suppressions.
    """
    table: Dict[int, Set[str]] = {}
    problems: List[Violation] = []
    for lineno, line in enumerate(source_lines, start=1):
        m = _SUPPRESS_RE.search(line)
        if m is None:
            continue
        codes = {c.strip() for c in m.group(1).split(",")}
        reason = m.group(2).strip()
        if not reason:
            problems.append(
                Violation(
                    rule=SUPPRESSION_CODE,
                    path=path,
                    line=lineno,
                    col=line.index("#"),
                    message="suppression comment must state a reason "
                    "(# repro-lint: disable=BRS00X <why>)",
                )
            )
            continue
        table.setdefault(lineno, set()).update(codes)
        if line.lstrip().startswith("#"):
            # Comment-only line: the suppression targets the next line.
            table.setdefault(lineno + 1, set()).update(codes)
    return table, problems


def _selected_codes(
    select: Optional[Iterable[str]], ignore: Optional[Iterable[str]]
) -> Set[str]:
    from .rules import RULES
    from .wholeprogram import PROJECT_RULES

    known = set(RULES) | set(PROJECT_RULES)
    codes = set(select) if select else set(known)
    if ignore:
        codes -= set(ignore)
    unknown = codes - known
    if unknown:
        raise ValueError(f"unknown rule code(s): {sorted(unknown)}")
    return codes


def _lint_tree(
    tree: ast.Module,
    path: str,
    lines: List[str],
    codes: Set[str],
    timings: Dict[str, float],
) -> List[Violation]:
    """Run the selected per-file rules over one parsed tree, adding each
    rule's wall time to ``timings``; violations are returned *before*
    suppression filtering."""
    from .rules import RULES

    ctx = FileContext(
        path=path, module=_module_parts(path), tree=tree, source_lines=lines
    )
    found: List[Violation] = []
    for code, rule in RULES.items():
        if code not in codes:
            continue
        t0 = _time.perf_counter()
        found.extend(rule.check(ctx))
        timings[code] = timings.get(code, 0.0) + (_time.perf_counter() - t0)
    return found


@dataclasses.dataclass
class _FileEntry:
    """One analyzed file: its reported violations plus what the
    whole-program pass needs."""

    path: str
    #: BRS000, PARSE and the unsuppressed per-file rule hits.
    violations: List[Violation]
    suppressions: Dict[int, Set[str]]
    #: ``None`` on a parse error or when facts were not requested.
    facts: Optional[ModuleFacts]


def _analyze_source(
    source: str,
    path: str,
    codes: Set[str],
    timings: Dict[str, float],
    *,
    want_facts: bool = False,
) -> _FileEntry:
    """Parse + suppressions + per-file rules (+ facts) for one file.

    Syntax errors are *reported*, never raised: the file contributes a
    single PARSE violation and is excluded from the project model.
    """
    lines = source.splitlines()
    suppressions, found = _parse_suppressions(lines, path)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        found.append(
            Violation(
                rule="PARSE",
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"syntax error: {exc.msg}",
            )
        )
        return _FileEntry(path, found, suppressions, None)
    for v in _lint_tree(tree, path, lines, codes, timings):
        if v.rule not in suppressions.get(v.line, ()):
            found.append(v)
    facts = extract_facts(tree, path, _module_parts(path)) if want_facts else None
    return _FileEntry(path, found, suppressions, facts)


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint one source string as though it lived at ``path``.

    Runs the per-file rules only (whole-program rules need a project;
    see :func:`lint_paths`).  ``path`` drives the path-scoped rules
    (BRS002 only fires under ``repro/core|overlay|experiments``), which
    is what the fixture tests exploit: the same snippet can be checked
    in and out of scope.
    """
    codes = _selected_codes(select, ignore)
    entry = _analyze_source(source, path, codes, {})
    return sorted(entry.violations, key=lambda v: (v.line, v.col, v.rule))


def lint_file(
    path: str,
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint one file on disk (per-file rules only)."""
    with open(path, encoding="utf-8") as fh:
        return lint_source(fh.read(), path, select=select, ignore=ignore)


#: Directory names never descended into.
SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", "build", "dist"}


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield every ``.py`` file under ``paths`` (files pass through as-is),
    in sorted order so reports are stable across filesystems."""
    for target in paths:
        if os.path.isfile(target):
            yield target
            continue
        for dirpath, dirnames, filenames in os.walk(target):
            dirnames[:] = sorted(
                d for d in dirnames if d not in SKIP_DIRS and not d.startswith(".")
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def lint_paths(
    paths: Sequence[str],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint every Python file under ``paths``; the CLI's workhorse.

    The whole-program rules run over every analyzed module whose dotted
    path starts with ``repro`` — the project model's scope.
    """
    from .wholeprogram import PROJECT_RULES

    codes = _selected_codes(select, ignore)
    project_codes = sorted(codes & set(PROJECT_RULES))

    entries: List[_FileEntry] = []
    timings: Dict[str, float] = {}
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        want_facts = bool(project_codes) and _module_parts(path)[:1] == ("repro",)
        entries.append(
            _analyze_source(source, path, codes, timings, want_facts=want_facts)
        )

    violations = [v for entry in entries for v in entry.violations]

    # ---- whole-program pass ------------------------------------------
    if project_codes:
        suppression_map = {e.path: e.suppressions for e in entries}
        project = Project([e.facts for e in entries if e.facts is not None])
        for code in project_codes:
            rule = PROJECT_RULES[code]
            t0 = _time.perf_counter()
            for v in rule.check_project(project, suppression_map):
                if v.rule not in suppression_map.get(v.path, {}).get(v.line, ()):
                    violations.append(v)
            timings[code] = timings.get(code, 0.0) + (_time.perf_counter() - t0)

    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return LintReport(
        files=len(entries),
        violations=violations,
        rule_timings={k: round(v, 6) for k, v in sorted(timings.items())},
    )


def report_as_dict(report: LintReport) -> Dict[str, object]:
    """The machine-readable (CI artifact) form of a lint run."""
    return {
        "kind": "repro-lint-report",
        "version": 1,
        "schema_version": REPORT_SCHEMA_VERSION,
        "files": report.files,
        "violation_count": len(report.violations),
        "counts": report.counts(),
        "violations": [v.as_dict() for v in report.violations],
        "rule_timings": report.rule_timings,
    }
