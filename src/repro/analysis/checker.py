"""Driver for the ``repro-check`` lint pass.

``check_source`` runs every rule in :mod:`repro.analysis.rules` over one
parsed file and filters suppressed findings; ``check_paths`` walks
files/directories; ``main`` is the CLI behind both ``repro check`` and
``python -m repro.analysis``.

Suppressions are trailing comments on the flagged line::

    now = time.time()  # repro-check: disable=REP005

``disable=all`` silences every rule on that line.  Suppressions are
deliberately line-scoped — a file- or block-scoped escape hatch would
make it too easy to turn a rule off and forget.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import ast

from .rules import ALL_RULES, Diagnostic, FileContext, module_aliases

_SUPPRESS_RE = re.compile(
    r"#\s*repro-check\s*:\s*disable=([A-Za-z0-9_,\s]+)"
)


def package_relative(path: Path) -> Optional[Tuple[str, ...]]:
    """Path segments below the innermost ``repro`` directory, or ``None``.

    Rules use this to scope themselves (``REP003`` to ``index/``,
    ``REP004``'s exemption to ``engine/kernel.py``) without caring where
    the checkout lives.
    """
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return tuple(parts[i + 1:])
    return None


def suppressed_lines(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the rule codes disabled on them."""
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        codes = {
            token.strip().upper()
            for token in match.group(1).split(",")
            if token.strip()
        }
        if codes:
            out[lineno] = codes
    return out


def check_source(
    source: str,
    path: str,
    package_path: Optional[Tuple[str, ...]] = None,
    select: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """Run the (selected) rules over one source string.

    ``package_path`` overrides the path-derived package location —
    fixture tests use it to exercise path-scoped rules on temp files.
    A syntactically invalid file yields a single ``REP000`` diagnostic
    instead of a traceback, so one broken file cannot hide findings in
    the rest of a tree.
    """
    if package_path is None:
        package_path = package_relative(Path(path))
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [Diagnostic(
            path, error.lineno or 1, (error.offset or 1) - 1, "REP000",
            f"file does not parse: {error.msg}",
        )]
    ctx = FileContext(
        display_path=path,
        package_path=package_path,
        aliases=module_aliases(tree),
    )
    wanted = None if select is None else {code.upper() for code in select}
    diagnostics: List[Diagnostic] = []
    for rule in ALL_RULES:
        if wanted is not None and rule.code not in wanted:
            continue
        diagnostics.extend(rule.check(tree, ctx))
    suppressions = suppressed_lines(source)
    kept = [
        diag for diag in diagnostics
        if not (
            (codes := suppressions.get(diag.line)) is not None
            and (diag.code in codes or "ALL" in codes)
        )
    ]
    kept.sort(key=lambda d: (d.line, d.col, d.code))
    return kept


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        else:
            yield path


def check_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """Check every python file under ``paths``; missing paths raise."""
    diagnostics: List[Diagnostic] = []
    for path in iter_python_files(paths):
        source = path.read_text(encoding="utf-8")
        diagnostics.extend(check_source(source, str(path), select=select))
    return diagnostics


def _default_paths() -> List[str]:
    """``src/repro`` when run from a checkout root, else the cwd."""
    candidate = Path("src") / "repro"
    return [str(candidate)] if candidate.is_dir() else ["."]


def main(argv: Optional[Iterable[str]] = None) -> int:
    """CLI: print diagnostics, exit 1 when any survive suppression."""
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="Lint the repo's determinism contracts (REP001-REP006).",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--select", action="append", metavar="CODE",
        help="run only these rule codes (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.summary}")
        return 0

    if args.select:
        known = {rule.code for rule in ALL_RULES}
        unknown = [c for c in args.select if c.upper() not in known]
        if unknown:
            print(f"unknown rule code(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    paths = args.paths or _default_paths()
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    diagnostics = check_paths(paths, select=args.select)
    for diag in diagnostics:
        print(diag.format())
    if diagnostics:
        count = len(diagnostics)
        print(f"repro-check: {count} finding{'s' if count != 1 else ''}")
        return 1
    return 0
