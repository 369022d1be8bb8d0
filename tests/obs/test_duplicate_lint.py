"""Anti-drift lint: one implementation per job.

Every window of ``WINDOW_LINES`` consecutive code lines in ``src/repro``
that appears in two places is a copy.  Imports, docstrings, comments and
blank lines are dropped first and each line is stripped of indentation,
so a copy re-indented into a method or re-commented still matches; a
window shorter than ``MIN_WINDOW_CHARS`` characters (a run of closing
brackets, a short boilerplate block) is too generic to count.

A copy is folded into one implementation both places use.  Where two
files keep a copy on purpose, the pair is allowlisted below with its
reason; an allowlisted pair that no longer shares a window fails too,
so the list cannot outlive its copies.
"""

import ast
import io
import tokenize
from collections import defaultdict
from pathlib import Path
from typing import Dict, FrozenSet, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src" / "repro"

WINDOW_LINES = 6
MIN_WINDOW_CHARS = 150

#: Files (relative to ``src/repro``) that may share windows -> why.
ALLOWLIST: Dict[FrozenSet[str], str] = {
    frozenset(("broker/monitor.py", "obs/aggregate.py")): (
        "two periodic telemetry roles, each with the idempotent start()/"
        "stop() timer pair"
    ),
    frozenset(("broker/network.py",)): (
        "the topology builders' shared keyword signature (name_prefix, "
        "profile, link, **options) and its _with() call"
    ),
    frozenset(("simnet/cpu.py",)): (
        "execute() and execute_train() each inline the idle fast path; a "
        "shared helper costs a frame per CPU job (test_frame_budget.py)"
    ),
    frozenset(("sip/im.py", "sip/presence.py")): (
        "two SIP MESSAGE handlers: the app-handler signature and the 405 "
        "for any other method"
    ),
}


def code_lines(source: str) -> List[Tuple[int, str]]:
    """``(line number, stripped text)`` of every line that is code:
    not blank, not a comment, not part of an import or a docstring."""
    skipped: Set[int] = set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skipped.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                skipped.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = source.splitlines()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            row, col = token.start
            lines[row - 1] = lines[row - 1][:col]
    return [
        (number, text.strip())
        for number, text in enumerate(lines, start=1)
        if number not in skipped and text.strip()
    ]


def duplicate_windows(root: Path) -> Dict[FrozenSet[str], List[str]]:
    """File pair -> ``file:line`` of each window the two files share (a
    pair of one file is a copy inside that file)."""
    seen: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        lines = code_lines(path.read_text())
        for start in range(len(lines) - WINDOW_LINES + 1):
            window = lines[start:start + WINDOW_LINES]
            text = "\n".join(line for _number, line in window)
            if len(text) >= MIN_WINDOW_CHARS:
                seen[text].append((relative, window[0][0]))
    pairs: Dict[FrozenSet[str], List[str]] = defaultdict(list)
    for places in seen.values():
        for index, (first, line) in enumerate(places):
            for second, other in places[index + 1:]:
                pairs[frozenset((first, second))].append(
                    f"{first}:{line} = {second}:{other}"
                )
    return dict(pairs)


def test_no_code_is_written_twice():
    pairs = duplicate_windows(SRC_ROOT)
    copies = {
        " <-> ".join(sorted(pair)): windows
        for pair, windows in sorted(pairs.items(), key=lambda i: sorted(i[0]))
        if pair not in ALLOWLIST
    }
    assert not copies, (
        f"code written twice ({WINDOW_LINES} lines, >= {MIN_WINDOW_CHARS} "
        f"chars, imports/docstrings/comments dropped) — fold each into one "
        f"implementation both places use: {copies}"
    )
    stale = sorted(
        " <-> ".join(sorted(pair)) for pair in ALLOWLIST if pair not in pairs
    )
    assert not stale, f"allowlisted pairs that share no window: {stale}"


def test_lint_sees_copies_through_comments_and_indentation(tmp_path):
    body = "\n".join(
        f"total_{i} = compute_something_long(argument_{i}, other_{i})"
        for i in range(WINDOW_LINES)
    )
    indented = "\n".join("        " + line for line in body.splitlines())
    (tmp_path / "a.py").write_text(f'"""Doc."""\nimport os\n{body}\n')
    (tmp_path / "b.py").write_text(
        "class C:\n    def f(self):\n"
        + indented.replace("other_2)", "other_2)  # note")
        + "\n"
    )
    # Only imports, docstrings and comments in common: no copy.
    (tmp_path / "c.py").write_text(
        "import os\n" + "\n".join(f"# {line}" for line in body.splitlines())
        + f'\n"""{body}"""\n'
    )
    pairs = duplicate_windows(tmp_path)
    assert set(pairs) == {frozenset(("a.py", "b.py"))}
