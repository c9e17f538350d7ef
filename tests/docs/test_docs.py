"""Documentation stays true: fenced ``python`` blocks in README/docs must
run, and intra-repo markdown links must resolve.

Every ```python block is executed doctest-style: blocks of one file run
sequentially in a single shared namespace (so a later block can build on an
earlier one), and any exception fails the test with the file and block
number.  Blocks are real code — when a refactor changes an API, CI points
at the stale document.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: The documents under contract.
DOCUMENTS = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")],
    key=lambda path: path.name,
)

_LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _python_blocks(path: Path) -> list[tuple[int, str]]:
    """(start line, source) of every fenced ``python`` block in ``path``."""
    blocks: list[tuple[int, str]] = []
    lines = path.read_text().splitlines()
    in_block = False
    language = ""
    start = 0
    collected: list[str] = []
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not in_block and stripped.startswith("```"):
            in_block = True
            language = stripped[3:].strip().lower()
            start = number + 1
            collected = []
            continue
        if in_block and stripped == "```":
            in_block = False
            if language == "python":
                blocks.append((start, "\n".join(collected)))
            continue
        if in_block:
            collected.append(line)
    return blocks


@pytest.mark.parametrize(
    "document", DOCUMENTS, ids=[path.name for path in DOCUMENTS]
)
def test_python_code_blocks_run(document: Path) -> None:
    namespace: dict[str, object] = {"__name__": f"docs_{document.stem}"}
    for start_line, source in _python_blocks(document):
        try:
            exec(compile(source, f"{document.name}:{start_line}", "exec"), namespace)
        except Exception as error:  # noqa: BLE001 - report the block that broke
            pytest.fail(
                f"{document.relative_to(REPO_ROOT)} code block at line "
                f"{start_line} no longer runs: {type(error).__name__}: {error}"
            )


@pytest.mark.parametrize(
    "document", DOCUMENTS, ids=[path.name for path in DOCUMENTS]
)
def test_intra_repo_links_resolve(document: Path) -> None:
    broken: list[str] = []
    for target in _LINK_PATTERN.findall(document.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        if not (document.parent / relative).resolve().exists():
            broken.append(target)
    assert not broken, (
        f"{document.relative_to(REPO_ROOT)} has broken intra-repo links: {broken}"
    )


def test_docs_tree_is_complete() -> None:
    """The documents the README links into must exist."""
    names = {path.name for path in DOCUMENTS}
    assert {"README.md", "architecture.md", "sql-engine.md"} <= names
