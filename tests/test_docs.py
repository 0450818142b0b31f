"""The prose names only commands, targets and files that exist.

README, CONTRIBUTING and the verify skill point readers at commands,
Makefile targets and files; a rename that misses one leaves a stale
name behind.  This test reads each file and checks that

* every ``repro …`` or ``python -m repro …`` command in a fenced block
  parses with the CLI's own parser (``\\`` continuations joined, the
  line cut at ``#``, ``|``, ``&&``, ``;`` or ``>``);
* every ``make TARGET`` in a fenced block or an inline code span, and
  on a ``run:`` line of the CI workflow, names a Makefile target;
* every inline code span that looks like a file path exists: a token
  with a ``/`` (minus any ``:line`` or ``::test`` suffix) whose last
  part has an extension or that ends in ``/`` resolves from the repo
  root, ``src/`` or ``src/repro/``, and a bare ``*.py``, ``*.md`` or
  ``*.jsonl`` name is a file somewhere in the tree.

Nothing is simulated.  ``perfbench/README.md`` belongs to the
benchmark and is not read here.
"""

from __future__ import annotations

import glob
import os
import pathlib
import re
import shlex

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("README.md", "CONTRIBUTING.md", ".claude/skills/verify/SKILL.md")
CI = ".github/workflows/ci.yml"
PATH_BASES = (ROOT, ROOT / "src", ROOT / "src" / "repro")
BARE_SUFFIXES = (".py", ".md", ".jsonl")
# Directories that hold no documented file: VCS data, caches, stores.
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis",
             ".repro-store", ".perfbench-work", ".benchmarks"}

_REPRO = re.compile(r"(?:^|\s)(?:python3? -m )?repro\s+(.*)$")
_MAKE = re.compile(r"(?:^|\s)make\s+([A-Za-z][\w-]*)")
_CUT = re.compile(r"\s#|\|\|?|&&|;|>")
_TARGET = re.compile(r"^([A-Za-z][\w-]*)\s*:(?!=)", re.MULTILINE)
_SPAN = re.compile(r"`([^`]+)`")
_EXTENSION = re.compile(r"\.[A-Za-z0-9]+$")


def makefile_targets() -> set[str]:
    return set(_TARGET.findall((ROOT / "Makefile").read_text()))


def tree_file_names() -> set[str]:
    names: set[str] = set()
    for _, dirs, files in os.walk(ROOT):
        dirs[:] = [name for name in dirs if name not in SKIP_DIRS]
        names.update(files)
    return names


def _split(text: str) -> tuple[list[str], list[str]]:
    """*text*'s fenced-block lines (``\\`` continuations joined) and its
    prose paragraphs."""
    fenced: list[str] = []
    prose: list[str] = []
    paragraph: list[str] = []
    in_fence = False
    pending = ""
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            pending += line.strip()
            if pending.endswith("\\"):
                pending = pending[:-1] + " "
            else:
                fenced.append(pending)
                pending = ""
        elif line.strip():
            paragraph.append(line)
        else:
            prose.append(" ".join(paragraph))
            paragraph = []
    prose.append(" ".join(paragraph))
    return fenced, prose


def _command_problem(argv: str) -> str | None:
    """Why ``repro ARGV`` does not parse, or ``None`` when it does."""
    try:
        build_parser().parse_args(shlex.split(argv))
    except SystemExit as stop:
        if stop.code != 0:
            return f"`repro {argv}` does not parse"
    return None


def _path_problem(token: str, names: set[str]) -> str | None:
    """Why the file path *token* names nothing, or ``None`` when it is
    not a path or it exists."""
    if any(char.isspace() for char in token):
        return None
    path = token.split(":", 1)[0]
    if "/" in path:
        if not (path.endswith("/") or _EXTENSION.search(path)):
            return None
        if any(glob.glob(str(base / path)) for base in PATH_BASES):
            return None
        return f"`{token}`: no such path"
    if path.endswith(BARE_SUFFIXES) and "*" not in path:
        return None if path in names else f"`{token}`: no such file"
    return None


def problems(text: str) -> list[str]:
    """Every stale command, target and path named in Markdown *text*."""
    targets = makefile_targets()
    names = tree_file_names()
    found: list[str] = []
    fenced, prose = _split(text)
    spans = [span for paragraph in prose
             for span in _SPAN.findall(paragraph)]
    for line in fenced:
        command = _REPRO.search(line)
        if command:
            argv = _CUT.split(command.group(1), 1)[0].strip()
            problem = _command_problem(argv)
            if problem:
                found.append(problem)
    for code in fenced + spans:
        found.extend(f"`make {target}`: no such Makefile target"
                     for target in _MAKE.findall(code)
                     if target not in targets)
    for span in spans:
        problem = _path_problem(span.strip(), names)
        if problem:
            found.append(problem)
    return found


@pytest.mark.parametrize("doc", DOCS)
def test_doc_names_only_what_exists(doc):
    assert problems((ROOT / doc).read_text(encoding="utf-8")) == []


def test_ci_runs_only_makefile_targets():
    targets = makefile_targets()
    runs = [line for line in (ROOT / CI).read_text().splitlines()
            if re.match(r"\s*(?:run:\s+)?make\s", line)]
    assert runs
    named = [_MAKE.search(line).group(1) for line in runs]
    assert [name for name in named if name not in targets] == []


@pytest.mark.parametrize("snippet, stale", [
    ("```sh\nPYTHONPATH=src python -m repro experiments attacks\n```\n",
     "repro experiments attacks"),
    ("Run `make bench-gate` first.\n", "make bench-gate"),
    ("See `benchmarks/bench_gate.py`.\n", "benchmarks/bench_gate.py"),
], ids=["command", "target", "path"])
def test_checker_reports_a_stale_name(snippet, stale):
    reported = problems(snippet)
    assert len(reported) == 1 and stale in reported[0], reported
