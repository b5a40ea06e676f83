"""Docs name only what exists.

* The metric tables of ``docs/OBSERVABILITY.md``: each row opens with
  the backticked name of a counter or histogram, which must be declared
  in :mod:`repro.obs.metrics` — a row left behind by a deleted metric
  fails here instead of going stale.
* README.md, DESIGN.md and ``docs/*.md``: every backticked
  ``repro.``-dotted name must resolve (import its longest module prefix,
  then ``getattr`` the rest), every backticked ``OP_*`` name must be
  an opcode of :mod:`repro.serving.framing`, and every backticked
  ``REPRO_*`` name must be read — ``os.environ.get("…")`` or
  ``os.environ["…"]`` in ``tests/``, ``benchmarks/`` or ``bench/`` — or
  be an ``env:`` key of the CI workflow.  A variable a test only sets
  is not one a reader can use.
* README.md, DESIGN.md and ``docs/*.md``: every backticked snake_case
  name shaped like a counter — its last word ends a declared counter's
  name, as ``_hits`` ends ``answer_memo_hits`` — is a counter
  :mod:`repro.obs.metrics` describes.
* README.md, DESIGN.md and ``docs/*.md``: every backticked ``repro
  <subcommand>`` (or ``python -m repro …``) names a subcommand of
  :func:`repro.cli.build_parser`, and each ``--flag`` written after it is
  one of that subcommand's options; every other backticked ``--flag`` is
  an option of some subcommand.
* DESIGN.md's module tables: every backticked ``*.py`` file in a row
  whose package cell is a ``repro.`` package exists in that package (a
  name with a ``/`` is a path from the repository root).
* README.md, DESIGN.md and ``docs/*.md``: every backticked path with a
  directory part and a file extension (a ``::`` test id after it is
  ignored, a ``*`` is a glob) exists, from the repository root, from
  ``src/`` or from ``src/repro/``.
* README.md, DESIGN.md and ``docs/*.md``: every backticked name the
  text calls a span — one written before "span" or "spans", or in a
  list of such names (`` `decrypt`, `assemble` or `evaluate` span ``)
  — is opened by some ``span("…")`` or ``Span("…")`` call in ``src/``.

``bench/README.md`` is left out: ``bench/`` is the frozen benchmark
harness, and its stale names are mended together with the next change
to the benchmark.
"""

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.obs.metrics import COUNTERS, HISTOGRAMS, LABELED_COUNTERS
from repro.serving import framing

ROOT = Path(__file__).resolve().parent.parent
OBSERVABILITY = ROOT / "docs" / "OBSERVABILITY.md"
DESIGN = ROOT / "DESIGN.md"
GUARDED_DOCS = sorted(
    [ROOT / "README.md", DESIGN, *(ROOT / "docs").glob("*.md")]
)
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def table_metric_names(text: str) -> list[str]:
    """The backticked names in the first cell of every table row."""
    names = []
    for line in text.splitlines():
        if line.startswith("|"):
            first_cell = line.strip().strip("|").split("|")[0]
            names += re.findall(r"`([^`]+)`", first_cell)
    return names


def test_every_metric_row_names_a_declared_metric():
    names = table_metric_names(OBSERVABILITY.read_text())
    assert len(names) >= 10, "the metric tables were not found"
    unknown = [name for name in names if name not in {**COUNTERS, **HISTOGRAMS}]
    assert unknown == [], unknown


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute chain off one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def backticked(pattern: str, text: str) -> set[str]:
    return set(re.findall(rf"`({pattern})`", text))


@pytest.mark.parametrize("doc", GUARDED_DOCS, ids=lambda path: path.name)
def test_every_dotted_repro_name_resolves(doc):
    names = backticked(r"repro(?:\.\w+)+", doc.read_text())
    assert [name for name in sorted(names) if not resolves(name)] == []


@pytest.mark.parametrize("doc", GUARDED_DOCS, ids=lambda path: path.name)
def test_every_opcode_name_is_a_framing_opcode(doc):
    names = backticked(r"OP_\w+", doc.read_text())
    assert [name for name in sorted(names) if not hasattr(framing, name)] == []


def counter_shaped(text: str) -> set[str]:
    """The backticked snake_case names whose last word is the last word
    of a declared counter."""
    last_words = {name.rsplit("_", 1)[1] for name in COUNTERS}
    return {
        name
        for name in backticked(r"[a-z][a-z0-9]*(?:_[a-z0-9]+)+", text)
        if name.rsplit("_", 1)[1] in last_words
    }


@pytest.mark.parametrize("doc", GUARDED_DOCS, ids=lambda path: path.name)
def test_every_counter_name_is_a_declared_counter(doc):
    names = counter_shaped(doc.read_text())
    assert sorted(names - {*COUNTERS, *LABELED_COUNTERS}) == []


def environment_variables_in_use() -> set[str]:
    """``REPRO_*`` names a harness reads, or CI sets under an ``env:``."""
    read = re.compile(r"""os\.environ(?:\.get\(|\[)\s*["'](REPRO_\w+)["']""")
    names = {
        name
        for folder in ("tests", "benchmarks", "bench")
        for path in (ROOT / folder).rglob("*.py")
        for name in read.findall(path.read_text())
    }
    env_indent = None
    for line in CI_WORKFLOW.read_text().splitlines():
        indent = len(line) - len(line.lstrip())
        if re.fullmatch(r"\s*env:\s*", line):
            env_indent = indent
        elif env_indent is not None and line.strip():
            key = re.match(r"\s*(\w+):", line)
            if indent <= env_indent or key is None:
                env_indent = None
            else:
                names.add(key.group(1))
    return names


@pytest.mark.parametrize("doc", GUARDED_DOCS, ids=lambda path: path.name)
def test_every_environment_variable_is_one_something_reads(doc):
    names = backticked(r"REPRO_\w+", doc.read_text())
    assert sorted(names - environment_variables_in_use()) == []


def cli_options() -> dict[str, set[str]]:
    """Each subcommand of the CLI → the option strings it accepts."""
    parser = build_parser()
    (commands,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        name: {
            option
            for action in command._actions
            for option in action.option_strings
        }
        for name, command in commands.choices.items()
    }


def unknown_cli_names(text: str) -> list[str]:
    """The backticked commands and flags of ``text`` the CLI lacks."""
    options = cli_options()
    unknown = []
    for command in sorted(backticked(r"(?:python -m )?repro [^`]+", text)):
        words = command.removeprefix("python -m ").split()[1:]
        names = words[0].split("|")
        flags = {
            word.strip("[]").split("=")[0]
            for word in words[1:]
            if word.strip("[]").startswith("--")
        }
        for name in names:
            if name not in options:
                unknown.append(f"repro {name}")
            else:
                unknown += [
                    f"repro {name} {flag}"
                    for flag in sorted(flags - options[name])
                ]
    every_option = set().union(*options.values())
    unknown += sorted(backticked(r"--[\w-]+", text) - every_option)
    return unknown


@pytest.mark.parametrize("doc", GUARDED_DOCS, ids=lambda path: path.name)
def test_every_cli_command_and_flag_is_one_the_parser_takes(doc):
    assert unknown_cli_names(doc.read_text()) == []


def module_table_files(text: str) -> list[tuple[Path, str]]:
    """``(package directory, file name)`` for each backticked ``*.py`` in
    a table row whose second cell is a backticked ``repro.`` package."""
    found = []
    for line in text.splitlines():
        if not line.startswith("|"):
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        package = len(cells) >= 3 and re.fullmatch(
            r"`(repro(?:\.\w+)*)`", cells[1]
        )
        if not package:
            continue
        folder = ROOT / "src" / Path(*package.group(1).split("."))
        if folder.is_dir():
            contents = "|".join(cells[2:])
            found += [
                (folder, name)
                for name in re.findall(r"`([\w/]+\.py)`", contents)
            ]
    return found


def test_every_module_table_file_exists_in_its_package():
    files = module_table_files(DESIGN.read_text())
    assert len(files) >= 20, "the module tables were not found"
    missing = [
        name for folder, name in files
        if not (ROOT / name if "/" in name else folder / name).is_file()
    ]
    assert missing == []


#: Where a path a document names may start.
PATH_BASES = (ROOT, ROOT / "src", ROOT / "src" / "repro")


def repository_paths(text: str) -> set[str]:
    """The backticked names shaped like a file path: a directory part and
    an extension, then perhaps a ``::`` test id (dropped)."""
    return set(
        re.findall(
            r"`([\w.*-]+(?:/[\w.*-]+)*/[\w*-][\w.*-]*\.[A-Za-z0-9]{1,5})"
            r"(?:::[\w:]+)?`",
            text,
        )
    )


@pytest.mark.parametrize("doc", GUARDED_DOCS, ids=lambda path: path.name)
def test_every_repository_path_exists(doc):
    missing = [
        name for name in sorted(repository_paths(doc.read_text()))
        if not any(any(base.glob(name)) for base in PATH_BASES)
    ]
    assert missing == []


#: A backticked name, or a list of them, written before "span(s)".
SPAN_RUN = re.compile(
    r"`[a-z][\w.]*`(?:(?:,\s+|\s+and\s+|\s+or\s+|/)`[a-z][\w.]*`)*\s+spans?\b"
)


def span_names_called(text: str) -> set[str]:
    """The backticked names ``text`` calls a span."""
    return {
        name
        for run in SPAN_RUN.findall(text)
        for name in re.findall(r"`([^`]+)`", run)
    }


def span_names_opened() -> set[str]:
    """The literal names of every ``span(…)`` / ``Span(…)`` call in src/."""
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            called = getattr(func, "id", None) or getattr(func, "attr", None)
            first = node.args[0]
            if called in ("span", "Span") and isinstance(first, ast.Constant):
                names.add(first.value)
    return names


@pytest.mark.parametrize("doc", GUARDED_DOCS, ids=lambda path: path.name)
def test_every_span_name_is_one_the_code_opens(doc):
    names = span_names_called(doc.read_text())
    assert sorted(names - span_names_opened()) == []


def test_the_guard_sees_the_docs():
    """The patterns find what the docs name, so an empty match is not a
    silent pass."""
    text = "\n".join(doc.read_text() for doc in GUARDED_DOCS)
    assert len(backticked(r"repro(?:\.\w+)+", text)) >= 40
    assert {"OP_HELLO", "OP_QUERY", "OP_UPDATE"} <= backticked(r"OP_\w+", text)
    assert len(backticked(r"REPRO_\w+", text)) >= 4
    assert {"answer_memo_hits", "query_retries", "tree_cache_misses"} <= (
        counter_shaped(text)
    )
    assert counter_shaped("`stale_cache_hits` `load_system`") == {
        "stale_cache_hits"
    }
    in_use = environment_variables_in_use()
    assert {"REPRO_CHAOS_SEEDS", "REPRO_OBS_OVERHEAD"} <= in_use
    assert "REPRO_WORKERS" not in in_use  # a guard test sets it; none reads it
    assert len(repository_paths(text)) >= 40
    assert {"transfer", "decrypt_batch", "postprocess", "evaluate"} <= (
        span_names_called(text)
    )
    assert span_names_called(
        "`decrypt`, `assemble` or\n`evaluate` span; `a`/`b` spans;"
        " root span `trace.span`; `attempt` covers"
    ) == {"decrypt", "assemble", "evaluate", "a", "b"}
    assert {"query", "transfer", "server.join"} <= span_names_opened()
    assert repository_paths(
        "`core/epoch_cache.py` `tests/test_obs.py::TestX` `results/*.txt`"
        " `security/counting.database_candidates` `python bench/run.py`"
        " `repro/core/{a,b}.py` `setup.py`"
    ) == {"core/epoch_cache.py", "tests/test_obs.py", "results/*.txt"}
    assert resolves("repro.core.dsi.StructuralIndex")
    assert not resolves("repro.core.blocktable")
    assert backticked(r"--[\w-]+", text) >= {"--save", "--load"}
    assert unknown_cli_names("`repro serve --leakage` `repro query`") == []
    assert unknown_cli_names("`repro cluster` `repro query --shards`") == [
        "repro cluster", "repro query --shards",
    ]
