"""`src/` holds what a verb reaches.

A static scan of ``src/repro`` (``ast`` for imports and definitions,
word matching for uses; nothing from ``repro`` is imported):

1. every ``repro`` module is in the import closure of the roots: ``spl``
   (``repro.cli``), ``spl-compile`` (``repro.core.cli``),
   ``python -m repro.serve``, ``python -m repro.fuzz`` and every
   ``bench/*.py``.  Imports inside functions count;
2. every public top-level function and class is named somewhere in
   ``src/`` or ``bench/`` other than its own definition.  A package
   ``__init__`` re-exporting a name does not count as a use, and
   neither do comments or docstrings.

What neither check reaches is deleted, or stays in ``ALLOWED`` with
the reason it is kept.  An entry that no longer exists, or that has
gained a real caller, fails as well, so the list can only shrink.

Run as a script, it lists what is unreached and whether it is allowed::

    python tests/test_reachability.py
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = ROOT / "bench"

ROOTS = ("repro.cli", "repro.core.cli", "repro.serve.__main__",
         "repro.fuzz.__main__")

_FIGURES = "reached from benchmarks/ until the figures move into bench/"
_TEST_ENTRY = "a test entry point into code the compiler runs"

# Module entries cover the module's public names too.
ALLOWED = {
    "repro.fftw": "the FFTW baseline of Figs. 3-4; " + _FIGURES,
    "repro.perfeval.memory": "Fig. 5's routine_memory; " + _FIGURES,
    "repro.perfeval.accuracy": "Fig. 6's relative_error; " + _FIGURES,
    "repro.perfeval.platform.format_table": "Table 1; " + _FIGURES,
    "repro.search.large.LargeSearch":
        "Fig. 4's large-size search; " + _FIGURES,
    "repro.generator.fft_rules.enumerate_breakdown_trees":
        "Fig. 3's search space; " + _FIGURES,
    "repro.generator.fft_rules.count_factorizations":
        "the size of Eq. 10's space; " + _FIGURES,
    "repro.generator.wht_rules.enumerate_wht_formulas":
        "the WHT search of section 5; " + _FIGURES,
    "repro.core.backend_numpy.loop_is_lowerable":
        _TEST_ENTRY + ": the NumPy loop lowering",
    "repro.core.scalars.parse_scalar_text":
        _TEST_ENTRY + ": the scalar grammar",
    "repro.fuzz.generator.generate_cases":
        _TEST_ENTRY + ": the fuzz generator",
    "repro.fuzz.harness.read_corpus_expectation":
        _TEST_ENTRY + ": the fuzz corpus replay",
    "repro.formulas.factorization.tensor_flip":
        "the paper's Eq. 6, to become a rewrite rule",
    "repro.serve.client.ResilientAsyncClient":
        "the retrying client of docs/serving.md; the chaos test drives it",
}

_WORD = re.compile(r"[A-Za-z_]\w*")
# Strings are kept (a name can be looked up by its spelling); comments go.
_STRING_OR_COMMENT = re.compile(
    r'"""[\s\S]*?"""|\'\'\'[\s\S]*?\'\'\'|"(?:\\.|[^"\\\n])*"'
    r"|'(?:\\.|[^'\\\n])*'|#[^\n]*")


class _Source:
    """One file: its statements, and its words line by line."""

    def __init__(self, module: str, path: Path):
        self.module = module
        self.path = path
        text = path.read_text()
        self.tree = ast.parse(text, str(path))
        self.statements = list(_statements(self.tree.body))
        blank = set()
        for node in [self.tree, *self.statements]:
            body = getattr(node, "body", None)
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                    and body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                blank.update(range(body[0].lineno, body[0].end_lineno + 1))
        if path.name == "__init__.py":
            for node in self.tree.body:
                if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                        isinstance(node, ast.Assign)
                        and any(getattr(t, "id", None) == "__all__"
                                for t in node.targets)):
                    blank.update(range(node.lineno, node.end_lineno + 1))
        text = _STRING_OR_COMMENT.sub(
            lambda m: "" if m.group().startswith("#") else m.group(), text)
        self.lines = [set() if number in blank else set(_WORD.findall(line))
                      for number, line in enumerate(text.splitlines(), 1)]
        self.words = set().union(*self.lines)

    def public_defs(self) -> dict[str, ast.AST]:
        return {node.name: node for node in self.tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))
                and not node.name.startswith("_")}

    def names_outside(self, name: str, node: ast.AST) -> bool:
        inside = range(node.lineno - 1, node.end_lineno)
        return any(name in words for number, words in enumerate(self.lines)
                   if number not in inside)

    def imports(self) -> set[str]:
        """Every ``repro`` module this file imports, anywhere in it."""
        modules = _sources()
        found: set[str] = set()

        def add(name: str) -> None:
            while name:  # importing a.b.c runs a, a.b and a.b.c
                if name in modules:
                    found.add(name)
                name = name.rpartition(".")[0]

        package = (self.module if self.path.name == "__init__.py"
                   else self.module.rpartition(".")[0]).split(".")
        for node in self.statements:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = package[:len(package) - node.level + 1]
                    base = ".".join(anchor + ([base] if base else []))
                add(base)
                for alias in node.names:
                    add(f"{base}.{alias.name}")
        return found


def _statements(body):
    """Every statement under ``body``; expressions are not entered."""
    for node in body:
        yield node
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            yield from _statements(getattr(node, field, ()) or ())


@lru_cache(maxsize=None)
def _sources() -> dict[str, _Source]:
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        found[module] = _Source(module, path)
    return found


@lru_cache(maxsize=None)
def _bench() -> tuple[_Source, ...]:
    return tuple(_Source("bench." + path.stem, path)
                 for path in sorted(BENCH.glob("*.py")))


@lru_cache(maxsize=None)
def unreached_modules() -> frozenset[str]:
    sources = _sources()
    todo = list(ROOTS)
    for bench in _bench():
        todo.extend(bench.imports())
    seen: set[str] = set()
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(sources[module].imports())
    return frozenset(set(sources) - seen)


@lru_cache(maxsize=None)
def unnamed_names() -> frozenset[str]:
    """``module.name`` of each public definition nothing else names."""
    everyone = [*_sources().values(), *_bench()]
    found = set()
    for source in _sources().values():
        for name, node in source.public_defs().items():
            if not (source.names_outside(name, node) or any(
                    name in other.words for other in everyone
                    if other is not source)):
                found.add(f"{source.module}.{name}")
    return frozenset(found)


def _allowed(name: str) -> bool:
    return any(name == entry or name.startswith(entry + ".")
               for entry in ALLOWED)


def test_every_module_is_reached_from_a_verb():
    unreached = sorted(m for m in unreached_modules() if not _allowed(m))
    assert not unreached, unreached


def test_every_public_name_is_named_outside_its_definition():
    unnamed = sorted(n for n in unnamed_names() if not _allowed(n))
    assert not unnamed, unnamed


def test_allow_list_only_shrinks():
    sources = _sources()
    stale = []
    for entry, reason in ALLOWED.items():
        if not reason.strip():
            stale.append(f"{entry}: no reason given")
        if entry in sources:
            if entry not in unreached_modules():
                stale.append(f"{entry}: now imported from a verb")
            continue
        module, _, name = entry.rpartition(".")
        if module not in sources or name not in sources[module].public_defs():
            stale.append(f"{entry}: no longer defined")
        elif entry not in unnamed_names():
            stale.append(f"{entry}: now named by another module")
    assert not stale, stale


if __name__ == "__main__":
    for kind, names in (("module", unreached_modules()),
                        ("name", unnamed_names())):
        for name in sorted(names):
            mark = "allowed" if _allowed(name) else "FAIL"
            print(f"{mark:8} {kind:7} {name}")
