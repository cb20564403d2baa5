"""The library's surface: every definition in ``src/ulat`` has a caller in the
library or the benchmark, every dataclass field has a reader there, the
oracles leave descriptors to ``sequences``, the tail layers compare
checked terms on the trusted order, and the oracle layers read every
parameter they take."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ulat"

# Paper objects that only the tests call until their records land: the tau
# side of the headline theorem (ROADMAP item 7) and the modular-law record
# (ROADMAP item 8).  The list must shrink when they do.
TEST_ONLY = {"metric_converges", "truncate_g"}

# Dataclass fields that nothing in the library or the benchmark reads: the
# parts of a result that only the tests inspect.  The set can only shrink.
UNREAD_FIELDS = {"ComposeCase.conclusion"}

DESCRIPTOR_CLASSES = {"EventuallyConstant", "TailClosedForm", "Window"}

# Dataclasses whose instances keep a ``__dict__``, with the reason.  Every
# other dataclass declares slots, so a verdict, claim or descriptor costs no
# per-instance dict; the set can only shrink.
INSTANCE_DICT = {"RatAltSeq": "its _ints is a cached_property, which stores into the instance dict"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and the non-dunder methods of
    those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item


def _references(tree: ast.Module):
    """(name, enclosing definition nodes) for every name, attribute and
    string constant in the module; a string counts because the benchmark
    patches methods by name."""
    def walk(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name):
            yield node.id, enclosing
        elif isinstance(node, ast.Attribute):
            yield node.attr, enclosing
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, enclosing
        for child in ast.iter_child_nodes(node):
            yield from walk(child, enclosing)

    yield from walk(tree, frozenset())


def _uncalled():
    """(file, line, name) of every definition in ``src/ulat`` that nothing
    in the library or the benchmark calls from outside its own body."""
    library = {p: _parse(p) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    callers = list(library.values()) + [_parse(p) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    refs: dict[str, list] = {}
    for tree in callers:
        for name, enclosing in _references(tree):
            refs.setdefault(name, []).append(enclosing)
    return sorted(
        (path.name, node.lineno, node.name)
        for path, tree in library.items()
        for node in _definitions(tree)
        if not any(id(node) not in enclosing for enclosing in refs.get(node.name, ()))
    )


def test_every_definition_has_a_caller_outside_the_tests():
    uncalled = [f"{path}:{line} {name}" for path, line, name in _uncalled()
                if name not in TEST_ONLY]
    assert not uncalled, f"only tests call: {uncalled}"


def test_every_test_only_name_is_defined_and_still_uncalled():
    assert {name for _, _, name in _uncalled()} >= TEST_ONLY


def _is_dataclass(node: ast.ClassDef) -> bool:
    named = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in named)


def _unread_fields():
    """The dataclass fields in ``src/ulat``, as "Class.field", that no
    attribute read or string constant in the library or the benchmark
    names (a string counts, as for definitions, because of getattr)."""
    library = [_parse(p) for p in sorted(SRC.glob("*.py"))]
    readers = library + [_parse(p) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    reads = {node.attr if isinstance(node, ast.Attribute) else node.value
             for tree in readers for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
             or isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return sorted(f"{cls.name}.{item.target.id}"
                  for tree in library for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
                  for item in cls.body
                  if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                  and item.target.id not in reads)


def test_every_dataclass_field_has_a_reader_outside_the_tests():
    unread = [field for field in _unread_fields() if field not in UNREAD_FIELDS]
    assert not unread, f"only tests read: {unread}"


def test_every_unread_field_is_defined_and_still_unread():
    assert set(_unread_fields()) >= UNREAD_FIELDS


def test_the_tail_layers_compare_on_the_trusted_order():
    """Terms are checked once, in ``SequenceFamily.value``; past that the
    convergence layer calls ``_leq``, never the checking ``leq``.  The
    semimetric layer checks points where they enter and runs its loops on
    ``_leq``, ``_meet`` and ``_join``."""
    for name, ops in (("convergence.py", {"leq"}), ("sequences.py", {"leq"}),
                      ("subnet.py", {"leq"}), ("semimetrics.py", {"leq", "meet", "join"})):
        calls = [(node.func.attr, node.lineno) for node in ast.walk(_parse(SRC / name))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr in ops]
        assert not calls, f"{name} calls checking operations: {calls}"


def _unread_parameters(path: Path):
    """(line, function, parameter) for every parameter of a ``def`` in the
    module that its body never reads."""
    return [(node.lineno, node.name, arg.arg)
            for node in ast.walk(_parse(path)) if isinstance(node, ast.FunctionDef)
            for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                        *filter(None, (node.args.vararg, node.args.kwarg)))
            if not any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                       and n.id == arg.arg for stmt in node.body for n in ast.walk(stmt))]


@pytest.mark.parametrize("name", ["convergence.py", "sequences.py", "verdicts.py"])
def test_every_parameter_is_read(name):
    unread = _unread_parameters(SRC / name)
    assert not unread, f"{name} takes parameters it never reads: {unread}"


def test_the_oracles_read_no_descriptor():
    tree = _parse(SRC / "convergence.py")
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not imported & DESCRIPTOR_CLASSES
    names = {name for name, _ in _references(tree)}
    assert not names & (DESCRIPTOR_CLASSES | {"descriptor"})


def _library_dataclasses():
    """Every dataclass that a module of ``src/ulat`` defines, by name."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"ulat.{path.stem}")
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and dataclasses.is_dataclass(value)):
                found[value.__name__] = value
    return found


def test_no_dataclass_instance_carries_a_dict():
    classes = _library_dataclasses()
    assert len(classes) >= 30 and set(INSTANCE_DICT) <= set(classes)
    with_dict = {name for name, cls in classes.items()
                 if any("__dict__" in vars(k) for k in cls.__mro__)}
    assert with_dict == set(INSTANCE_DICT), f"dataclasses with an instance __dict__: {with_dict}"
