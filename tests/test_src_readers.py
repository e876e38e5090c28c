"""Every definition in ``src/repro`` has a reader outside ``tests/``.

An AST scan lists each module-level function, class and name and each
method in ``src/repro``, and the names that ``src/``, ``benchmarks/``,
``examples/`` and ``perfbench/`` read: a loaded name or attribute, or a
string naming it (a quoted annotation, a ``getattr`` name, the
``repro.api`` facade's ``__all__``).  The engine microbenchmarks
(``MICROBENCHMARKS``) do not count: they time ``src`` code on purpose, so
a name only they read is still code that no production path runs.  Assignments and definitions are not
reads, and neither is anything in an ``__init__.py`` re-export line, nor
a ``super().name`` read inside a method named ``name`` (an override
forwarding to itself reads nothing new).  A
definition nothing reads is code only tests reach: delete it, move it
beside its tests, or list it below with the reason it stays.

A read of a name proves nothing about a method that shares it with a
``dict``, ``list``, ``set``, ``deque`` or ``str`` method: ``queue.pop(...)``
may be ``dict.pop``.  Such a method counts as unread unless
``BUILTIN_NAMED`` names a caller outside ``tests/`` whose body reads the
name.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
READER_DIRS = ("src", "benchmarks", "examples", "perfbench")
#: Reader-directory files that are no reader (see the module docstring).
MICROBENCHMARKS = (
    "benchmarks/perf/bench.py",
    "benchmarks/perf/trace_overhead.py",
)

#: Definitions that stay without a reader outside ``tests/``, each with
#: its reason.  Keys are ``module path:qualified name``.
ALLOWED = {
    "chaos/injector.py:ChaosInjector.with_probability": (
        "README's chaos example and DESIGN's injector rules name it as API"
    ),
    "fuzz/generate.py:ScenarioSpec.from_json": (
        "DESIGN's fuzzing section names the to_json/from_json round trip "
        "that makes a pinned spec a complete reproduction"
    ),
    "network/topology.py:Topology.site_state_version": (
        "DESIGN section 7 names it as the stamp every Site state writer "
        "moves; tests/network/test_site_state_version.py enforces that"
    ),
    "obs/sinks.py:RingBufferSink": (
        "README's observability section and DESIGN's sink list name it as "
        "the in-memory sink"
    ),
    "obs/trace.py:build_spans": (
        "DESIGN's trace section names it as the span-forest builder"
    ),
    "sim/recorder.py:RunRecorder.delay_cdf": (
        "DESIGN's recorder notes name it as part of the delay view"
    ),
}


#: Method names a builtin container or ``str`` also has.
BUILTIN_METHOD_NAMES = frozenset(
    name
    for kind in (dict, list, set, collections.deque, str)
    for name in dir(kind)
    if not name.startswith("_")
)

#: The methods named like a builtin one that stay, each with a caller
#: outside ``tests/`` (``path from the repo root:qualified name``) whose
#: body reads the name on an object of the method's class.
BUILTIN_NAMED = {
    "engine/queues.py:FluidQueue.count": (
        "src/repro/engine/runtime.py:EngineRuntime.total_backlog"
    ),
    "engine/dense.py:FlowTable.items": (
        "src/repro/engine/metrics.py:_net_backlog_by_stage"
    ),
    "engine/dense.py:FlowTable.values": (
        "benchmarks/perf/digest.py:shuffle_fingerprint"
    ),
}


def _definitions(path: pathlib.Path) -> list[tuple[str, str]]:
    """``(qualified name, short name)`` of each definition in ``path``."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef):
            found.append((node.name, node.name))
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.append((f"{node.name}.{item.name}", item.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target
            ]
            for target in targets:
                if isinstance(target, ast.Name):
                    found.append((target.id, target.id))
    return [
        (qual, short) for qual, short in found
        if not (short.startswith("__") and short.endswith("__"))
    ]


def _reads(path: pathlib.Path) -> set[str]:
    """The names ``path`` reads (see the module docstring)."""
    tree = ast.parse(path.read_text())
    if path.name == "__init__.py":
        # Re-export lines, and ``__all__``, do not read; code there does.
        tree.body = [
            node for node in tree.body
            if not isinstance(node, (ast.Import, ast.ImportFrom))
            and not (
                isinstance(node, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets
                )
            )
        ]
    forwards = {
        id(node)
        for method in ast.walk(tree)
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute)
        and node.attr == method.name
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "super"
    }
    names: set[str] = set()
    renamed: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif (
            isinstance(node, ast.Attribute)
            and not isinstance(node.ctx, ast.Store)
            and id(node) not in forwards
        ):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            names.add(node.value)
        elif isinstance(node, ast.alias) and node.asname:
            renamed[node.asname] = node.name
    # ``import x as y`` reads ``x`` where ``y`` is read.
    names.update(name for alias, name in renamed.items() if alias in names)
    return names


def _unread() -> list[str]:
    read: set[str] = set()
    for folder in READER_DIRS:
        for path in (ROOT / folder).rglob("*.py"):
            if path.relative_to(ROOT).as_posix() not in MICROBENCHMARKS:
                read |= _reads(path)
    unread = []
    for path in sorted(SOURCE.rglob("*.py")):
        module = path.relative_to(SOURCE).as_posix()
        for qual, short in _definitions(path):
            key = f"{module}:{qual}"
            if short not in read or (
                "." in qual
                and short in BUILTIN_METHOD_NAMES
                and key not in BUILTIN_NAMED
            ):
                unread.append(key)
    return unread


def _body_reads(caller: str) -> set[str]:
    """The attribute names read in the body of ``path:qualified name``."""
    path, qual = caller.split(":")
    scope = ast.parse((ROOT / path).read_text())
    for part in qual.split("."):
        scope = next(
            node for node in scope.body
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            and node.name == part
        )
    return {
        node.attr for node in ast.walk(scope)
        if isinstance(node, ast.Attribute)
        and not isinstance(node.ctx, ast.Store)
    }


def test_every_src_definition_has_a_reader_outside_tests():
    unread = [key for key in _unread() if key not in ALLOWED]
    assert not unread, (
        "read only by tests (delete, move beside the tests, or allow-list "
        "with a reason):\n" + "\n".join(unread)
    )


def test_builtin_named_methods_have_their_named_callers():
    """Each table entry is a method named like a builtin one, and its
    caller exists and reads the name."""
    defined = {
        f"{path.relative_to(SOURCE).as_posix()}:{qual}"
        for path in SOURCE.rglob("*.py")
        for qual, _ in _definitions(path)
    }
    for key, caller in BUILTIN_NAMED.items():
        name = key.rpartition(".")[2]
        assert key in defined and name in BUILTIN_METHOD_NAMES, key
        assert not caller.startswith("tests/"), key
        assert name in _body_reads(caller), (key, caller)


def test_allow_list_names_only_unread_definitions():
    """An entry whose definition gained a reader, or is gone, is stale."""
    assert sorted(set(ALLOWED) - set(_unread())) == []
    assert all(reason.strip() for reason in ALLOWED.values())


def test_super_forward_in_a_same_named_method_is_no_read(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(
        "class Child(Base):\n"
        "    def probe(self):\n"
        "        return super().probe()\n"
    )
    assert "probe" not in _reads(path)
    path.write_text(
        "class Child(Base):\n"
        "    def other(self):\n"
        "        return super().probe()\n"
    )
    assert "probe" in _reads(path)
