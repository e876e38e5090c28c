"""Every definition, stored attribute, field and parameter default in
``src/repro`` has a reader outside ``tests/``.

The readers are ``src/``, ``benchmarks/``, ``examples/`` and
``perfbench/``.  The engine microbenchmarks (``MICROBENCHMARKS``) do not
count: they time ``src`` code on purpose, so what only they read is still
code that no production path runs.  Anything only ``tests/`` reaches is
deleted, moved beside its tests, or listed in an allow-list below with the
reason it stays; an entry whose finding is gone fails as stale.

Definitions.  An AST scan lists each module-level function, class and
name and each method, and the names the readers read: a loaded name or
attribute, or a string naming it (a quoted annotation, a ``getattr``
name, the ``repro.api`` facade's ``__all__``).  Assignments and
definitions are not reads, and neither is anything in an ``__init__.py``
re-export line, nor a ``super().name`` read inside a method named
``name`` (an override forwarding to itself reads nothing new).  A read of
a name proves nothing about a method that shares it with a ``dict``,
``list``, ``set``, ``deque`` or ``str`` method: ``queue.pop(...)`` may be
``dict.pop``.  Such a method counts as unread unless ``BUILTIN_NAMED``
names a caller outside ``tests/`` whose body reads the name.

The three class-aware rules below keep unread state out, where a match by
name alone would let any same-named attribute elsewhere hide it.

1. Stored attributes.  A ``self.X`` store in class ``C`` is read only when
   ``C``, one of its base classes or one of its subclasses loads
   ``self.X``, or when some receiver other than ``self`` loads ``.X`` (or
   ``getattr`` or a string names ``X``; ``__slots__`` entries do not
   count).  Fields of dataclasses are left to rule 2.
2. Dataclass and ``NamedTuple`` fields.  A field is read only when a
   reader loads ``.X`` (or ``getattr`` names it).  A class whose own or
   inherited method hands ``self`` to ``fields``, ``asdict``, ``astuple``
   or ``_asdict`` is read field by field, so none of its fields is flagged
   (every ``ObsEvent`` subclass, through ``ObsEvent.payload``).  A field
   that production code needs only through the generated ``__eq__``,
   ``__hash__`` or ``__repr__`` is flagged all the same: it goes on
   ``ALLOWED_STATE`` with the place that needs it.
3. Parameter defaults.  A parameter with a default is unread when no call
   in a reader passes it, by keyword or by position (a call with ``*args``
   or ``**kwargs`` passes everything).  Calls match by the callee's name; a
   class call, a subclass call that inherits the constructor and a
   ``super().__init__(...)`` in a subclass all reach ``__init__``.  A
   function or method loaded as a value (a table entry, a callback, a pool
   map's function) may be called with anything, so none of its parameters
   is flagged.  The public surface is exempt: the functions and class
   constructors the ``repro.api`` facade lists in ``__all__``, and every
   ``main(argv)``.
"""

import ast
import collections
import functools
import pathlib

import pytest

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

#: Stored attributes (rule 1) and fields (rule 2) that stay without a
#: reader outside ``tests/``, each with its reason.  Keys are ``module
#: path:Class.name``.
ALLOWED_STATE: dict[str, str] = {}

#: Parameter defaults (rule 3) that stay although no caller outside
#: ``tests/`` passes them, each with its reason.  Keys are ``module
#: path:qualified name(parameter)``.
ALLOWED_PARAMS = {
    "chaos/injector.py:ChaosInjector.every(start_s)": (
        "DESIGN's chaos scheduling paragraph names every(period)'s start "
        "and count cap as the rule's window"
    ),
    "chaos/injector.py:ChaosInjector.every(count)": (
        "DESIGN's chaos scheduling paragraph names every(period)'s start "
        "and count cap as the rule's window"
    ),
    "chaos/injector.py:ChaosInjector.with_probability(start_s)": (
        "README's chaos example bounds a probabilistic rule with a window; "
        "DESIGN's scheduling paragraph names its start and end"
    ),
    "chaos/injector.py:ChaosInjector.with_probability(end_s)": (
        "README's chaos example passes end_s=600.0"
    ),
    "experiments/multiquery.py:MultiQueryRun.__init__(config)": (
        "ROADMAP item 4's multi-query fuzz mode builds tenants from a "
        "scenario's config overrides"
    ),
    "experiments/multiquery.py:MultiQueryRun.__init__(dynamics)": (
        "ROADMAP item 4's multi-query runs are driven under "
        "bottleneck_dynamics"
    ),
    "obs/sinks.py:RingBufferSink.__init__(capacity)": (
        "README and DESIGN's sink list name it a ring buffer; the bound is "
        "what the name promises"
    ),
    "workloads/queries.py:ysb_advertising(spec)": (
        "ROADMAP item 4's multi-query scenarios set each tenant's ad rate, "
        "as topk_topics(spec) sets the tweet rate"
    ),
    "fuzz/campaign.py:shrink_scenario(max_evals)": (
        "DESIGN's fuzzing section names tests/fuzz/regen_fixtures.py, "
        "which rebuilds the regression fixtures with max_evals=12"
    ),
    "fuzz/campaign.py:shrink_scenario(mode)": (
        "DESIGN's fuzzing section names tests/fuzz/regen_fixtures.py, "
        "which rebuilds the regression fixtures with mode='exercises'"
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


# --------------------------------------------------------------------------- #
# Class-aware rules (module docstring, rules 1-3)
# --------------------------------------------------------------------------- #

#: Functions that read a dataclass or ``NamedTuple`` instance field by field.
FIELDWISE_READERS = frozenset({"fields", "asdict", "astuple", "_asdict"})


@functools.lru_cache(maxsize=None)
def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text())


def _reader_files() -> tuple[pathlib.Path, ...]:
    return tuple(
        path
        for folder in READER_DIRS
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.relative_to(ROOT).as_posix() not in MICROBENCHMARKS
    )


def _name(node: ast.AST) -> str | None:
    """``f`` of ``f`` or ``x.f``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _base_names(cls: ast.ClassDef) -> set[str]:
    return {_name(base) for base in cls.bases} - {None}


def _own_nodes(cls: ast.ClassDef):
    """The nodes of ``cls``'s body, nested classes left out."""
    stack = list(cls.body)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child for child in ast.iter_child_nodes(node)
            if not isinstance(child, ast.ClassDef)
        )


def _call_shape(call: ast.Call) -> tuple[int, frozenset[str], bool]:
    """``(positional count, keyword names, passes *args or **kwargs)``."""
    star = any(isinstance(arg, ast.Starred) for arg in call.args) or any(
        keyword.arg is None for keyword in call.keywords
    )
    keywords = frozenset(k.arg for k in call.keywords if k.arg)
    return len(call.args), keywords, star


class _Index:
    """What the reader files load, call and pass as values."""

    def __init__(self, readers: tuple[pathlib.Path, ...]) -> None:
        #: class name -> its base class names
        self.bases: dict[str, set[str]] = collections.defaultdict(set)
        #: classes that define ``__init__``
        self.inits: set[str] = set()
        #: class name -> the ``self.X`` names its methods load
        self.self_loads: dict[str, set[str]] = collections.defaultdict(set)
        #: ``.X`` loaded on any other receiver, and ``getattr`` names
        self.other_loads: set[str] = set()
        #: identifier strings outside ``__slots__``
        self.strings: set[str] = set()
        #: callee name -> call shapes; ``super:C`` for ``super().__init__``
        #: calls made in class ``C``
        self.calls: dict[str, list] = collections.defaultdict(list)
        #: functions and classes loaded other than as a callee
        self.values: set[str] = set()
        #: attribute names loaded other than as a callee (bound methods)
        self.method_values: set[str] = set()
        for path in readers:
            self._scan(_parse(path))
        self.loads = self.other_loads.union(*self.self_loads.values())

    def _scan(self, tree: ast.Module) -> None:
        imports = [
            alias
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        renamed = {a.asname: a.name for a in imports if a.asname}
        imported = {a.asname or a.name.partition(".")[0] for a in imports}
        bound = imported | {
            node.name for node in tree.body
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        }
        slots = {
            id(const)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(_name(t) == "__slots__" for t in node.targets)
            for const in ast.walk(node.value)
        }
        in_class: set[int] = set()
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            self.bases[cls.name] |= _base_names(cls)
            if any(
                isinstance(item, ast.FunctionDef) and item.name == "__init__"
                for item in cls.body
            ):
                self.inits.add(cls.name)
            for node in _own_nodes(cls):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and _is_self(node.value)
                ):
                    self.self_loads[cls.name].add(node.attr)
                    in_class.add(id(node))
                elif (
                    isinstance(node, ast.Call)
                    and _name(node.func) == "__init__"
                    and isinstance(node.func.value, ast.Call)
                    and _name(node.func.value.func) == "super"
                ):
                    self.calls[f"super:{cls.name}"].append(_call_shape(node))
        # A callee is no value, and neither is a class statement's base.
        callees = {
            id(node.func) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        } | {
            id(base) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for base in cls.bases
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _name(node.func)
                if name is not None:
                    self.calls[renamed.get(name, name)].append(
                        _call_shape(node)
                    )
                if (
                    name in ("getattr", "hasattr")
                    and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                ):
                    self.other_loads.add(node.args[1].value)
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                if id(node) not in in_class:
                    self.other_loads.add(node.attr)
                if id(node) not in callees:
                    self.method_values.add(node.attr)
                    if isinstance(node.value, ast.Name) and (
                        node.value.id in imported
                    ):
                        self.values.add(node.attr)
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in callees
                and node.id in bound
            ):
                self.values.add(renamed.get(node.id, node.id))
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
                and id(node) not in slots
            ):
                self.strings.add(node.value)

    def ancestors(self, name: str) -> set[str]:
        found: set[str] = set()
        stack = [name]
        while stack:
            for base in self.bases.get(stack.pop(), ()):
                if base not in found:
                    found.add(base)
                    stack.append(base)
        return found

    def kin(self, name: str) -> set[str]:
        """``name``, its base classes and its subclasses."""
        return (
            {name}
            | self.ancestors(name)
            | {cls for cls in self.bases if name in self.ancestors(cls)}
        )

    def init_owner(self, name: str) -> str | None:
        """The class whose ``__init__`` a call of class ``name`` runs."""
        order, seen = [name], {name}
        for cls in order:
            if cls in self.inits:
                return cls
            for base in sorted(self.bases.get(cls, ())):
                if base not in seen:
                    seen.add(base)
                    order.append(base)
        return None

    def super_init_owner(self, name: str) -> str | None:
        """The class whose ``__init__`` ``super().__init__`` in ``name``
        runs."""
        owners = (self.init_owner(b) for b in sorted(self.bases.get(name, ())))
        return next((owner for owner in owners if owner is not None), None)


@functools.lru_cache(maxsize=None)
def _index(readers: tuple[pathlib.Path, ...]) -> _Index:
    return _Index(readers)


def _src_classes(source: pathlib.Path):
    """``(module path, class)`` for each class under ``source``."""
    for path in sorted(source.rglob("*.py")):
        module = path.relative_to(source).as_posix()
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                yield module, node


def _is_record_class(cls: ast.ClassDef) -> bool:
    """A dataclass or a ``NamedTuple``."""
    return "NamedTuple" in _base_names(cls) or any(
        _name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in cls.decorator_list
    )


def _fields(cls: ast.ClassDef) -> list[str]:
    return [
        node.target.id for node in cls.body
        if isinstance(node, ast.AnnAssign)
        and isinstance(node.target, ast.Name)
        and "ClassVar" not in ast.unparse(node.annotation)
    ]


def _reads_fieldwise(cls: ast.ClassDef) -> bool:
    """A method of ``cls`` hands ``self`` to ``fields``/``asdict``/..."""
    return any(
        isinstance(node, ast.Call)
        and _name(node.func) in FIELDWISE_READERS
        and (
            any(_is_self(arg) for arg in node.args)
            or (
                isinstance(node.func, ast.Attribute)
                and _is_self(node.func.value)
            )
        )
        for node in _own_nodes(cls)
    )


def _unread_stores(source=SOURCE, readers=None) -> list[str]:
    """Rule 1: ``self.X`` stores nothing loads."""
    index = _index(readers or _reader_files())
    unread = []
    for module, cls in _src_classes(source):
        fields = set(_fields(cls)) if _is_record_class(cls) else set()
        kin_loads = set().union(
            *(index.self_loads[k] for k in index.kin(cls.name))
        )
        stored = {
            node.attr for node in _own_nodes(cls)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and _is_self(node.value)
        }
        unread.extend(
            f"{module}:{cls.name}.{name}"
            for name in sorted(stored - fields)
            if not name.startswith("__")
            and name not in kin_loads
            and name not in index.other_loads
            and name not in index.strings
        )
    return unread


def _unread_fields(source=SOURCE, readers=None) -> list[str]:
    """Rule 2: dataclass and ``NamedTuple`` fields nothing loads."""
    index = _index(readers or _reader_files())
    classes = list(_src_classes(source))
    fieldwise = {cls.name for _, cls in classes if _reads_fieldwise(cls)}
    return [
        f"{module}:{cls.name}.{name}"
        for module, cls in classes
        if _is_record_class(cls)
        and not fieldwise & ({cls.name} | index.ancestors(cls.name))
        for name in _fields(cls)
        if name not in index.loads
    ]


def _defaulted(fn: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """``(name, positional index or None)`` of each parameter with a
    default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
    found += [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return found


def _public_names(source: pathlib.Path) -> set[str]:
    """The ``repro.api`` facade's ``__all__`` (empty without one)."""
    api = source / "api.py"
    if not api.exists():
        return set()
    for node in _parse(api).body:
        if isinstance(node, ast.Assign) and any(
            _name(t) == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError("repro.api has no __all__")


def _functions(source: pathlib.Path):
    """``(module, qualified name, function, class or None)`` under
    ``source``."""
    for path in sorted(source.rglob("*.py")):
        module = path.relative_to(source).as_posix()
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield module, node.name, node, None
    for module, cls in _src_classes(source):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield module, f"{cls.name}.{node.name}", node, cls


def _call_shapes(fn, cls, index: _Index) -> list | None:
    """The shapes of the calls that reach ``fn``; None when ``fn`` is
    passed as a value."""
    if fn.name != "__init__":
        values = index.values if cls is None else index.method_values
        return None if fn.name in values else index.calls.get(fn.name, [])
    classes = {c for c in index.bases if index.init_owner(c) == cls.name}
    classes.add(cls.name)
    if classes & index.values:
        return None
    shapes = [s for c in sorted(classes) for s in index.calls.get(c, ())]
    shapes += [
        s for c in sorted(index.bases)
        if index.super_init_owner(c) == cls.name
        for s in index.calls.get(f"super:{c}", ())
    ]
    return shapes


def _unread_params(source=SOURCE, readers=None) -> list[str]:
    """Rule 3: parameters with a default that no call passes."""
    index = _index(readers or _reader_files())
    public = _public_names(source)
    unread = []
    for module, qual, fn, cls in _functions(source):
        owner = fn.name if cls is None or fn.name != "__init__" else cls.name
        if fn.name == "main" or (
            owner in public and (cls is None or fn.name == "__init__")
        ):
            continue
        if fn.name.startswith("__") and fn.name != "__init__":
            continue
        shapes = _call_shapes(fn, cls, index)
        if shapes is None:
            continue
        static = any(_name(d) == "staticmethod" for d in fn.decorator_list)
        shift = 0 if cls is None or static else 1
        unread.extend(
            f"{module}:{qual}({param})"
            for param, position in _defaulted(fn)
            if not any(
                star
                or param in keywords
                or (position is not None and position - shift < count)
                for count, keywords, star in shapes
            )
        )
    return unread


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


def test_no_src_store_or_field_is_unread():
    unread = [
        key for key in _unread_stores() + _unread_fields()
        if key not in ALLOWED_STATE
    ]
    assert not unread, (
        "stored or declared but read only by tests (delete, or allow-list "
        "with a reason):\n" + "\n".join(unread)
    )


def test_every_src_parameter_default_is_overridden():
    unread = [key for key in _unread_params() if key not in ALLOWED_PARAMS]
    assert not unread, (
        "no caller outside tests passes these (make the default a "
        "constant, or allow-list with a reason):\n" + "\n".join(unread)
    )


@pytest.mark.parametrize(
    "allowed, finders",
    [
        (ALLOWED_STATE, (_unread_stores, _unread_fields)),
        (ALLOWED_PARAMS, (_unread_params,)),
    ],
    ids=["state", "params"],
)
def test_class_aware_allow_lists_name_only_findings(allowed, finders):
    """An entry whose finding is gone is stale."""
    found = {key for finder in finders for key in finder()}
    assert sorted(set(allowed) - found) == []
    assert all(reason.strip() for reason in allowed.values())


def _snippet(tmp_path, name: str, code: str) -> pathlib.Path:
    """``code`` as the one module of a source tree of its own."""
    folder = tmp_path / name
    folder.mkdir()
    path = folder / "mod.py"
    path.write_text(code)
    return folder


STORE = (
    "class Owner:\n"
    "    def __init__(self):\n"
    "        self.level = 1\n"
    "class Stranger:\n"
    "    def peek(self):\n"
    "        return self.level\n"
)


def test_store_read_only_through_another_class_is_unread(tmp_path):
    folder = _snippet(tmp_path, "flagged", STORE)
    readers = (folder / "mod.py",)
    assert _unread_stores(folder, readers) == ["mod.py:Owner.level"]
    # A non-self receiver may be an Owner: the store counts as read.
    folder = _snippet(
        tmp_path, "read", STORE + "def probe(owner):\n    return owner.level\n"
    )
    assert _unread_stores(folder, (folder / "mod.py",)) == []
    # So does a subclass that loads it.
    folder = _snippet(
        tmp_path, "subclass",
        STORE + "class Heir(Owner):\n"
        "    def peek(self):\n        return self.level\n",
    )
    assert _unread_stores(folder, (folder / "mod.py",)) == []


def test_fieldwise_read_events_pass_and_eq_only_fields_are_flagged(tmp_path):
    folder = _snippet(
        tmp_path, "events",
        "import dataclasses\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Event:\n"
        "    t_s: float\n"
        "    def payload(self):\n"
        "        return {f.name: 0 for f in dataclasses.fields(self)}\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Started(Event):\n"
        "    stage: str\n",
    )
    assert _unread_fields(folder, (folder / "mod.py",)) == []
    folder = _snippet(
        tmp_path, "eq",
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Key:\n"
        "    site: str\n"
        "    epoch: int\n"
        "def same(a: Key, b: Key):\n"
        "    return a == b and a.site\n",
    )
    assert _unread_fields(folder, (folder / "mod.py",)) == ["mod.py:Key.epoch"]


def test_parameter_passed_through_super_init_is_read(tmp_path):
    base = (
        "class Base:\n"
        "    def __init__(self, rates, scale=1.0):\n"
        "        self.rates = rates\n"
    )
    folder = _snippet(
        tmp_path, "super",
        base + "class Child(Base):\n"
        "    def __init__(self):\n"
        "        super().__init__({}, scale=2.0)\n"
        "Child()\n",
    )
    assert _unread_params(folder, (folder / "mod.py",)) == []
    folder = _snippet(
        tmp_path, "inherited",
        base + "class Child(Base):\n    pass\n" "Child({})\n",
    )
    assert _unread_params(folder, (folder / "mod.py",)) == [
        "mod.py:Base.__init__(scale)"
    ]


def test_function_passed_as_a_value_has_its_parameters_read(tmp_path):
    code = "def dynamics(rngs=None):\n    return rngs\n"
    folder = _snippet(tmp_path, "called", code + "dynamics()\n")
    assert _unread_params(folder, (folder / "mod.py",)) == [
        "mod.py:dynamics(rngs)"
    ]
    folder = _snippet(
        tmp_path, "value", code + "TABLE = {'d': dynamics}\n"
    )
    assert _unread_params(folder, (folder / "mod.py",)) == []
