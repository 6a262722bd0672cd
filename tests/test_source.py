"""Rules that every module of the package keeps in its source."""

import ast
import pathlib

import nodalstab

SRC = pathlib.Path(nodalstab.__file__).parent


def assert_lines(source: str) -> list:
    """Line numbers of the ``assert`` statements in a module's source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def imported_modules(source: str) -> set:
    """The top-level names of every module a source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def lazy_state(source: str) -> list:
    """Where a module builds state lazily: ``Class.method`` for each method
    that ``cached_property`` decorates, ``cached_property:<line>`` for any
    other use of it, and ``vars:<line>`` for each ``vars(...)`` call."""
    tree = ast.parse(source)
    decorated = {id(d): f"{cls.name}.{fn.name}" for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for fn in cls.body
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for d in fn.decorator_list}
    found = []
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name == "cached_property":
            found.append(decorated.get(id(node), f"cached_property:{node.lineno}"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars":
            found.append(f"vars:{node.lineno}")
    return sorted(found)


def test_the_assert_finder_finds_asserts():
    assert assert_lines("x = 1\nif x:\n    assert x, 'x'\n") == [3]
    assert assert_lines("def f(assert_=1):\n    return 'assert'\n") == []


def test_no_module_relies_on_assert():
    # python -O strips asserts, so an invariant must raise a package error
    found = [f"{path.name}:{line}" for path in sorted(SRC.rglob("*.py"))
             for line in assert_lines(path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_import_finder_finds_both_import_forms():
    source = ("import json, os.path as p\n"
              "from dataclasses import dataclass\n"
              "def f():\n"
              "    from . import errors\n"
              "    from .fields import parse_field\n")
    assert imported_modules(source) == {"json", "os", "dataclasses"}


def test_no_module_imports_dataclasses():
    # the records are plain classes: importing dataclasses (and inspect with
    # it) and generating their methods would cost every process at start-up
    found = [path.name for path in sorted(SRC.rglob("*.py"))
             if "dataclasses" in imported_modules(path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_lazy_state_finder_finds_cached_properties_and_vars():
    source = ("import functools\n"
              "from functools import cached_property\n"
              "class A:\n"
              "    @cached_property\n"
              "    def x(self):\n"
              "        return vars(self).get('x')\n"
              "    @functools.cached_property\n"
              "    def y(self):\n"
              "        vars(self)['z'] = 1\n"
              "    w = cached_property(len)\n")
    assert lazy_state(source) == ["A.x", "A.y", "cached_property:10", "vars:6", "vars:9"]
    assert lazy_state("def vars_(x, cached=1):\n    return 'vars(x) cached_property'\n") == []


def test_no_module_builds_state_lazily():
    # a model object builds its derived state in its constructor; the O(N * depth)
    # subtree table that only reports read is built on each read, once per report
    found = [f"{path.name}:{site}" for path in sorted(SRC.rglob("*.py"))
             for site in lazy_state(path.read_text(encoding="utf-8"))]
    assert found == []


def unslotted_records(source: str) -> list:
    """The classes deriving from ``Record``, directly or through a record class
    of the same source, whose body assigns no ``__slots__``."""
    classes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    records, grown = {"Record"}, True
    while grown:
        named = {cls.name for cls in classes
                 if records & {getattr(base, "id", None) for base in cls.bases}}
        grown = not named <= records
        records |= named
    return [cls.name for cls in classes if cls.name in records - {"Record"}
            and not any(isinstance(stmt, ast.Assign) and any(
                getattr(target, "id", None) == "__slots__" for target in stmt.targets)
                for stmt in cls.body)]


def test_the_slots_finder_finds_records_without_slots():
    source = ("class Slotted(Record):\n"
              "    __slots__ = _fields = ('x',)\n"
              "class Plain(Record):\n"
              "    _fields = ('x',)\n"
              "    def f(self):\n"
              "        __slots__ = ()\n"
              "class Below(Slotted):\n"
              "    _fields = ('y',)\n"
              "class NotARecord:\n"
              "    pass\n")
    assert unslotted_records(source) == ["Plain", "Below"]


def test_every_record_declares_its_slots():
    # a record holds no instance __dict__: its fields and what its constructor
    # derives (a curve's index, a pruned ordering's curve) are all slots
    found = [f"{path.name}:{name}" for path in sorted(SRC.rglob("*.py"))
             for name in unslotted_records(path.read_text(encoding="utf-8"))]
    assert found == []


def package_imports(source: str) -> set:
    """The package modules a source imports: ``x`` for ``from .x import y``,
    ``from . import x``, ``from nodalstab.x import y`` and ``import nodalstab.x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("nodalstab."):
            found.add(node.module.split(".", 1)[1])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".", 1)[1] for alias in node.names
                      if alias.name.startswith("nodalstab.")}
    return found


def nested_imports(source: str) -> list:
    """Line numbers of the import statements inside a function."""
    return sorted({node.lineno for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_the_package_import_finders_find_every_form():
    source = ("import json\n"
              "from .errors import ParseError\n"
              "import nodalstab.curve\n"
              "from nodalstab.twist import twist\n"
              "def f():\n"
              "    from . import gpb\n"
              "    if f:\n"
              "        from .fields import RationalField\n")
    assert package_imports(source) == {"errors", "curve", "twist", "gpb", "fields"}
    assert nested_imports(source) == [6, 8]
    assert nested_imports("from .errors import ParseError\nx = 'import json'\n") == []


def test_serialize_is_plumbing_that_loads_no_model():
    # every subcommand loads serialize, so it holds only the JSON plumbing they
    # share; each document's codec lives in the module of the model it builds
    source = (SRC / "serialize.py").read_text(encoding="utf-8")
    assert package_imports(source) == {"errors"}
    assert nested_imports(source) == []


def modules_where(rule) -> list:
    """The file names of the package modules whose source satisfies rule."""
    return [path.name for path in sorted(SRC.rglob("*.py"))
            if rule(path.read_text(encoding="utf-8"))]


def test_only_cli_imports_serialize():
    # serialize is the command line's JSON I/O: a model module that imported
    # it would load json into every library user of the tree engine
    assert modules_where(lambda source: "serialize" in package_imports(source)) == ["cli.py"]


def test_only_cli_imports_inside_a_function():
    # the imports run one way, errors <- the model modules <- cli, each at a
    # module's top; only cli defers its subcommands' modules to the one it runs
    assert modules_where(nested_imports) == ["cli.py"]


def unused_imports(source: str) -> list:
    """The names a module's top-level imports bind that the module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return sorted(bound - read)


def test_the_unused_import_finder_finds_names_never_read():
    source = ("import json, os.path as p\n"
              "import os.path\n"
              "from .errors import Record, _set\n"
              "from itertools import *\n"
              "def f(x: Record):\n"
              "    json = 1\n"
              "    return os.sep\n")
    assert unused_imports(source) == ["_set", "json", "p"]
    assert unused_imports("def f():\n    from . import gpb\n") == []


def test_no_module_imports_a_name_it_never_reads():
    found = [f"{path.name}:{name}" for path in sorted(SRC.rglob("*.py"))
             for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def _stores_a_parameter(stmt, params) -> bool:
    """Is stmt ``_set(self, "<field>", <parameter>)``?"""
    call = stmt.value if isinstance(stmt, ast.Expr) else None
    if not isinstance(call, ast.Call) or getattr(call.func, "id", None) != "_set" \
            or len(call.args) != 3 or call.keywords:
        return False
    target, field, value = call.args
    return (getattr(target, "id", None) == "self" and isinstance(field, ast.Constant)
            and isinstance(field.value, str) and getattr(value, "id", None) in params)


def pass_through_constructors(source: str) -> list:
    """The ``Record`` subclasses whose ``__init__`` only stores its parameters,
    one ``_set(self, "<field>", <parameter>)`` call each: what the base does."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef) \
                or "Record" not in {getattr(base, "id", None) for base in cls.bases}:
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                params = {arg.arg for arg in fn.args.args[1:] + fn.args.kwonlyargs}
                if all(_stores_a_parameter(stmt, params) for stmt in fn.body):
                    found.append(cls.name)
    return found


def test_the_pass_through_finder_finds_constructors_that_only_store():
    source = ("class A(Record):\n"
              "    def __init__(self, x, y):\n"
              "        _set(self, 'x', x)   # a comment is not a statement\n"
              "        _set(self, 'y', y)\n"
              "class Checks(Record):\n"
              "    def __init__(self, x):\n"
              "        if x < 0:\n"
              "            raise ValueError(x)\n"
              "        _set(self, 'x', x)\n"
              "class Derives(Record):\n"
              "    def __init__(self, x):\n"
              "        _set(self, 'x', tuple(x))\n"
              "class Mutable(Record):\n"
              "    def __init__(self, x):\n"
              "        self.x = x\n"
              "class NotARecord:\n"
              "    def __init__(self, x):\n"
              "        _set(self, 'x', x)\n")
    assert pass_through_constructors(source) == ["A"]


def test_only_records_that_check_or_are_hot_define_a_constructor():
    # Record.__init__ stores the fields, by position or keyword; a constructor
    # that only does the same is a second way to build a record
    found = [f"{path.name}:{name}" for path in sorted(SRC.rglob("*.py"))
             for name in pass_through_constructors(path.read_text(encoding="utf-8"))]
    assert found == []


def equality_classes(source: str) -> list:
    """The classes whose body defines an ``__eq__`` or ``__hash__`` method
    (``__hash__ = None``, which takes the hash away, defines none)."""
    return [cls.name for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
            and any(isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.name in ("__eq__", "__hash__") for fn in cls.body)]


def test_the_equality_finder_finds_eq_and_hash_methods():
    source = ("class Eq:\n"
              "    def __eq__(self, other):\n"
              "        return True\n"
              "class Hash(Record):\n"
              "    async def __hash__(self):\n"
              "        return 0\n"
              "class Mutable(Record):\n"
              "    __reduce__, __hash__ = object.__reduce__, None\n"
              "class Plain(Record):\n"
              "    __slots__ = _fields = ('eq',)\n"
              "    def __repr__(self):\n"
              "        def __eq__(a, b):\n"
              "            return a == b\n"
              "        return '__eq__ __hash__'\n"
              "def __eq__(a, b):\n"
              "    return a is b\n")
    assert equality_classes(source) == ["Eq", "Hash"]


def test_only_record_defines_equality():
    # every value the package exports compares and hashes by its Record fields;
    # a hand-written __eq__ could drift from the repr, hash and pickle
    found = [f"{path.name}:{name}" for path in sorted(SRC.rglob("*.py"))
             for name in equality_classes(path.read_text(encoding="utf-8"))]
    assert found == ["errors.py:Record"]


def sign_checks(source: str) -> list:
    """Line numbers of the comparisons of an ``_int_arg(...)`` call with the
    constant 0 or 1: a count's sign written out by hand, which ``_int_arg``'s
    ``least`` checks.  A chained range test, ``1 <= _int_arg(i, "i") <= n``,
    bounds a value on both sides and is no sign check."""
    def int_arg(node):
        return isinstance(node, ast.Call) and "_int_arg" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    def zero_or_one(node):
        return isinstance(node, ast.Constant) and node.value in (0, 1)
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare) and len(node.ops) == 1
            and any(int_arg(a) and zero_or_one(b)
                    for a, b in ((node.left, node.comparators[0]),
                                 (node.comparators[0], node.left)))]


def test_the_sign_check_finder_finds_int_arg_compared_with_0_or_1():
    source = ("if _int_arg(r, 'rank') < 1:\n"
              "    raise InvalidInput('rank must be positive')\n"
              "if 0 > errors._int_arg(n, 'n') or _int_arg(k, 'k') >= 0:\n"
              "    pass\n"
              "if not 1 <= _int_arg(i, 'order index') <= n:\n"
              "    pass\n"
              "if _int_arg(k, 'k', 0) > n or _int_arg(m, 'm') < 2 or int_arg(r) < 1:\n"
              "    pass\n"
              "if r < 1 and _int_arg(r, 'r', 1):\n"
              "    pass\n")
    assert sign_checks(source) == [1, 3, 3]


def test_every_sign_check_is_int_args():
    # _int_arg(value, name, least) raises "<name> must be positive" or
    # "nonnegative"; a hand-written copy of that check drifts from its wording
    found = [f"{path.name}:{line}" for path in sorted(SRC.rglob("*.py"))
             for line in sign_checks(path.read_text(encoding="utf-8"))]
    assert found == []
