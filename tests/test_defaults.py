"""Two guards against code that only tests reach.

Every defaulted parameter of a function in wellcast is passed by some call
site in ``src/`` or ``bench/``; a default that no program call overrides
is a constant in disguise, and a test alone does not make it an option.
The first guard fails on such a parameter, unless ``KEPT`` gives the reason
it stays.

A bare-name call ``f(...)`` is matched to the ``f`` that its own module
defines, or to the definition it imports as ``f`` (through re-exports too),
so one module's ``forecast`` never passes another's defaults.  An attribute
call is matched by name, so a call of any ``.forward`` counts for every
``forward``.  A class name calls its ``__init__``, ``cls`` the enclosing
class and its subclasses, ``super().__init__`` the base classes'.  A
``*args`` splat passes every positional parameter and a ``**kwargs`` splat
every parameter.  Defaults whose names start with ``_`` bind a loop
variable into a closure and are not options.

Every function and method in wellcast is used by code in ``src/`` itself,
or is part of the package's interface: ``wellcast.__all__`` exports it, or
it is a public method of an exported class or of a class one extends.  The
second guard fails on any other function that nothing in ``src/`` uses,
matched by name alone: a function counts as used where its name (or an
alias) is read (called or passed), a method where an attribute of its name
is read (a property is read, not called).  Python calls the dunders."""

import ast
from dataclasses import dataclass
from pathlib import Path

import wellcast
from srcnames import dotted, imported

SRC = Path(wellcast.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# "Class.method(param)" -> why the default stays although no call passes it
KEPT = {
    "AdamW.__init__(beta1)": "the AdamW paper's first-moment decay; "
                             "persisted in opt/hyper and read back on resume",
    "AdamW.__init__(beta2)": "the AdamW paper's second-moment decay; "
                             "persisted in opt/hyper and read back on resume",
    "AdamW.__init__(epsilon)": "the AdamW paper's denominator guard; "
                               "persisted in opt/hyper and read back on resume",
    "AdamW.__init__(weight_decay)": "the AdamW paper's decoupled weight decay; "
                                    "persisted in opt/hyper and read back on "
                                    "resume",
    "EpsilonNet.__init__(hidden)": "criterion 3's toy nets and the gradchecks "
                                   "need small widths",
    "EpsilonNet.__init__(embed_dim)": "criterion 3's toy nets and the "
                                      "gradchecks need small widths",
    "tsum(axis)": "a knob of criterion 1's reference ops, which the fused "
                  "ops are tested against",
    "softmax(axis)": "a knob of criterion 1's reference ops, which the fused "
                     "attention is tested against",
    "max_pool1d(pad)": "a knob of criterion 1's reference ops, which the "
                       "fused distill is tested against",
    "full_attention(mask)": "a knob of the reference ops: criteria 4 and 5 "
                            "state one head with and without a mask",
    "probsparse_attention(causal)": "a knob of the reference ops: criteria 4 "
                                    "and 5 state one head with and without "
                                    "causality",
}


# "module.function" or "module.Class.method" -> why it stays although no
# code in src/ uses it
UNUSED_KEPT = {
    "attention.OpCounter.reset": "tests zero the dot-product counts before "
                                 "the runs they count",
    "attention.full_attention": "criteria 4 and 5 state full attention on one "
                                "head; bench/tracing.py wraps it",
    "attention.probsparse_attention": "criteria 4 and 5 state sparse attention "
                                      "on one head; bench/tracing.py wraps it",
    "cli.cmd_pipeline": "cli.main finds cmd_<command> through globals()",
    "tensor.current_record": "tape introspection: bench/tracing.py and the "
                             "tape-size tests read the record",
    "tensor.softmax": "criterion 1's op; the op-by-op attention reference",
    "tensor.layer_norm": "criterion 1's op; the op-by-op sublayer reference",
    "tensor.conv1d": "criterion 1's op; the op-by-op distill reference",
    "tensor.max_pool1d": "criterion 1's op; the op-by-op distill reference",
    "timegrad.TrainHistory.gap": "criterion 10 reads fit's overfitting "
                                 "indicator",
}


@dataclass
class Definition:
    module: str         # dotted module name
    qualname: str       # "Class.method" or "function"
    cls: str | None     # enclosing class of a method
    offset: int         # 1 when a bound call omits the first parameter
    positional: list    # positional parameter names, in order
    defaulted: list     # names of defaulted parameters


def _definitions(module: str, tree: ast.Module) -> list:
    out = []

    def visit(node, cls, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, child.name + ".")
            elif isinstance(child, ast.FunctionDef):
                a = child.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                              if d is not None]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                out.append(Definition(module, prefix + child.name, cls,
                                      int(cls is not None and not static),
                                      positional, defaulted))
                visit(child, None, prefix + child.name + ".")
            else:
                visit(child, cls, prefix)

    visit(tree, None, "")
    return out


def _bases(trees) -> dict:
    """Class name -> names of its base classes."""
    return {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)}


def _calls(tree: ast.Module):
    """(call, enclosing class name or None) for every call in ``tree``."""
    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.ClassDef) else cls
            if isinstance(child, ast.Call):
                yield child, cls
            yield from visit(child, inner)

    yield from visit(tree, None)


def unpassed(defined: dict[str, str], calling: dict[str, str]) -> list[str]:
    """``Class.method(param)`` for each defaulted parameter of a function in
    the ``defined`` sources that no call in the ``calling`` sources passes;
    each maps a dotted module name to its source."""
    def_trees = {m: ast.parse(s) for m, s in defined.items()}
    call_trees = {m: ast.parse(s) for m, s in calling.items()}
    defs = [d for m, tree in def_trees.items() for d in _definitions(m, tree)]
    by_name: dict = {}
    for d in defs:
        by_name.setdefault(d.qualname.rsplit(".", 1)[-1], []).append(d)
    bases = _bases(list(def_trees.values()) + list(call_trees.values()))
    bound = {m: imported(m, t) for m, t in {**def_trees, **call_trees}.items()}

    def inits(classes, module=None):
        return [d for d in defs if d.cls in classes
                and d.qualname.endswith("__init__")
                and module in (None, d.module)]

    def resolve(module, name):
        """What a bare ``name`` calls in ``module``."""
        own = [d for d in by_name.get(name, [])
               if d.module == module and d.cls is None] + inits({name}, module)
        if own or name not in bound.get(module, {}):
            return own
        source, _, name = bound[module][name].rpartition(".")
        return resolve(source if source in bound else f"{source}.__init__",
                       name)

    passed = set()
    for module, tree in call_trees.items():
        for call, cls in _calls(tree):
            func = call.func
            if isinstance(func, ast.Name):
                if func.id == "cls" and cls:
                    targets = inits({cls} | {c for c, b in bases.items()
                                             if cls in b})
                else:
                    targets = resolve(module, func.id)
            elif isinstance(func, ast.Attribute):
                receiver = func.value
                if (func.attr == "__init__" and isinstance(receiver, ast.Call)
                        and isinstance(receiver.func, ast.Name)
                        and receiver.func.id == "super"):
                    targets = inits(set(bases.get(cls, [])))
                else:
                    targets = by_name.get(func.attr, []) + inits({func.attr})
            else:
                continue
            star = any(isinstance(a, ast.Starred) for a in call.args)
            n_pos = len(call.args)
            keywords = {k.arg for k in call.keywords}
            for d in targets:
                names = set(d.positional if star else
                            d.positional[:d.offset + n_pos])
                names |= set(d.defaulted) if None in keywords else keywords
                passed |= {(d.qualname, p) for p in names}
    return [f"{d.qualname}({p})" for d in defs for p in d.defaulted
            if not p.startswith("_") and (d.qualname, p) not in passed]


def unused(defined: dict[str, str], exported: set) -> list[str]:
    """``module.function`` or ``module.Class.method`` for each function of
    the ``defined`` sources ({module name: source}) that no code in them
    uses and that is not part of the interface that ``exported`` names."""
    trees = {mod: ast.parse(src) for mod, src in defined.items()}
    bases = _bases(trees.values())
    names, attrs = set(), set()
    for mod, tree in trees.items():
        bound = imported(mod, tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(dotted(bound, node).rsplit(".", 1)[-1])
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                attrs.add(node.attr)
    public = {c for c in bases if c in exported}
    while extended := {b for c in public for b in bases[c]
                       if b in bases} - public:
        public |= extended
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                if node.name not in names | attrs | exported:
                    found.append(f"{mod}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                for f in node.body:
                    if not isinstance(f, ast.FunctionDef) or f.name in attrs:
                        continue
                    dunder = f.name.startswith("__") and f.name.endswith("__")
                    interface = (node.name in public
                                 and not f.name.startswith("_"))
                    if not (dunder or interface):
                        found.append(f"{mod}.{node.name}.{f.name}")
    return found


def _sources(directory, package="") -> dict[str, str]:
    """{dotted module name: source} of the directory's modules."""
    return {f"{package}{p.stem}": p.read_text(encoding="utf-8")
            for p in sorted(directory.glob("*.py"))}


def _unpassed_in_program() -> list[str]:
    src = _sources(SRC, "wellcast.")
    return unpassed(src, {**src, **_sources(BENCH)})


def test_kept_default_guard_fails_on_src_plus_one_call():
    src = _sources(SRC, "wellcast.")
    src["wellcast.cli"] += "\nAdamW([], beta1=0.8)\n"  # through cli's import
    found = unpassed(src, {**src, **_sources(BENCH)})
    assert set(KEPT) - set(found) == {"AdamW.__init__(beta1)"}


def test_every_default_is_passed_somewhere():
    assert sorted(set(_unpassed_in_program()) - set(KEPT)) == []


def test_kept_defaults_are_still_defaults_nobody_passes():
    assert sorted(set(KEPT) - set(_unpassed_in_program())) == []


def test_detector_sees_each_way_of_passing():
    defined = "\n".join([
        "def f(a, b=1, c=2, *, d=3): pass",
        "def g(a, b=1, _loop=0): pass",
        "def h(a=1, b=2): pass",
        "def k(a=1): pass",
        "class Base:",
        "    def __init__(self, a, b=1): pass",
        "    def m(self, a=1, b=2): pass",
        "    @classmethod",
        "    def make(cls, a=1):",
        "        return cls(z=0)",      # a subclass's z
        "    @staticmethod",
        "    def s(a=1, b=2): pass",
        "class Child(Base):",
        "    def __init__(self, x=1, y=2, z=3):",
        "        super().__init__(0, b=y)",  # Base's b
        "class Lone:",
        "    def __init__(self, a=1): pass",
        "    def build(self, b=2): pass",
    ])
    calls = "\n".join([
        "from lib import f, g, h, Base, Child",
        "f(0, 1)",           # b by position
        "mod.f(0, d=4)",     # d by keyword, through an attribute
        "g(0, 5)",
        "h(*args)",          # a and b through a splat
        "from lib import k as kk",
        "kk(**opts)",        # every parameter, through an alias
        "obj.m(0)",          # bound: a, not b
        "obj.make(2)",
        "Base.s(0, 1)",      # static: a and b
        "Child(y=0)",
    ])
    assert unpassed({"lib": defined}, {"lib": defined, "user": calls}) == [
        "f(c)", "Base.m(b)", "Child.__init__(x)", "Lone.__init__(a)",
        "Lone.build(b)"]


def test_detector_resolves_a_bare_name_in_its_own_module():
    modules = {
        "pkg.__init__": "from .c import run",  # a re-export
        "pkg.a": "def forecast(model, x, horizon=1, keys=None): pass",
        # b's bare forecast is its own, so its four arguments pass none of
        # a.forecast's defaults
        "pkg.b": "\n".join([
            "from .c import run as go",
            "def forecast(model, x, y, z): pass",
            "class M:",
            "    def forecast(self, x, y):",
            "        return forecast(self, x, y, 0)",
            "go(0, 1)",             # run's b, through a relative alias
        ]),
        "pkg.c": "def run(a, b=1, c=2): pass\ndef stray(a, b=1): pass",
    }
    user = "\n".join([
        "from pkg import run",
        "run(0, c=5)",              # run's c, through the package
        "stray(0, 1)",              # neither defined nor imported here
    ])
    assert unpassed(modules, {**modules, "user": user}) == [
        "forecast(horizon)", "forecast(keys)", "stray(b)"]
    # an attribute call still matches every function of its name
    user += "\nobj.forecast(0, 1, 2)"
    assert unpassed(modules, {**modules, "user": user}) == [
        "forecast(keys)", "stray(b)"]


def test_every_function_is_used_in_src_or_exported():
    found = unused(_sources(SRC), set(wellcast.__all__))
    assert sorted(set(found) - set(UNUSED_KEPT)) == []


def test_kept_unused_functions_are_still_unused():
    found = unused(_sources(SRC), set(wellcast.__all__))
    assert sorted(set(UNUSED_KEPT) - set(found)) == []


def test_kept_unused_guard_fails_on_src_plus_one_call():
    modules = _sources(SRC)
    modules["cli"] += "\nfrom .tensor import current_record as fresh\nfresh()\n"
    found = unused(modules, set(wellcast.__all__))
    assert set(UNUSED_KEPT) - set(found) == {"tensor.current_record"}


def test_detector_sees_each_way_of_using():
    lib = "\n".join([
        "def called(): pass",
        "def passed(): pass",
        "def via_module(): pass",
        "def aliased(): pass",
        "def exported(): pass",
        "def idle(): pass",
        "class Base:",
        "    def __init__(self): pass",
        "    def run(self): pass",
        "    def _helper(self): pass",
        "    @property",
        "    def size(self): return 1",
        "class Open(Base):",
        "    def extra(self): pass",
        "class Closed:",
        "    def run(self): pass",
        "    def idle(self): pass",
        "    def size(self): pass",
    ])
    user = "\n".join([
        "from lib import aliased as other",
        "called()",
        "map(passed, [])",
        "lib.via_module()",
        "other()",
        "obj.run()",
        "n = obj.size",
        "idle = 0",          # a name stored, not read
        "obj.idle = 0",      # an attribute stored, not read
    ])
    assert unused({"lib": lib, "user": user}, {"exported", "Open"}) == [
        "lib.idle", "lib.Base._helper", "lib.Closed.idle"]
