"""The package's exported names, the names and arguments the benchmark
reads, and the guards that every definition in src/ has a caller and
every parameter a caller that sets it."""

import ast
import functools
import importlib
import importlib.util
import inspect
from pathlib import Path

import scipy.fft

import mkdvlab
from mkdvlab import cli

ROOT = Path(__file__).resolve().parents[1]
FFT_HELPERS = {"next_fast_len", "prev_fast_len", "fftfreq", "rfftfreq", "fftshift", "ifftshift"}


def load_tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_all_names_resolve():
    missing = [name for name in mkdvlab.__all__ if not hasattr(mkdvlab, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(set(mkdvlab.__all__)) == len(mkdvlab.__all__)


def test_traced_names_resolve():
    # perfbench/tracing.py replaces these attributes when a run is traced;
    # a name deleted from the package would break those runs
    tracing = load_tracing()
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in tracing.TRACED
        if not callable(getattr(owner, attr, None))
    ]
    assert tracing.TRACED and missing == []


def test_sweeps_go_through_traced_names(tmp_path):
    # the tracer sees a sweep's appendix terms and E_t calls only while the
    # sweep looks them up as module attributes, as illposed-growth and
    # appendix-b both do
    from mkdvlab import illposed

    with load_tracing().Tracer() as tr:
        illposed.growth_experiment([8, 16], s=1.0, t=1e-4)
        cli.main(["appendix-b", "--out", str(tmp_path), "--set", "sweep.Ns=8,16,32"])
    assert tr.counts["mkdvlab.illposed.eval_appendix_terms"] == 5
    assert tr.counts["mkdvlab.illposed.osc_single"] >= 5


#: the one scipy.fft backend: (module, class) of spectral's pocketfft backend
FFT_BACKEND = ("spectral", "PocketfftBackend")


def transform_call_breaches(source: str, traced: set, module: str = "") -> list:
    """Lines of `source`, the mkdvlab module `module`, that import numpy.fft,
    scipy.signal or names from scipy.fft, or reach a transform other than as
    a traced scipy.fft attribute call.  Two exceptions serve FFT_BACKEND:
    its module may import pypocketfft from scipy.fft._pocketfft and use it
    inside the backend's __ua_function__ alone, and scipy.fft.set_backend
    may be called with that backend alone."""
    tree = ast.parse(source)
    sfft_names, numpy_names, breaches = set(), set(), []
    backend_module, backend = FFT_BACKEND
    in_backend_module = module == backend_module
    backends, spectral_names, pocket_ok = set(), set(), set()
    for node in tree.body:
        if (in_backend_module and isinstance(node, ast.ClassDef) and node.name == backend
                and "__ua_domain__" in {t.id for n in node.body if isinstance(n, ast.Assign)
                                        for t in n.targets if isinstance(t, ast.Name)}):
            backends.add(backend)
            pocket_ok |= {id(n) for f in node.body if isinstance(f, ast.FunctionDef)
                          and f.name == "__ua_function__" for n in ast.walk(f)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith(("numpy.fft", "scipy.signal", "scipy.fft.")):
                    breaches.append((node.lineno, f"import {a.name}"))
                elif a.name == "scipy.fft" and a.asname:
                    sfft_names.add(a.asname)
                elif a.name == "numpy":
                    numpy_names.add(a.asname or a.name)
        elif isinstance(node, ast.ImportFrom):
            mod, names = node.module or "", {a.name for a in node.names}
            ours = node.level == 1 or mod.startswith("mkdvlab")
            if (in_backend_module and mod == "scipy.fft._pocketfft"
                    and [(a.name, a.asname) for a in node.names] == [("pypocketfft", None)]):
                continue
            if (mod.startswith(("scipy.fft", "numpy.fft", "scipy.signal"))
                    or (mod == "numpy" and "fft" in names)
                    or (mod == "scipy" and "signal" in names)):
                breaches.append((node.lineno, f"from {mod} import {', '.join(sorted(names))}"))
            elif mod == "scipy":
                sfft_names |= {a.asname or a.name for a in node.names if a.name == "fft"}
            elif ours and mod.split(".")[-1] == backend_module:
                backends |= {a.asname or a.name for a in node.names if a.name == backend}
            elif ours and mod in ("", "mkdvlab"):
                spectral_names |= {a.asname or a.name for a in node.names
                                   if a.name == backend_module}

    def is_sfft(expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in sfft_names
        return (isinstance(expr, ast.Attribute) and expr.attr == "fft"
                and isinstance(expr.value, ast.Name) and expr.value.id == "scipy")

    def is_backend(expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in backends
        return (isinstance(expr, ast.Attribute) and expr.attr == backend
                and isinstance(expr.value, ast.Name) and expr.value.id in spectral_names)

    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "fft"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            breaches.append((node.lineno, f"{node.value.id}.fft"))
        if (isinstance(node, ast.Name) and node.id == "pypocketfft"
                and id(node) not in pocket_ok):
            breaches.append((node.lineno, "pypocketfft outside the backend's __ua_function__"))
        if (isinstance(node, ast.Attribute) and is_sfft(node.value)
                and node.attr.startswith("_")):
            breaches.append((node.lineno, f"scipy.fft.{node.attr}"))
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in traced:
            breaches.append((node.lineno, f"bare {f.id}()"))
        elif isinstance(f, ast.Attribute) and is_sfft(f.value):
            if f.attr == "set_backend":
                if node.keywords or len(node.args) != 1 or not is_backend(node.args[0]):
                    args = ", ".join(map(ast.unparse, node.args + node.keywords))
                    breaches.append((node.lineno, f"set_backend({args})"))
            elif f.attr not in traced | FFT_HELPERS:
                breaches.append((node.lineno, f"untraced scipy.fft.{f.attr}()"))
    return breaches


def test_transforms_called_as_traced_scipy_fft_attributes():
    # perfbench's tracer and tests/test_fft_counts.py replace these attributes
    # of the scipy.fft module; a transform reached any other way goes uncounted
    traced = {attr for owner, attr, _ in load_tracing().TRACED if owner is scipy.fft}
    bad = {
        path.name: breaches
        for path in sorted((ROOT / "src" / "mkdvlab").glob("*.py"))
        if (breaches := transform_call_breaches(path.read_text(), traced, path.stem))
    }
    assert bad == {}


BACKEND_SOURCE = (
    "import numpy as np\nfrom scipy.fft._pocketfft import pypocketfft\n"
    "class PocketfftBackend:\n    __ua_domain__ = 'numpy.scipy.fft'\n"
    "    @staticmethod\n    def __ua_function__(method, args, kwargs):\n"
    "        return pypocketfft.r2c(args[0], (-1,), True, 0, None, 1)\n")


def test_transform_call_check_catches_each_breach():
    traced = {"fft", "ifft", "rfft", "irfft"}
    good = "import numpy as np\nimport scipy.fft as sfft\nsfft.fft(x)\nsfft.next_fast_len(9)\n"
    assert transform_call_breaches(good, traced) == []
    assert transform_call_breaches(BACKEND_SOURCE, traced, "spectral") == []
    for user in ("import scipy.fft as sfft\nfrom .spectral import PocketfftBackend\n"
                 "with sfft.set_backend(PocketfftBackend):\n    sfft.rfft(x)\n",
                 "from scipy import fft\nfrom . import spectral\n"
                 "with fft.set_backend(spectral.PocketfftBackend):\n    pass\n"):
        assert transform_call_breaches(user, traced, "integrate") == [], user
    for line in (
        "from scipy.fft import fft",
        "import numpy.fft",
        "from numpy import fft",
        "import numpy as np\nnp.fft.fft(x)",
        "import scipy.signal",
        "from scipy import signal",
        "from scipy.signal import czt",
        "import scipy.fft as sfft\nsfft.fftn(x)",
        "fft(x)",
        "import scipy.fft._pocketfft.pypocketfft",
        "import scipy.fft as sfft\nsfft._pocketfft.pypocketfft.r2c(x, (-1,), True, 0, None, 1)",
        "import scipy.fft as sfft\nsfft.set_global_backend(PocketfftBackend)",
        "import scipy.fft as sfft\nwith sfft.set_backend('scipy'):\n    pass",
        "import scipy.fft as sfft\nclass Other:\n    __ua_domain__ = 'numpy.scipy.fft'\n"
        "with sfft.set_backend(Other):\n    pass",
        "import scipy.fft as sfft\nfrom .spectral import PocketfftBackend\n"
        "with sfft.set_backend(PocketfftBackend, only=True):\n    pass",
    ):
        assert transform_call_breaches(line + "\n", traced), line
    # spectral's import and calls outside the backend's __ua_function__
    for line in (
        "def f(x):\n    return pypocketfft.c2r(x, (-1,), 8, False, 2, None, 1)",
        "r2c = pypocketfft.r2c",
        "class Other:\n    @staticmethod\n    def __ua_function__(method, args, kwargs):\n"
        "        return pypocketfft.r2c(args[0], (-1,), True, 0, None, 1)",
    ):
        assert transform_call_breaches(BACKEND_SOURCE + line + "\n", traced, "spectral"), line
    # the import and the backend in any other module
    for module in ("integrate", "equations", ""):
        assert transform_call_breaches(BACKEND_SOURCE, traced, module), module
    assert transform_call_breaches(
        "from scipy.fft._pocketfft import pypocketfft as p\n", traced, "spectral")


def private_imports(source: str) -> list:
    """Lines of a mkdvlab module that import an underscore name from another
    mkdvlab module, or read one from a mkdvlab module it imported."""
    tree = ast.parse(source)
    modules, breaches = set(), []

    def private(name: str) -> bool:
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "mkdvlab"):
            for a in node.names:
                if private(a.name):
                    breaches.append((node.lineno, f"{node.module or '.'}.{a.name}"))
                elif node.module is None:  # from . import module
                    modules.add(a.asname or a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "mkdvlab":
                    if any(private(part) for part in a.name.split(".")):
                        breaches.append((node.lineno, a.name))
                    modules.add(a.asname or a.name.split(".")[0])
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            breaches.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return breaches


def test_modules_import_only_public_names():
    # a module's underscore names are its own: another module that needs one
    # needs a public name for it
    bad = {
        path.name: breaches
        for path in sorted((ROOT / "src" / "mkdvlab").glob("*.py"))
        if (breaches := private_imports(path.read_text()))
    }
    assert bad == {}


def test_private_import_check_catches_each_breach():
    good = ("from . import __version__, equations\nfrom .spectral import BATCH_ELEMENTS as _B\n"
            "import numpy as np\nnp._x\nequations.rhs\n")
    assert private_imports(good) == []
    for line in (
        "from .shorttime import fk_norm, _tk_grid",
        "from mkdvlab.shorttime import _tk_grid",
        "from .. import _private",
        "from . import equations\nequations._physical_divergence",
        "import mkdvlab.shorttime as st\nst._window_table",
        "import mkdvlab._private",
    ):
        assert private_imports(line + "\n"), line


def config_reads(source: str) -> set:
    """(section, key) of every cfg.get, get_int, get_float or get_list call in
    `source` whose first two arguments are string literals."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in {"get", "get_int", "get_float", "get_list"}
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "cfg"):
            continue
        args = node.args[:2]
        if len(args) == 2 and all(isinstance(a, ast.Constant) and isinstance(a.value, str)
                                  for a in args):
            reads.add((args[0].value, args[1].value))
    return reads


def test_every_config_key_is_read():
    # a key of cli.DEFAULTS that the CLI never reads is a setting that
    # changes nothing but the manifest
    sample = 'cfg.get("a", "b")\ncfg.get_int("c", "d", positive=True)\nraw.get("e", "f")\n'
    assert config_reads(sample) == {("a", "b"), ("c", "d")}
    reads = config_reads((ROOT / "src" / "mkdvlab" / "cli.py").read_text())
    keys = {(section, key) for section, values in cli.DEFAULTS.items() for key in values}
    assert keys - reads == set()


def import_bindings(tree: ast.Module, modules) -> tuple:
    """({local name: qualified name}, {alias: module}) of the names and the
    mkdvlab modules that a module's imports bind, wherever they stand."""
    names, aliases = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "mkdvlab"):
            source = (node.module or "").removeprefix("mkdvlab").strip(".").split(".")[-1]
            for a in node.names:
                local = a.asname or a.name
                if not source and a.name in modules:  # from . import module
                    aliases[local] = a.name
                else:
                    names[local] = f"{source or '__init__'}.{a.name}"
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.asname and a.name.split(".")[0] == "mkdvlab":
                    aliases[a.asname] = a.name.split(".")[-1]
    return names, aliases


def unreached_definitions(sources: dict) -> dict:
    """{qualified name: lines} of the top-level functions and classes, and
    non-dunder methods, of the modules in sources ({module: source}) that no
    chain of references from cli.main or from import-time code (less
    imports and __all__) reaches.  A module-level definition is reached by
    its bare name in a module that defines or imports it, or as alias.name
    of an imported mkdvlab module; a method by any attribute of its name.
    Reaching a class runs all of it but its other methods."""
    defs, todo, bindings = {}, [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        names, aliases = import_bindings(tree, sources)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names[node.name] = f"{module}.{node.name}"
                defs[f"{module}.{node.name}"] = node
                defs |= {f"{module}.{node.name}.{m.name}": m
                         for m in (node.body if isinstance(node, ast.ClassDef) else ())
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")}
            elif not isinstance(node, (ast.Import, ast.ImportFrom)) and "__all__" not in {
                    getattr(t, "id", None) for t in getattr(node, "targets", [])}:
                todo.append((module, node))
        bindings[module] = names, aliases
    methods = {}
    for qual in defs:
        if qual.count(".") == 2:
            methods.setdefault(qual.rsplit(".", 1)[1], set()).add(qual)
    reached, seen = set(), set()

    def reach(qual):
        if qual in defs and qual not in reached:
            reached.add(qual)
            found = defs[qual]
            todo.extend((qual.split(".")[0], n) for n in (
                [found] if isinstance(found, ast.FunctionDef) else [
                    *found.decorator_list, *found.bases,
                    *(m for m in found.body if f"{qual}.{getattr(m, 'name', '')}" not in defs)]))

    reach("cli.main")
    while todo:
        module, root = todo.pop()
        names, aliases = bindings[module]
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and (module, node.id) not in seen:
                seen.add((module, node.id))
                reach(names.get(node.id))
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    reach(f"{aliases[node.value.id]}.{node.attr}")
                if node.attr not in seen:
                    seen.add(node.attr)
                    for qual in methods.get(node.attr, ()):
                        reach(qual)
    return {qual: node.end_lineno - node.lineno + 1
            for qual, node in defs.items() if qual not in reached}


#: definitions no subcommand reaches yet, by the ROADMAP item that decides
#: them; a definition that becomes reached leaves the list
UNREACHED_ALLOWED = {
    # perfbench reads Trajectory.states and GridSpec.modes; the oracles and
    # the tracer osc_double
    "items 1/9": {"integrate.Trajectory.states", "spectral.GridSpec.modes",
                  "illposed.osc_double"},
    "item 2": {"shorttime.modulation_decompose"},
    # the C3 cubic sum is the reference of the full flow at delta^5
    "item 7": {"illposed.eval_c3_cubic"},
    "item 8": {"invariants.es_energy", "invariants.modified_energy_ek", "spectral.psi",
               "spectral.eta0_prime", "spectral._g_prime"},
    # the oracles pin the stepped operator through rhs
    "oracles' seam": {"equations.rhs"},
}


def test_reach_walk_finds_each_case():
    cli_src = ("from .lab import cmd_a\nfrom . import tools\nTABLE = {'a': cmd_a}\n"
               "def main():\n    return TABLE, tools.used()\n")
    lab = ("def cmd_a():\n    return Box().size\n"
           "class Box:\n    def __init__(self):\n        self.x = helper()\n"
           "    @property\n    def size(self):\n        return 1\n"
           "    def unused_method(self):\n        pass\n"
           "def helper():\n    return 2\n"
           "def unused(x):\n    return helper()\n"
           "def spare():\n    return 3\n")
    # a local variable named like another module's function, and a method
    # named like a module-level function, reach neither function
    tools = ("def used():\n    spare = 0\n    return spare, Box2().unused()\n"
             "class Box2:\n    def unused(self):\n        return 4\n")
    got = unreached_definitions({"cli": cli_src, "lab": lab, "tools": tools})
    assert got == {"lab.Box.unused_method": 2, "lab.unused": 2, "lab.spare": 2}


def test_every_definition_is_reached():
    # a definition that no subcommand reaches is code that only tests run
    sources = {path.stem: path.read_text() for path in (ROOT / "src" / "mkdvlab").glob("*.py")}
    allowed = set().union(*UNREACHED_ALLOWED.values())
    unreached = set(unreached_definitions(sources))
    assert sorted(unreached - allowed) == [] and sorted(allowed - unreached) == []


def dense_layout_calls(module: str, source: str) -> set:
    """module.qualname of the function or method around each
    hermitian_extend call in source (module alone at module level)."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{prefix}.{child.name}")
                continue
            if isinstance(child, ast.Call) and getattr(
                    child.func, "id", getattr(child.func, "attr", None)) == "hermitian_extend":
                found.add(prefix)
            visit(child, prefix)

    visit(ast.parse(source), module)
    return found


#: where a real field leaves the half spectrum c[0..M] for the dense
#: coefficients -M..M, by the reason it does
DENSE_LAYOUT_ALLOWED = {
    "perfbench reads Trajectory.states": {"integrate.Trajectory.states"},
    "the one constructor of a field from c[0..M]": {"spectral.SpectralField.from_half"},
}


def test_dense_layout_walk_finds_each_case():
    src = ("from .spectral import hermitian_extend\nTABLE = hermitian_extend(x)\n"
           "def f(h):\n    return hermitian_extend(h)\n"
           "def g(h):\n    def inner():\n        return sp.hermitian_extend(h)\n    return inner\n"
           "class K:\n    def m(self, h):\n        return [hermitian_extend(r) for r in h]\n"
           "def untouched(h):\n    return h\n")
    # module level, a function, a nested function through a module
    # attribute and a method are each found; a function without one is not
    assert dense_layout_calls("lab", src) == {"lab", "lab.f", "lab.g.inner", "lab.K.m"}


def test_dense_layout_only_at_the_boundary():
    # inside the package a real field is its half spectrum; each call that
    # builds the dense layout is one of the boundary's reasons
    found = set().union(*(dense_layout_calls(path.stem, path.read_text())
                          for path in (ROOT / "src" / "mkdvlab").glob("*.py")))
    allowed = set().union(*DENSE_LAYOUT_ALLOWED.values())
    assert sorted(found - allowed) == [] and sorted(allowed - found) == []


def parameters(module: str, tree: ast.Module) -> list:
    """(key, name, callee names, position, settable by assignment, default,
    read) of every parameter of the functions and methods in tree but self
    or cls, and every field of its dataclasses; position counts the
    arguments a call passes before it (None if only a keyword can pass it),
    default is the default's node (None if it has none), and read says
    whether the function's body reads the parameter (True for a field)."""
    out = []

    def visit(body, prefix, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", node)
                deco = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
                if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in deco):
                    continue
                frozen = any(k.arg == "frozen" and getattr(k.value, "value", False)
                             for d in node.decorator_list if isinstance(d, ast.Call)
                             for k in d.keywords)
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)
                          and "init=False" not in ast.unparse(f.value or ast.Constant(None))]
                out.extend((f"{module}.{prefix}{node.name}.{f.target.id}", f.target.id,
                            {node.name}, i, not frozen, f.value, True)
                           for i, f in enumerate(fields))
            elif isinstance(node, ast.FunctionDef):
                visit(node.body, f"{prefix}{node.name}.", None)
                shift = 0 if cls is None else 1  # self or cls
                names = {node.name} | ({cls.name} if cls and node.name == "__init__" else set())
                a = node.args
                positional = a.posonlyargs + a.args
                defaults = dict(zip(positional[len(positional) - len(a.defaults):], a.defaults))
                defaults.update(zip(a.kwonlyargs, a.kw_defaults))
                reads = {n.id for stmt in node.body for n in ast.walk(stmt)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                out.extend((f"{module}.{prefix}{node.name}({arg.arg})", arg.arg, names,
                            i - shift if i < len(positional) else None, False,
                            defaults.get(arg), arg.arg in reads)
                           for i, arg in enumerate(positional + a.kwonlyargs) if i >= shift)

    visit(tree.body, "", None)
    return out


def _constant(node) -> bool:
    """A constant, or a constant under a unary + or - (as -1.0 parses)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant)


def _literal(node) -> bool:
    """A constant, or a tuple or list of constants."""
    return _constant(node) or (
        isinstance(node, (ast.Tuple, ast.List)) and all(map(_constant, node.elts)))


def unset_parameters(sources: dict) -> set:
    """Keys (see parameters) of the parameters and dataclass fields of the
    modules in sources that no caller sets: a default that no call in them
    passes, by position or keyword; a parameter that its function's body
    never reads; and a parameter to which every call passes the same
    literal (compared by AST), a call that leaves out a default passing the
    default.  A callee matches by its last name; partial(f, ...) is a call
    of f, a call of a class passes its __init__ and fields, an attribute
    assignment sets the field of a dataclass not frozen, and a callee also
    read as a value (passed or stored) may be called with anything."""
    calls, assigned, as_value, params = {}, set(), set(), []
    for module, source in sources.items():
        tree = ast.parse(source)
        params += parameters(module, tree)
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                assigned.add(node.attr)
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            callees.add(func)
            if getattr(func, "id", getattr(func, "attr", None)) == "partial" and args:
                func, args = args[0], args[1:]
                callees.add(func)
            name = getattr(func, "id", getattr(func, "attr", None))
            calls.setdefault(name, []).append((args, {k.arg: k.value for k in node.keywords}))
        as_value |= {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(tree)
                     if isinstance(n, (ast.Name, ast.Attribute))
                     and isinstance(n.ctx, ast.Load) and n not in callees}

    def passed(args, kw, arg, pos):
        """The node a call passes for the parameter: its argument, a * or **
        argument that may hold it, or None if the call leaves it out."""
        if pos is not None:
            starred = [x for x in args[:pos + 1] if isinstance(x, ast.Starred)]
            if starred:
                return starred[0]
            if len(args) > pos:
                return args[pos]
        return kw.get(arg, kw.get(None))

    def unset(arg, names, pos, settable, default):
        if settable and arg in assigned:
            return False
        nodes = [passed(args, kw, arg, pos) for name in names for args, kw in calls.get(name, ())]
        if default is not None and all(n is None for n in nodes):
            return True
        nodes = [default if n is None else n for n in nodes]
        return (bool(nodes) and not names & as_value and all(map(_literal, nodes))
                and len({ast.dump(n) for n in nodes}) == 1)

    return {key for key, arg, names, pos, settable, default, read in params
            if not read or unset(arg, names, pos, settable, default)}


#: parameters that no call in src/ sets to more than one value, with the
#: reason each stays
UNSET_ALLOWED = {
    "console script: main() reads sys.argv": {"cli.main(argv)"},
    # perfbench passes route; item 7's full flow at delta^5 needs inner_terms
    "perfbench / item 7": {"illposed.t2_duhamel_fifth(route)",
                           "illposed.t2_duhamel_fifth(inner_terms)"},
    # the oracles pin each renormalized term through rhs's term mask
    "oracles' seam": {"equations.rhs(renorm_terms)"},
    # COMMANDS calls each with (cfg, args)
    "subcommand signature": {
        "cli.cmd_evolve(args)", "cli.cmd_conserve(args)", "cli.cmd_gauge_check(args)",
        "cli.cmd_miura_check(args)", "cli.cmd_resonance_enum(cfg)",
        "cli.cmd_resonance_identity(args)", "cli.cmd_illposed_growth(args)",
        "cli.cmd_appendix_b(args)", "cli.cmd_norms(args)", "cli.cmd_fifth_derivative(args)"},
    # a term op(h, p, c), an operator(grid, p, terms) or a
    # frequency_bound(p, s0, s1, s01, M) of FLOWS
    "FLOWS signature": {"equations._third_order(p)", "equations._renormalized_operator(p)",
                        "equations._fifth_kdv_bound(s01)"},
    "perfbench passes it": {"equations.derive_gauge_params(c1)",
                            "illposed.numeric_fifth_derivative(deltas)"},
}


def test_parameter_walk_finds_each_case():
    src = ("from functools import partial\n"
           "def f(a, b=1, *, c=2):\n    return a, b, c\n"
           "def g(a, b=1, c=2):\n    return a, b, c\n"
           "class K:\n    def m(self, x=0):\n        return x\n"
           "@dataclass\nclass D:\n    u: int = 0\n    v: int = 1\n    w: int = 2\n"
           "@dataclass(frozen=True)\nclass E:\n    u: int = 0\n"
           "def unread(a):\n    return 0\n"
           "def same(a, b):\n    return a, b\n"
           "def signed(a, b):\n    return a, b\n"
           "def main(d):\n    h = partial(g, c=d)\n    d.w = 5\n    e = E()\n    e.u = 1\n"
           "    return (f(d, d), h(d), K().m(), D(d, v=d), unread(d),\n"
           "            same((1, 'x'), 3), same((1, 'x'), 4), signed(-1.0, (-1, 2)),\n"
           "            signed(-1.0, (1, 2)))\n")
    got = unset_parameters({"lab": src})
    # an unset default is found; c of g is set only through partial; a of
    # same is passed one tuple by both calls, b two different literals; a
    # of signed is passed one negative literal, b two tuples differing by a sign
    assert got == {"lab.f(c)", "lab.g(b)", "lab.K.m(x)", "lab.E.u", "lab.unread(a)",
                   "lab.same(a)", "lab.signed(a)"}


def test_every_parameter_is_set():
    # a default that no call overrides is an option only tests use, and a
    # parameter never read or always passed one literal is no option at all
    sources = {path.stem: path.read_text() for path in (ROOT / "src" / "mkdvlab").glob("*.py")}
    allowed = set().union(*UNSET_ALLOWED.values())
    unset = unset_parameters(sources)
    assert sorted(unset - allowed) == [] and sorted(allowed - unset) == []


def benchmark_calls(tree: ast.Module, modules: dict) -> list:
    """(call text, callee, positional count, keywords) of every call in the
    benchmark's workloads whose callee is read from a mkdvlab module; a
    **NAME argument passes the keywords of a module-level NAME = dict(...)."""
    spreads = {t.id: [k.arg for k in node.value.keywords] for node in tree.body
               if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
               and getattr(node.value.func, "id", None) == "dict" for t in node.targets}
    out = []
    for node in ast.walk(tree):
        chain = ast.unparse(node.func).split(".") if isinstance(node, ast.Call) else [""]
        if chain[0] not in modules or not all(map(str.isidentifier, chain)):
            continue
        callee = functools.reduce(getattr, chain[1:], modules[chain[0]])
        keywords = [k.arg for k in node.keywords if k.arg]
        keywords += [name for k in node.keywords if k.arg is None
                     for name in spreads[ast.unparse(k.value)]]
        out.append((ast.unparse(node), callee, len(node.args), keywords))
    return out


def unbound_calls(calls: list) -> list:
    """The calls of benchmark_calls whose arguments the callee's signature
    does not bind, with the reason."""
    unbound = []
    for text, callee, n_args, keywords in calls:
        try:
            inspect.signature(callee).bind_partial(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{text}: {exc}")
    return unbound


def test_benchmark_reads_resolve():
    # perfbench/workloads.py reads these names, and passes these arguments,
    # at the parent and at a change alike, so one deleted here breaks the
    # benchmark of both
    from mkdvlab import illposed
    from mkdvlab.integrate import Trajectory

    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    modules = {a.asname: importlib.import_module(a.name) for node in tree.body
               if isinstance(node, ast.Import) for a in node.names if a.name.startswith("mkdvlab.")}
    chains = [ast.unparse(n).split(".") for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    reads = [c for c in chains if c[0] in modules and all(map(str.isidentifier, c))]
    missing = [".".join(c) for c in reads if functools.reduce(
        lambda owner, attr: getattr(owner, attr, None), c[1:], modules[c[0]]) is None]
    assert len(reads) > 20 and missing == []
    assert isinstance(Trajectory.states, property)  # diagnostics_run reads .states
    calls = benchmark_calls(tree, modules)
    assert unbound_calls(calls) == []
    passed = {(callee.__name__, k) for _, callee, _, keywords in calls for k in keywords}
    assert {("growth_experiment", "s"), ("t2_duhamel_fifth", "route"), ("StepControl", "dt"),
            ("RenormalizedTerms", "cubic2"), ("CounterexampleSpec", "N")} <= passed
    spec = illposed.CounterexampleSpec(N=8, s=1.0, t=0.005)
    field, skipped = illposed.t2_duhamel_fifth(
        illposed.counterexample_support(spec), spec, route="normal_form")
    assert skipped == 0 and field


def test_benchmark_call_check_catches_each_breach():
    from mkdvlab import illposed

    tree = ast.parse("import mkdvlab.illposed as illposed\nSPEC = dict(N=8, variant='C3')\n"
                     "illposed.growth_experiment([64], s=1.0, t=1e-4, variant='C3')\n"
                     "illposed.CounterexampleSpec(**SPEC)\n")
    calls = benchmark_calls(tree, {"illposed": illposed})
    assert [(callee.__name__, n, k) for _, callee, n, k in calls] == [
        ("growth_experiment", 1, ["s", "t", "variant"]),
        ("CounterexampleSpec", 0, ["N", "variant"]),
    ]
    assert len(unbound_calls(calls)) == 2
