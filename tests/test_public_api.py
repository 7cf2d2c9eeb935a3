"""The package's exported names, and the names the benchmark tracer wraps."""

import ast
import functools
import importlib
import importlib.util
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


def transform_call_breaches(source: str, traced: set) -> list:
    """Lines of `source` that import numpy.fft, scipy.signal or names from
    scipy.fft, or call a transform other than as a traced scipy.fft attribute."""
    tree = ast.parse(source)
    sfft_names, numpy_names, breaches = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith(("numpy.fft", "scipy.signal")):
                    breaches.append((node.lineno, f"import {a.name}"))
                elif a.name == "scipy.fft" and a.asname:
                    sfft_names.add(a.asname)
                elif a.name == "numpy":
                    numpy_names.add(a.asname or a.name)
        elif isinstance(node, ast.ImportFrom):
            mod, names = node.module or "", {a.name for a in node.names}
            if (mod.startswith(("scipy.fft", "numpy.fft", "scipy.signal"))
                    or (mod == "numpy" and "fft" in names)
                    or (mod == "scipy" and "signal" in names)):
                breaches.append((node.lineno, f"from {mod} import {', '.join(sorted(names))}"))
            elif mod == "scipy":
                sfft_names |= {a.asname or a.name for a in node.names if a.name == "fft"}

    def is_sfft(expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in sfft_names
        return (isinstance(expr, ast.Attribute) and expr.attr == "fft"
                and isinstance(expr.value, ast.Name) and expr.value.id == "scipy")

    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "fft"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            breaches.append((node.lineno, f"{node.value.id}.fft"))
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in traced:
            breaches.append((node.lineno, f"bare {f.id}()"))
        elif isinstance(f, ast.Attribute) and is_sfft(f.value):
            if f.attr not in traced | FFT_HELPERS:
                breaches.append((node.lineno, f"untraced scipy.fft.{f.attr}()"))
    return breaches


def test_transforms_called_as_traced_scipy_fft_attributes():
    # perfbench's tracer and tests/test_fft_counts.py replace these attributes
    # of the scipy.fft module; a transform reached any other way goes uncounted
    traced = {attr for owner, attr, _ in load_tracing().TRACED if owner is scipy.fft}
    bad = {
        path.name: breaches
        for path in sorted((ROOT / "src" / "mkdvlab").glob("*.py"))
        if (breaches := transform_call_breaches(path.read_text(), traced))
    }
    assert bad == {}


def test_transform_call_check_catches_each_breach():
    traced = {"fft", "ifft", "rfft", "irfft"}
    good = "import numpy as np\nimport scipy.fft as sfft\nsfft.fft(x)\nsfft.next_fast_len(9)\n"
    assert transform_call_breaches(good, traced) == []
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
    ):
        assert transform_call_breaches(line + "\n", traced), line


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


def unreached_definitions(sources: dict) -> dict:
    """{qualified name: lines} of the top-level functions and classes, and
    non-dunder methods, of the modules in sources ({module: source}) that no
    chain of references from cli.main or from import-time code (less
    imports and __all__) reaches.  A reference is any name or attribute
    spelt as a definition's last name, so the walk may over-reach but never
    misses a call; reaching a class runs all of it but its other methods."""
    defs, todo = {}, []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = node
                defs |= {f"{module}.{node.name}.{m.name}": m
                         for m in (node.body if isinstance(node, ast.ClassDef) else ())
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")}
            elif not isinstance(node, (ast.Import, ast.ImportFrom)) and "__all__" not in {
                    getattr(t, "id", None) for t in getattr(node, "targets", [])}:
                todo.append(node)
    reached, seen = {"cli.main"}, set()
    todo.append(defs["cli.main"])
    while todo:
        for node in ast.walk(todo.pop()):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is None or name in seen:
                continue
            seen.add(name)
            for qual in {q for q in defs if q.rsplit(".", 1)[1] == name} - reached:
                reached.add(qual)
                found = defs[qual]
                todo += [found] if isinstance(found, ast.FunctionDef) else [
                    *found.decorator_list, *found.bases,
                    *(m for m in found.body if f"{qual}.{getattr(m, 'name', '')}" not in defs)]
    return {qual: node.end_lineno - node.lineno + 1
            for qual, node in defs.items() if qual not in reached}


#: definitions no subcommand reaches yet, by the ROADMAP item that decides
#: them; a definition that becomes reached leaves the list
UNREACHED_ALLOWED = {
    # perfbench reads Trajectory.states; the oracles and the tracer osc_double
    "items 1/9": {"integrate.Trajectory.states", "illposed.osc_double"},
    "item 2": {"shorttime.modulation_decompose", "shorttime.ModulationShellSet",
               "shorttime.ModulationShellSet.total_mass_sq", "shorttime.xk_norm"},
    "item 3": {"transforms.miura"},
    "item 8": {"invariants.es_energy", "invariants.modified_energy_ek",
               "invariants._ek_correction", "spectral.psi", "spectral.project_pk",
               "spectral.eta0_prime", "spectral._g_prime"},
}


def test_reach_walk_finds_each_case():
    cli_src = "TABLE = {'a': cmd_a}\ndef main():\n    return TABLE\n"
    lab = ("def cmd_a():\n    return Box().size\n"
           "class Box:\n    def __init__(self):\n        self.x = helper()\n"
           "    @property\n    def size(self):\n        return 1\n"
           "    def unused_method(self):\n        pass\n"
           "def helper():\n    return 2\n"
           "def unused(x):\n    return helper()\n")
    got = unreached_definitions({"cli": cli_src, "lab": lab})
    assert got == {"lab.Box.unused_method": 2, "lab.unused": 2}


def test_every_definition_is_reached():
    # a definition that no subcommand reaches is code that only tests run
    sources = {path.stem: path.read_text() for path in (ROOT / "src" / "mkdvlab").glob("*.py")}
    allowed = set().union(*UNREACHED_ALLOWED.values())
    unreached = set(unreached_definitions(sources))
    assert sorted(unreached - allowed) == [] and sorted(allowed - unreached) == []


def test_benchmark_reads_resolve():
    # perfbench/workloads.py reads these names at the parent and at a change
    # alike, so one deleted here breaks the benchmark of both
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
    spec = illposed.CounterexampleSpec(N=8, s=1.0, t=0.005)
    field, skipped = illposed.t2_duhamel_fifth(
        illposed.counterexample_support(spec), spec, route="normal_form")
    assert skipped == 0 and field
