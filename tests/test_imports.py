"""Static scans of the package (stdlib ast only): every module uses every name
it imports, every module's ``__all__`` is exactly its public interface, every
defaulted parameter of the public API is set by some call, and every public
function and method is referenced by the package or the benchmark."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "magschro"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_scan_reports_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom math import pi, tau\nsys.exit(pi)\n") == [
        "os (line 1)",
        "tau (line 3)",
    ]


FFT_TRANSFORMS = {
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
}


def fft_transform_calls(source: str) -> list[str]:
    """Each call of a ``numpy.fft`` transform, as ``x.fft.name(...)`` or as a
    name imported from ``numpy.fft``; ``fftfreq`` and the like are not transforms."""
    tree = ast.parse(source)
    direct = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.fft"
        for alias in node.names
        if alias.name in FFT_TRANSFORMS
    }
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        via_module = (
            isinstance(f, ast.Attribute)
            and f.attr in FFT_TRANSFORMS
            and getattr(f.value, "attr", getattr(f.value, "id", None)) == "fft"
        )
        if via_module or (isinstance(f, ast.Name) and f.id in direct):
            out.append(f"{ast.unparse(f)} (line {node.lineno})")
    return out


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grid.py"], ids=lambda p: p.name)
def test_every_transform_is_made_in_grid(path):
    # one place for the transforms, where a counter or a change of backend goes
    assert fft_transform_calls(path.read_text()) == []


def test_scan_reports_a_transform_call():
    module = (
        "import numpy as np\nfrom numpy import fft\nfrom numpy.fft import rfftn as r, fftfreq\n"
        "np.fft.fft(a, axis=1)\nfft.ifftn(a)\nr(a)\nnp.fft.fftfreq(8)\nfftfreq(8)\n"
        "grid._fft(a, 1)\n"
    )
    assert fft_transform_calls(module) == [
        "np.fft.fft (line 4)",
        "fft.ifftn (line 5)",
        "r (line 6)",
    ]


def all_mismatches(source: str) -> list[str]:
    """Each ``__all__`` entry that no module-level statement binds, then each
    public def or class at module level that ``__all__`` leaves out."""
    bound, public, listed = set(), [], []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
            if not node.name.startswith("_"):
                public.append(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            names = {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names:
                listed = ast.literal_eval(node.value)
    stale = [f"stale __all__ entry {name}" for name in listed if name not in bound]
    return stale + [f"{name} missing from __all__" for name in public if name not in listed]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"], ids=lambda p: p.name)
def test_all_lists_the_public_interface(path):
    # cli is the console entry point, imported by no one
    assert all_mismatches(path.read_text()) == []


def test_scan_reports_an_all_mismatch():
    module = (
        "import os\nfrom math import pi as PI\nX, Y = 1, 2\n"
        "__all__ = ['f', 'PI', 'X', 'gone', 'K']\n"
        "def f():\n    pass\ndef g():\n    pass\n"
        "class K:\n    pass\nclass L:\n    pass\ndef _h():\n    pass\n"
    )
    assert all_mismatches(module) == [
        "stale __all__ entry gone",
        "g missing from __all__",
        "L missing from __all__",
    ]


def public_functions(source: str):
    """(callee, def, bound) for the module's public functions and for the public
    methods and ``__init__`` of its public classes; the callee of ``__init__``
    is the class, and ``bound`` is 1 for a method (``self`` or ``cls``)."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    yield node.name, item, 1
                elif isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item, 1


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(callee, parameter, position or None) for each defaulted parameter of
    `public_functions`; method positions skip ``self`` or ``cls``."""
    out = []
    for callee, fn, bound in public_functions(source):
        args = fn.args
        positional = (args.posonlyargs + args.args)[bound:]
        first_default = len(positional) - len(args.defaults)
        out.extend((callee, a.arg, i) for i, a in enumerate(positional) if i >= first_default)
        out.extend(
            (callee, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        )
    return out


def calls_by_name(sources) -> dict[str, list[ast.Call]]:
    """Every call in the sources, keyed by the called name (``f`` and ``obj.f`` alike)."""
    out = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                out.setdefault(name, []).append(node)
    return out


def passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    """Whether the call sets the parameter; ``**kwargs`` and ``*args`` count as setting it."""
    if any(k.arg is None or k.arg == parameter for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def unset_defaults(package_sources: dict, calls: dict) -> list[str]:
    return [
        f"{module}.{callee}({parameter})"
        for module, source in package_sources.items()
        for callee, parameter, position in defaulted_parameters(source)
        if not any(passes(c, parameter, position) for c in calls.get(callee, []))
    ]


def test_every_defaulted_parameter_is_set_somewhere():
    callers = [p.read_text() for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    sources = {p.stem: p.read_text() for p in MODULES}
    # the console entry point cli.main(argv=None) takes argv from sys.argv
    assert set(unset_defaults(sources, calls_by_name(callers))) <= {"cli.main(argv)"}


def test_scan_reports_an_unset_default():
    module = (
        "def f(a, b=1, *, c=2):\n    pass\n"
        "class K:\n    def __init__(self, x=0):\n        pass\n"
        "    def m(self, y=0, z=0):\n        pass\n"
        "def _private(d=0):\n    pass\n"
    )
    callers = ["f(0, 1)\nK(**kw)\nobj.m(3)\n"]
    assert unset_defaults({"mod": module}, calls_by_name(callers)) == ["mod.f(c)", "mod.m(z)"]


# module.callee -> why it stays in src/ though neither src/ nor perfbench/ references it
UNREFERENCED = {
    "angular.derivative_bound": "CapPartition.derivative_bound; test_uniform_derivative_bounds",
    "lp.project_below": "perfbench/tracing.py LAYER_TARGETS resolves it by getattr",
    "lp.project_fat": "perfbench/tracing.py LAYER_TARGETS resolves it by getattr",
    "lp.bernstein_ratio": "README Dyadic calculus: 'Bernstein ratios'",
    "lp.mixed_bernstein_ratio": "README Dyadic calculus: 'Bernstein ratios'",
    "lp.besov_l2_norm": "README Dyadic calculus: 'Besov-l2 sums'",
    "norms.path_sup_time_norm": "README Notes: 'Suprema over measurable base paths factorize'",
    "norms.xdot_norm": "README Mixed norms: 'the Besov-type solution norm'",
    "potentials.corollary_norm": "README Vector potentials: '`corollary_norm` walk their bands'",
    "solver.lp_reduced_equation_check": "README Parametrix: 'the band-k equation check'",
}


def references(sources) -> set[str]:
    """Every name the sources read, bare (``f``) or as an attribute (``obj.f``)."""
    out = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def unreferenced(package_sources: dict, names: set, allowlist: dict) -> list[str]:
    """``module.callee`` of each of `public_functions` that no source reads and
    the allowlist does not name, then each allowlist entry that is referenced or
    no longer defined."""
    missing = [
        f"{module}.{callee}"
        for module, source in package_sources.items()
        for callee, _, _ in public_functions(source)
        if callee not in names
    ]
    stale = [f"stale allowlist entry {entry}" for entry in allowlist if entry not in missing]
    return [entry for entry in missing if entry not in allowlist] + stale


def test_every_public_function_is_referenced():
    # the package's modules without the re-exports of __init__.py, and the benchmark
    readers = [p.read_text() for p in [*MODULES, *(ROOT / "perfbench").rglob("*.py")]]
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unreferenced(sources, references(readers), UNREFERENCED) == []


def test_scan_reports_an_unreferenced_function():
    module = (
        "def f():\n    pass\n"
        "def g():\n    pass\n"
        "def kept():\n    pass\n"
        "class K:\n    def __init__(self):\n        pass\n"
        "    def m(self):\n        pass\n"
        "    def used(self):\n        pass\n"
        "def _private():\n    pass\n"
    )
    readers = ["def f():\n    pass\nobj.g()\nK().used()\n"]
    allowlist = {"mod.kept": "a reason", "mod.used": "now referenced"}
    assert unreferenced({"mod": module}, references(readers), allowlist) == [
        "mod.f",
        "mod.m",
        "stale allowlist entry mod.used",
    ]
