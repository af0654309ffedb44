"""Static scans of the package (stdlib ast only): every module uses every name
it imports, and every defaulted parameter of the public API is set by some call."""

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


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(callee, parameter, position or None) for each defaulted parameter of the
    module's public functions and of the public methods and ``__init__`` of its
    public classes; the callee of ``__init__`` is the class, and method
    positions skip ``self`` or ``cls``."""
    out = []

    def scan(fn, callee, bound):
        args = fn.args
        positional = (args.posonlyargs + args.args)[bound:]
        first_default = len(positional) - len(args.defaults)
        out.extend((callee, a.arg, i) for i, a in enumerate(positional) if i >= first_default)
        out.extend(
            (callee, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        )

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            scan(node, node.name, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    scan(item, node.name, 1)
                elif isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    scan(item, item.name, 1)
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
