"""Source hygiene: every import in a wexpand module is used there, every
top-level private name is used somewhere in the package, every raise is one
that the CLI reports, every file is written through `csvcells`, every check
is built in `checks` and `cli` imports no engine module, every name the
benchmark traces still exists, and the CLI accepts every argv the benchmark
sends, reading the plain ones without argparse and handing the writer each
float column as the array it was computed as."""
import ast
import importlib
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import wexpand
from wexpand import cli
from wexpand.cli import main

_PACKAGE = sorted(Path(wexpand.__file__).parent.glob("*.py"))
# `__init__.py` imports only to re-export.
_MODULES = [p for p in _PACKAGE if p.name != "__init__.py"]


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_gate_sees_an_unused_import():
    source = "import functools\nfrom math import pi, tau as t\nfrom __future__ import annotations\n"
    assert _unused_imports(source + "x = pi\n") == ["line 1: functools", "line 2: t"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Top-level private functions, classes and constants that no module reads.

    A name counts as read where it is loaded, taken as an attribute or
    imported; binding it does not count.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, ast.Assign):
                bound = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                bound = [node.target.id]
            else:
                continue
            dead += [f"{module}:{node.lineno}: {b}" for b in bound if _is_private(b) and b not in used]
    return dead


def test_every_private_top_level_name_is_used_in_the_package():
    sources = {p.name: p.read_text() for p in _PACKAGE}
    assert _unreferenced_private_names(sources) == []


def test_the_gate_sees_an_unused_private_name():
    sources = {
        "a.py": "def _dead():\n    pass\n\nclass _Gone:\n    pass\n\n_LIMIT = 3\n"
                "def _live():\n    return _KEPT\n\n_KEPT = 1\n__all__ = []\n",
        "b.py": "from .a import _live\n",
    }
    assert _unreferenced_private_names(sources) == ["a.py:1: _dead", "a.py:4: _Gone", "a.py:7: _LIMIT"]


def _exception_name(node) -> str | None:
    """The class named after `raise` (or in a base list): `E`, `E(...)`, `m.E(...)`."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _unreportable_raises(sources: dict[str, str]) -> list[str]:
    """Raise statements whose exception is not ValueError or a package class derived from it.

    `cli.main` turns those into `error:` and exit 2; anything else reaches
    the user as a traceback.  A `from` clause does not change what is
    raised.  A bare re-raise or a raised variable is listed too, since its
    class cannot be read off the source.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    bases = {
        node.name: [_exception_name(base) for base in node.bases]
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def reportable(name) -> bool:
        return name == "ValueError" or any(reportable(base) for base in bases.get(name, ()))

    bad = []
    for module, tree in trees.items():
        raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)]
        for node in sorted(raises, key=lambda node: node.lineno):
            name = _exception_name(node.exc)
            if not reportable(name):
                bad.append(f"{module}:{node.lineno}: {name}")
    return bad


def test_every_raise_in_the_package_is_reported_by_the_cli():
    sources = {p.name: p.read_text() for p in _PACKAGE}
    assert _unreportable_raises(sources) == []


def test_the_gate_sees_a_raise_the_cli_cannot_report():
    source = (
        "class Bad(ValueError):\n    pass\n"
        "class Worse(Bad):\n    pass\n"
        "def f(x):\n"
        "    if x == 1:\n        raise ValueError('x') from None\n"
        "    if x == 2:\n        raise mod.Worse()\n"
        "    if x == 3:\n        raise RuntimeError('x')\n"
        "    raise TypeError('x') from None\n"
    )
    assert _unreportable_raises({"a.py": source}) == ["a.py:11: RuntimeError", "a.py:12: TypeError"]


def _file_writers(sources: dict[str, str]) -> list[str]:
    """Calls of `open` outside `csvcells` whose mode writes: "w", "a" or "x".

    `csvcells.write_csv` is the package's one CSV writer.  A mode that is not
    a string literal is listed too, since what it opens cannot be read off
    the source.
    """
    found = []
    for module, source in sources.items():
        if module == "csvcells.py":
            continue
        calls = [
            node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and _exception_name(node.func) == "open"
        ]
        for node in sorted(calls, key=lambda node: node.lineno):
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            for mode in modes:
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
                    found.append(f"{module}:{node.lineno}: open with a computed mode")
                elif set(mode.value) & set("wax"):
                    found.append(f"{module}:{node.lineno}: open(..., {mode.value!r})")
    return found


def test_only_csvcells_opens_a_file_for_writing():
    sources = {p.name: p.read_text() for p in _MODULES}
    assert _file_writers(sources) == []


def test_the_gate_sees_a_second_writer():
    # The per-row writer that `cli` held before `csvcells.write_csv`.
    old_writer = (
        "def _write_rows(path, header, row_format, rows):\n"
        "    with open(path, \"w\", newline=\"\") as fh:\n"
        "        fh.write(\",\".join(header) + \"\\n\")\n"
        "        fh.writelines([row_format % row for row in rows])\n"
    )
    others = (
        "import io, os\n"
        "def read(path, config):\n"
        "    with open(config) as fh, open(path, mode='rb') as raw:\n"
        "        return fh.read(), raw.read()\n"
        "def log(path, mode):\n"
        "    io.open(path, mode='a').close()\n"
        "    os.open(path, os.O_WRONLY)\n"
        "    open(path, mode).close()\n"
    )
    sources = {"cli.py": old_writer, "b.py": others, "csvcells.py": "open(path, 'wb')\n"}
    assert _file_writers(sources) == [
        "cli.py:2: open(..., 'w')",
        "b.py:6: open(..., 'a')",
        "b.py:7: open with a computed mode",
        "b.py:8: open with a computed mode",
    ]


def _layering_faults(sources: dict[str, str]) -> list[str]:
    """A `Check` built outside `checks`, and an import of the engine in `cli`.

    `checks.CHECKS` is the one registry of the paper's claims.  `cli` parses
    and writes; it reaches `statevec` and `gates` only through the callees
    of its commands.  A call is read as a construction by the name it
    calls, bare or as an attribute.
    """
    found = []
    for module, source in sources.items():
        nodes = [node for node in ast.walk(ast.parse(source)) if hasattr(node, "lineno")]
        for node in sorted(nodes, key=lambda node: node.lineno):
            if isinstance(node, ast.Call) and _exception_name(node.func) == "Check":
                if module != "checks.py":
                    found.append(f"{module}:{node.lineno}: constructs a Check")
            elif module == "cli.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                # `from .gates import x`, `from . import gates`, `import wexpand.gates`.
                base = getattr(node, "module", None) or ""
                names = [base] + [f"{base}.{a.name}".lstrip(".") for a in node.names]
                for name in names:
                    parts = name.split(".")
                    parts = parts[1:] if parts[0] == "wexpand" else parts
                    if parts[0] in ("statevec", "gates"):
                        found.append(f"cli.py:{node.lineno}: imports from {parts[0]}")
                        break
    return found


def test_only_checks_builds_a_check_and_cli_imports_no_engine():
    sources = {p.name: p.read_text() for p in _MODULES}
    assert _layering_faults(sources) == []


def test_the_gate_sees_the_registry_and_engine_imports_in_cli():
    # An excerpt of `cli` from before the registry moved to `checks`.
    old_cli = (
        "from . import cavity as cav\n"
        "from .gates import (\n    NoiseParams,\n    hadamard,\n)\n"
        "from .statevec import StateVector, basis_state\n"
        "from .wcircuit import PHOTON, relabel\n"
        "CHECKS = (\n"
        "    Check(\"bell pair creation\", 1e-12, \"fused and 12-gate\", _bell_pair),\n"
        ")\n"
        "from . import gates\n"
        "import wexpand.statevec as sv, json\n"
    )
    sources = {
        "cli.py": old_cli,
        "wcircuit.py": "import wexpand.gates\nx = checks.Check('n', 1.0, 'd', f)\n",
        "checks.py": "from .gates import t_prime\nCHECKS = (Check('n', 1.0, 'd', f),)\n",
    }
    assert _layering_faults(sources) == [
        "cli.py:2: imports from gates",
        "cli.py:6: imports from statevec",
        "cli.py:9: constructs a Check",
        "cli.py:11: imports from gates",
        "cli.py:12: imports from statevec",
        "wcircuit.py:2: constructs a Check",
    ]


# The benchmark traces these methods by name, and drives the CLI through
# `main` and `run_verification`; a cut one would break only traced runs.
_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_methods(source: str) -> dict:
    """The `METHODS` table of the tracing module's source, read without importing it."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "METHODS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no METHODS table")


def _missing_traced_names(methods: dict) -> list[str]:
    """Each class and method of `methods`, and each CLI entry point, that wexpand lacks."""
    missing = []
    for layer, pairs in methods.items():
        module = importlib.import_module(f"wexpand.{layer}")
        for cls_name, meth in pairs:
            cls = getattr(module, cls_name, None)
            if cls is None or meth not in vars(cls):
                missing.append(f"{layer}.{cls_name}.{meth}")
    cli = importlib.import_module("wexpand.cli")
    missing += [f"cli.{name}" for name in ("main", "run_verification") if not hasattr(cli, name)]
    return missing


def test_every_name_the_benchmark_traces_exists():
    assert _missing_traced_names(_traced_methods(_TRACING.read_text())) == []


def test_the_gate_sees_a_traced_name_that_is_gone():
    source = (
        'METHODS = {\n    "statevec": (("StateVector", "__post_init__"), ("Gone", "run")),\n'
        '    "wcircuit": (("ExpansionCircuit", "vanished"),),\n}\n'
    )
    assert _missing_traced_names(_traced_methods(source)) == [
        "statevec.Gone.run", "wcircuit.ExpansionCircuit.vanished",
    ]


# The benchmark's request generators, run from source: nothing is written
# next to them, and a wexpand change that drops an option the benchmark
# sends fails here rather than on every benchmark request.
_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_BENCHMARK = types.ModuleType("benchmark_workloads")
sys.modules[_BENCHMARK.__name__] = _BENCHMARK  # where dataclasses look it up
exec(compile(_WORKLOADS.read_text(), str(_WORKLOADS), "exec"), _BENCHMARK.__dict__)


def _exit_code(argv: list[str]) -> int:
    """`cli.main`'s exit code for argv, an argparse rejection included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _benchmark_argvs(name: str, out: str) -> list[list[str]]:
    """A workload's warm-up request and one seeded cycle."""
    workload = _BENCHMARK.WORKLOADS[name]
    argvs = [[*workload.warmup, "--out", out]]
    return argvs + [list(request.argv) for request in next(_BENCHMARK.cycles(workload, 1, out))]


@pytest.mark.parametrize("name", sorted(_BENCHMARK.WORKLOADS))
def test_the_cli_accepts_every_argv_the_benchmark_sends(tmp_path, capsys, name):
    # Exit codes only, not the workload's output oracle.
    argvs = _benchmark_argvs(name, str(tmp_path / "out.csv"))
    assert [(argv, code) for argv in argvs if (code := _exit_code(argv)) != 0] == []


def test_the_gate_sees_an_option_the_cli_lacks(capsys):
    assert _exit_code(["prepare", "--n", "1", "--no-such-option", "x"]) == 2


def _parse_path(argv: list[str]) -> str:
    """How `cli.main` reads argv: "plain" if the plain reader returns
    argparse's Namespace, "argparse" if it leaves argv to an argparse that
    accepts it, "misread" or "rejected" otherwise."""
    read = cli._plain_args(argv)
    try:
        parsed = cli._build_parser().parse_args(argv)
    except SystemExit:
        return "rejected"
    if read is None:
        return "argparse"
    return "plain" if read == parsed else "misread"


# Every argv of these is plain.
_PLAIN_WORKLOADS = ("prepare-dense", "sweep-small", "cavity-grid")


@pytest.mark.parametrize("name", sorted(_BENCHMARK.WORKLOADS))
def test_the_benchmark_argv_are_read_without_argparse_where_plain(name):
    allowed = {"plain"} if name in _PLAIN_WORKLOADS else {"plain", "argparse"}
    argvs = _benchmark_argvs(name, "out.csv")
    assert [(argv, path) for argv in argvs if (path := _parse_path(argv)) not in allowed] == []


def test_the_gate_sees_an_option_type_the_reader_cannot_read(monkeypatch):
    func, help_text, options = cli._COMMANDS["prepare"]
    monkeypatch.setitem(cli._COMMANDS, "prepare", (func, help_text, {**options, "phase": 1j}))
    cli._build_parser.cache_clear()
    try:
        assert _parse_path(["prepare", "--n", "3", "--phase", "1j"]) == "argparse"
    finally:
        monkeypatch.undo()
        cli._build_parser.cache_clear()


def _columns_not_float64_arrays(argvs: list[list[str]], monkeypatch) -> list[str]:
    """Each float column that `cli` hands `write_csv` for argvs and that is
    not a 1-D float64 ndarray, as "argv[i] column k: what it is"."""
    faults, calls = [], []
    write_csv = cli.write_csv
    monkeypatch.setattr(cli, "write_csv", lambda *args: calls.append(args) or write_csv(*args))
    for i, argv in enumerate(argvs):
        calls.clear()
        assert main(argv) == 0, argv
        assert len(calls) == 1, argv
        for k, column in enumerate(calls[0][2]):
            if isinstance(column, tuple):  # (strings, index)
                continue
            if not (isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype == np.float64):
                kind = getattr(column, "dtype", type(column).__name__)
                faults.append(f"argv[{i}] column {k}: {kind} of shape {np.shape(column)}")
    return faults


@pytest.mark.parametrize("name", sorted(_BENCHMARK.WORKLOADS))
def test_every_float_column_the_benchmark_writes_is_a_float64_array(
    tmp_path, capsys, monkeypatch, name
):
    # No list or row round trip between a command's engine and its writer.
    argvs = _benchmark_argvs(name, str(tmp_path / "out.csv"))
    assert _columns_not_float64_arrays(argvs, monkeypatch) == []


def test_the_gate_sees_a_float_column_passed_as_a_list(tmp_path, capsys, monkeypatch):
    sweep = cli.noi.sweep
    monkeypatch.setattr(cli.noi, "sweep", lambda *args: sweep(*args)._replace(f_h=[1.0, 0.5]))
    argv = ["fidelity-sweep", "--steps", "2", "--out", str(tmp_path / "out.csv")]
    assert _columns_not_float64_arrays([argv], monkeypatch) == ["argv[0] column 1: list of shape (2,)"]
