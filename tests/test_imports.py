"""Source hygiene: every module-level import in the package is used, no
module imports scipy at all, each kind of input file has one reader, each
control law and each judging rule is spelled once, the closed loop's sample
is assembled once, only ``SimTrace`` reads the clamp off a trace, every
function the benchmark traces still exists, and only ``cli.main`` writes
stdout."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gemservo"


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports at top level but never reads. A name listed in
    the module's ``__all__`` is a re-export and counts as used."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {ast.literal_eval(e) for e in node.value.elts}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"{path.name}:{line}: {name}"
        for name, line in sorted(bound.items(), key=lambda item: item[1])
        if name not in read and name not in exported
    ]


def _scipy_imports(path: Path, in_functions: bool = False) -> list[str]:
    """``import scipy...`` statements of a module as ``file:line: statement``:
    those that run when the module is imported, everywhere but inside a
    function body, or with ``in_functions`` every one."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if not in_functions and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            modules = []
        if any(m == "scipy" or m.startswith("scipy.") for m in modules):
            line = node.lineno
            hits.append((line, f"{path.name}:{line}: {ast.unparse(node)}"))
        todo.extend(ast.iter_child_nodes(node))
    return [hit for _, hit in sorted(hits)]


def _reader_calls(path: Path) -> list[str]:
    """Calls of ``np.loadtxt``, ``csv.reader`` and ``json.loads`` in a module,
    as ``file:line: call``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    wanted = {"np.loadtxt", "numpy.loadtxt", "csv.reader", "json.loads"}
    hits = []
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            call = f"{func.value.id}.{func.attr}"
            if call in wanted:
                hits.append((node.lineno, f"{path.name}:{node.lineno}: {call}"))
    return [hit for _, hit in sorted(hits)]


# The anti-windup test of a control law, in any spelling of its names:
# (u > u_max and step > 0.0) or (u < u_min and step < 0.0)
# The parentheses are optional, since ``and`` binds tighter than ``or``.
_WINDUP = re.compile(
    r"[\w.]+\s*>\s*[\w.]+\s+and\s+[\w.]+\s*>\s*0(\.0*)?\s*\)?\s*or\s*"
    r"\(?\s*[\w.]+\s*<\s*[\w.]+\s+and\s+[\w.]+\s*<\s*0(\.0*)?"
)


def _windup_conditions(path: Path) -> list[str]:
    """Lines of a module, code or string, that spell the anti-windup test of
    a control law, as ``file:line``."""
    text = path.read_text()
    return [
        f"{path.name}:{text.count(chr(10), 0, m.start()) + 1}"
        for m in _WINDUP.finditer(text)
    ]


def test_package_has_no_unused_module_level_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    unused = [hit for path in modules for hit in _unused_imports(path)]
    assert unused == []


def test_unused_import_detector_flags_and_exempts(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "from .x import Exported\n"
        "__all__ = ['Exported']\n"
        "def f(a: np.ndarray) -> float:\n"
        "    return pi\n"
    )
    assert _unused_imports(src) == ["mod.py:2: os", "mod.py:4: tau"]


def test_package_imports_scipy_only_inside_functions():
    # scipy.linalg alone takes about a third of a second to import; the
    # commands that never discretize or fit must not pay for it
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    hits = [hit for path in modules for hit in _scipy_imports(path)]
    assert hits == []


def test_no_package_module_imports_scipy():
    # lti.discretize_zoh has its own exponential and sysid a closed-form one
    # with a blocked numpy solve, so the package runs on numpy alone; scipy
    # is only the tests' reference
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    hits = [
        hit for path in modules for hit in _scipy_imports(path, in_functions=True)
    ]
    assert hits == []


def test_scipy_import_detector_flags_and_exempts(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import numpy as np, scipy.linalg\n"
        "from . import scipy_like\n"
        "try:\n"
        "    from scipy import signal\n"
        "except ImportError:\n"
        "    signal = None\n"
        "class K:\n"
        "    import scipy\n"
        "def f():\n"
        "    from scipy.linalg import expm\n"
        "    return expm\n"
    )
    assert _scipy_imports(src) == [
        "mod.py:1: import numpy as np, scipy.linalg",
        "mod.py:4: from scipy import signal",
        "mod.py:8: import scipy",
    ]
    assert _scipy_imports(src, in_functions=True) == [
        "mod.py:1: import numpy as np, scipy.linalg",
        "mod.py:4: from scipy import signal",
        "mod.py:8: import scipy",
        "mod.py:10: from scipy.linalg import expm",
    ]


def test_each_input_kind_has_one_reader():
    # drive logs and loop traces share sysid._read_columns; project, scenario
    # and geometry files share config._parse_json
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    calls = {}
    for path in modules:
        for hit in _reader_calls(path):
            calls.setdefault(hit.rsplit(" ", 1)[1], set()).add(path.name)
    assert calls == {
        "np.loadtxt": {"sysid.py"},
        "csv.reader": {"sysid.py"},
        "json.loads": {"config.py"},
    }


def test_reader_call_detector_flags_and_exempts(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import csv, json\n"
        "import numpy as np\n"
        "def f(fh, text):\n"
        "    rows = list(csv.reader(fh))\n"
        "    data = np.loadtxt(fh, delimiter=',')\n"
        "    doc = json.loads(text)\n"
        "    return json.dumps(doc), np.savetxt, csv.writer(fh)\n"
    )
    assert _reader_calls(src) == [
        "mod.py:4: csv.reader",
        "mod.py:5: np.loadtxt",
        "mod.py:6: json.loads",
    ]


def test_each_control_law_is_spelled_once():
    # the PID and state-feedback laws share one anti-windup text in
    # controllers._law_source; pid_step, sf_step and the loop simloop
    # compiles all run it, so no module may hand-write a copy of a law
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    hits = [hit for path in modules for hit in _windup_conditions(path)]
    assert [hit.split(":")[0] for hit in hits] == ["controllers.py"]


def test_windup_detector_flags_and_exempts(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "def law(u_cmd, di, dxi, limits):\n"
        "    if (u_cmd > limits.u_max and di > 0.0) or (u_cmd < limits.u_min\n"
        "                                             and di < 0.0):\n"
        "        pass\n"
        "    if u_cmd > limits.u_max and dxi > 0 or u_cmd < limits.u_min:\n"
        "        pass\n"
        "    text = '(u > hi and s > 0.0) or (u < lo and s < 0.0)'\n"
        "    frozen = u > hi and s > 0 or u < lo and s < 0\n"
        "    return hi if u_cmd > hi else (lo if u_cmd < lo else u_cmd)\n"
    )
    assert _windup_conditions(src) == ["mod.py:2", "mod.py:7", "mod.py:8"]


def _sample_text_calls(path: Path, builder: str = "_sample_source") -> list[str]:
    """Calls of ``_plant_source`` or ``_law_source`` in a module outside its
    top-level function ``builder``, as ``file:line: call``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = [
        node for node in tree.body
        if not (isinstance(node, ast.FunctionDef) and node.name == builder)
    ]
    hits = []
    for node in (n for top in outside for n in ast.walk(top)):
        if isinstance(node, ast.Call):
            call = ast.unparse(node.func)
            if call.rsplit(".", 1)[-1] in ("_plant_source", "_law_source"):
                hits.append((node.lineno, f"{path.name}:{node.lineno}: {call}"))
    return [hit for _, hit in sorted(hits)]


def test_the_loop_and_its_probe_share_one_sample():
    # simloop's compiled loop and the probe that linearizes it for the
    # closed-form tail and discrete_loop_matrix are both built from
    # _sample_source; a second assembly of the plant and law text drifts
    simloop = PACKAGE / "simloop.py"
    assert _sample_text_calls(simloop) == []
    assert len(_sample_text_calls(simloop, builder=None)) == 2


def test_sample_text_detector_flags_and_exempts(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from . import lti\n"
        "def _sample_source(n):\n"
        "    return _plant_source(n, 'u'), _law_source('pid', n)\n"
        "def other(n):\n"
        "    rows = lti._plant_source(n, 'u_in')\n"
        "    text = '_law_source(law, n)'\n"
        "    return rows, _law_source, _law_gains(n)\n"
        "class K:\n"
        "    def _sample_source(self, n):\n"
        "        return _law_source('sf', n)\n"
    )
    assert _sample_text_calls(src) == [
        "mod.py:5: lti._plant_source",
        "mod.py:10: _law_source",
    ]
    assert len(_sample_text_calls(src, builder=None)) == 4


def _is_constant(node: ast.AST, value: float) -> bool:
    return isinstance(node, ast.Constant) and node.value == value


def _judging_rules(path: Path) -> list[str]:
    """Places in a module that spell the tail window of a trace (a product
    with 0.05, or a division by 20), read ``ESS_REL_TOL`` or spell the ess
    slack (a product of 1e-6 with an amplitude), as ``file:line: what``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and (
            isinstance(node.op, ast.Mult)
            and (_is_constant(node.left, 0.05) or _is_constant(node.right, 0.05))
            or isinstance(node.op, (ast.Div, ast.FloorDiv))
            and _is_constant(node.right, 20)
        ):
            hits.append((node.lineno, f"{path.name}:{node.lineno}: tail window"))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and any(
            _is_constant(a, 1e-6) and "amp" in ast.unparse(b)
            for a, b in ((node.left, node.right), (node.right, node.left))
        ):
            hits.append((node.lineno, f"{path.name}:{node.lineno}: ess slack"))
        names = (getattr(node, key, None) for key in ("id", "attr", "name"))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and (
            "ESS_REL_TOL" in names
        ):
            hits.append((node.lineno, f"{path.name}:{node.lineno}: ESS_REL_TOL"))
    return [hit for _, hit in sorted(hits)]


def test_each_judging_rule_is_spelled_once():
    # the tail window that settling and final values use, and the slack of
    # the zero-error test, live in metrics (metrics._tail, ess_bound); a
    # second spelling elsewhere drifts from them
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    hits = [hit for path in modules for hit in _judging_rules(path)]
    windows = [hit.split(":")[0] for hit in hits if hit.endswith("tail window")]
    assert windows == ["metrics.py"]
    assert {hit.split(":")[0] for hit in hits} == {"metrics.py"}


def test_judging_rule_detector_flags_and_exempts(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from .metrics import ESS_REL_TOL\n"
        "from . import metrics\n"
        "def f(y, err, amp, n, rate):\n"
        "    n_tail = max(1, int(round(0.05 * y.size)))\n"
        "    ok = err <= metrics.ESS_REL_TOL * abs(amp)\n"
        "    k = n // 20 + y.size * 0.05\n"
        "    s = err / (abs(req.amplitude) * 1e-6 + ess_max) + 1e-6 * amp\n"
        "    tol = 1e-6 * rate + 1e-6 * abs(n) + 2e-6 * amp + 1e-5 * amp\n"
        "    return 20.0 / rate, 20.0 * n, 0.05 + n, n / 2.0, n - 20\n"
    )
    assert _judging_rules(src) == [
        "mod.py:1: ESS_REL_TOL",
        "mod.py:4: tail window",
        "mod.py:5: ESS_REL_TOL",
        "mod.py:6: tail window",
        "mod.py:6: tail window",
        "mod.py:7: ess slack",
        "mod.py:7: ess slack",
    ]


def _is_command(node: ast.AST) -> bool:
    """Whether a node is a ``.u`` attribute, or an item of one."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "u"


def _command_comparisons(path: Path) -> list[str]:
    """Comparisons in a module with a trace's command ``u`` on either side,
    as ``file:line: name`` of the top-level definition they sit in."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Compare) and any(
                _is_command(side) for side in [node.left, *node.comparators]
            ):
                name = getattr(top, "name", "<module>")
                hits.append((node.lineno, f"{path.name}:{node.lineno}: {name}"))
    return [hit for _, hit in sorted(hits)]


def test_only_sim_trace_reads_the_clamp_off_a_trace():
    # SimTrace reads clipped_low, clipped_high and saturation_fraction off
    # u and u_sat; a second comparison of u with the limits drifts from the
    # clamp the loop applied
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    hits = [hit for path in modules for hit in _command_comparisons(path)]
    assert len(hits) == 3
    assert {(h.split(":")[0], h.rsplit(" ", 1)[1]) for h in hits} == {
        ("simloop.py", "SimTrace")
    }


def test_command_comparison_detector_flags_and_exempts(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import numpy as np\n"
        "def f(trace, limits, u):\n"
        "    low = int(np.sum(trace.u < limits.u_min))\n"
        "    if trace.u[0] > 0 or u < limits.u_max:\n"
        "        pass\n"
        "    same = limits.u_min == trace.u_sat[0]\n"
        "    return trace.u, max(trace.u), 0 < trace.y[-1], u != low\n"
        "class T:\n"
        "    def n(self):\n"
        "        return np.count_nonzero(self.u != self.u_sat)\n"
    )
    assert _command_comparisons(src) == [
        "mod.py:3: f",
        "mod.py:4: f",
        "mod.py:10: T",
    ]


def _traced_functions() -> list[tuple[str, str]]:
    """(module, attribute) of each entry of ``TARGETS`` in the benchmark's
    ``perfbench/tracing.py``, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    (targets,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    return [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]


def test_every_function_the_benchmark_traces_resolves():
    # the tracer wraps these names where their callers look them up; a
    # refactor that drops one breaks `perfbench/run.py --trace 1`
    targets = _traced_functions()
    assert len(targets) >= 20
    missing = [
        f"{module}.{attr}" for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def _stdout_writes(path: Path, writer: str | None = "main") -> list[str]:
    """Calls in a module that write stdout (``print`` without
    ``file=sys.stderr``, and ``sys.stdout.write``) outside its top-level
    function ``writer``, as ``file:line: call``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = [
        node for node in tree.body
        if not (isinstance(node, ast.FunctionDef) and node.name == writer)
    ]
    hits = []
    for node in (n for top in outside for n in ast.walk(top)):
        if not isinstance(node, ast.Call):
            continue
        call = ast.unparse(node.func)
        to_stderr = any(
            k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
            for k in node.keywords
        )
        if call == "print" and not to_stderr or call == "sys.stdout.write":
            hits.append((node.lineno, f"{path.name}:{node.lineno}: {call}"))
    return [hit for _, hit in sorted(hits)]


def test_only_cli_main_writes_stdout():
    # each command returns its document and text lines, and main prints one
    # of the two; a command that printed would write text under --json
    cli = PACKAGE / "cli.py"
    assert _stdout_writes(cli) == []
    assert [hit.split(": ")[1] for hit in _stdout_writes(cli, writer=None)] == [
        "sys.stdout.write"
    ]


def test_stdout_write_detector_flags_and_exempts(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import sys\n"
        "def f(doc):\n"
        "    print(doc)\n"
        "    print('x', file=sys.stderr)\n"
        "    sys.stdout.write(doc)\n"
        "    print(doc, file=sys.stdout)\n"
        "    sys.stderr.write(doc)\n"
        "def main():\n"
        "    print('usage')\n"
        "    sys.stdout.write('x')\n"
        "class K:\n"
        "    def main(self):\n"
        "        print(self)\n"
    )
    assert _stdout_writes(src) == [
        "mod.py:3: print",
        "mod.py:5: sys.stdout.write",
        "mod.py:6: print",
        "mod.py:13: print",
    ]
    assert len(_stdout_writes(src, writer=None)) == 6
