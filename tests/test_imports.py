"""Source hygiene: every module-level import in the package is used, no
module imports scipy at all, each kind of input file has one reader, each
control law and each judging rule is spelled once, the closed loop's sample
is assembled once, CSV files have one writer and the loop one reading of
its eigenvalues, only ``SimTrace`` reads the clamp off a trace, every
function the benchmark traces still exists, only ``cli.main`` writes
stdout, only ``simloop.run_and_judge`` runs a loop and judges it, and no
package module runs a second simulator of a model through ``simulate``.
Each public name is declared once, in its module's ``__all__``: the package
re-exports those lists whole, binds no name by name, and each list names
only what its module binds."""

import ast
import importlib
import re
from pathlib import Path
from types import ModuleType, SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gemservo"


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports at top level but never reads. A name listed in
    the module's ``__all__``, as a string constant of a literal or a computed
    list, is a re-export and counts as used, as does a ``*`` import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {
                n.value for n in ast.walk(node.value)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            }
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


def _calls(path: Path, wanted: set[str], outside: str | None = None) -> list[str]:
    """Calls of the dotted names ``wanted`` in a module, outside its
    top-level function ``outside``, as ``file:line: call``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    tops = [node for node in tree.body
            if not (isinstance(node, ast.FunctionDef) and node.name == outside)]
    hits = []
    for node in (n for top in tops for n in ast.walk(top)):
        if isinstance(node, ast.Call) and (call := ast.unparse(node.func)) in wanted:
            hits.append((node.lineno, f"{path.name}:{node.lineno}: {call}"))
    return [hit for _, hit in sorted(hits)]


def _reader_calls(path: Path) -> list[str]:
    """Calls of ``np.loadtxt``, ``csv.reader`` and ``json.loads`` in a module,
    as ``file:line: call``."""
    return _calls(path, {"np.loadtxt", "numpy.loadtxt", "csv.reader", "json.loads"})


def _writer_calls(path: Path) -> list[str]:
    """Calls of ``np.savetxt`` and ``csv.writer`` in a module."""
    return _calls(path, {"np.savetxt", "numpy.savetxt", "csv.writer"})


def _eigvals_calls(path: Path, outside: str | None = "_spectral_radius") -> list[str]:
    """Calls of ``np.linalg.eigvals`` in a module outside its top-level
    function ``outside``."""
    return _calls(path, {"np.linalg.eigvals", "numpy.linalg.eigvals"}, outside)


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
    # a package that star-imports its modules and computes its __all__
    init = tmp_path / "__init__.py"
    init.write_text(
        "from . import x, y, z\n"
        "from .x import *\n"
        "from .y import Named, Other\n"
        "__version__ = '1'\n"
        "__all__ = list(dict.fromkeys(['__version__', 'Named', *x.__all__]))\n"
    )
    assert _unused_imports(init) == ["__init__.py:1: y", "__init__.py:1: z",
                                     "__init__.py:3: Other"]


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


def test_each_output_kind_has_one_writer():
    # traces and workspace grids share sysid._write_columns, beside the
    # reader of its layout, so the CSV format is spelled once
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    hits = [hit for path in modules for hit in _writer_calls(path)]
    assert [hit.split(":")[0] for hit in hits] == ["sysid.py"]


def test_writer_call_detector_flags_and_exempts(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import csv\n"
        "import numpy\n"
        "import numpy as np\n"
        "def f(fh, rows):\n"
        "    csv.writer(fh).writerows(rows)\n"
        "    np.savetxt(fh, rows, fmt='%.12g')\n"
        "    numpy.savetxt(fh, rows)\n"
        "    text = 'np.savetxt(fh, rows)'\n"
        "    return np.loadtxt(fh), csv.reader(fh), np.savetxt, fh.write(text)\n"
    )
    assert _writer_calls(src) == [
        "mod.py:5: csv.writer",
        "mod.py:6: np.savetxt",
        "mod.py:7: numpy.savetxt",
    ]


def test_the_loop_has_one_stability_rule():
    # the closed-form tail and sampled_decay_rate, which the tuner and the
    # study suites screen with, read the loop map's eigenvalues through
    # simloop._spectral_radius alone, so they share one threshold
    simloop = PACKAGE / "simloop.py"
    assert _eigvals_calls(simloop) == []
    assert len(_eigvals_calls(simloop, outside=None)) == 1


def test_eigvals_call_detector_flags_and_exempts(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import numpy as np\n"
        "def _spectral_radius(phi):\n"
        "    return max(abs(np.linalg.eigvals(phi)))\n"
        "def tail(phi):\n"
        "    rho = np.max(np.abs(np.linalg.eigvals(phi)))\n"
        "    return rho, np.linalg.eig(phi), 'np.linalg.eigvals(phi)'\n"
        "class K:\n"
        "    def _spectral_radius(self, phi):\n"
        "        return numpy.linalg.eigvals(phi)\n"
    )
    assert _eigvals_calls(src) == [
        "mod.py:5: np.linalg.eigvals",
        "mod.py:9: numpy.linalg.eigvals",
    ]
    assert len(_eigvals_calls(src, outside=None)) == 3


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


def _sample_text_calls(path: Path, builder: str = "_loop_source") -> list[str]:
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


def test_only_the_loop_source_assembles_the_sample():
    # simloop's compiled loop is the one assembly of the plant and law text:
    # it also linearizes itself for the closed-form tail and
    # discrete_loop_matrix, so a second assembly, which could drift, has no
    # place in simloop
    simloop = PACKAGE / "simloop.py"
    assert _sample_text_calls(simloop) == []
    assert len(_sample_text_calls(simloop, builder=None)) == 2


def test_sample_text_detector_flags_and_exempts(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from . import lti\n"
        "def _loop_source(n):\n"
        "    return _plant_source(n, 'u'), _law_source('pid', n)\n"
        "def other(n):\n"
        "    rows = lti._plant_source(n, 'u_in')\n"
        "    text = '_law_source(law, n)'\n"
        "    return rows, _law_source, _law_gains(n)\n"
        "class K:\n"
        "    def _loop_source(self, n):\n"
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


def _own_calls(fn: ast.FunctionDef) -> set[str]:
    """The last name of each call in a function, outside the functions
    defined inside it."""
    names, todo = set(), list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Call):
            names.add(ast.unparse(node.func).rsplit(".", 1)[-1])
        todo.extend(ast.iter_child_nodes(node))
    return names


def _run_then_judge(path: Path) -> list[str]:
    """Functions in a module, nested ones included, that call ``run`` and
    also ``analyze_step`` or ``check_requirements``, as ``file:line: name``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            calls = _own_calls(node)
            if "run" in calls and calls & {"analyze_step", "check_requirements"}:
                hits.append((node.lineno, f"{path.name}:{node.lineno}: {node.name}"))
    return [hit for _, hit in sorted(hits)]


def test_only_run_and_judge_runs_a_loop_and_judges_it():
    # the tuner and the study suites judge a step run the same way only if
    # they all call simloop.run_and_judge; a second run-then-judge sequence
    # drifts from it (which traces get metrics, when a verdict is None)
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    hits = [hit for path in modules for hit in _run_then_judge(path)]
    assert [(h.split(":")[0], h.rsplit(" ", 1)[1]) for h in hits] == [
        ("simloop.py", "run_and_judge")
    ]


def test_run_then_judge_detector_flags_and_exempts(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from . import simloop\n"
        "def tune(plant):\n"
        "    def judge(scen):\n"
        "        return analyze_step(simloop.run(scen))\n"
        "    return judge\n"
        "def suite(scen, m, req):\n"
        "    trace = run(scen)\n"
        "    return trace, metrics.check_requirements(m, req)\n"
        "def replay(scen):\n"
        "    trace = run(scen)\n"
        "    return trace, 'analyze_step', run_and_judge(scen)\n"
        "def report(trace, req):\n"
        "    return check_requirements(analyze_step(trace), req)\n"
    )
    assert _run_then_judge(src) == ["mod.py:3: judge", "mod.py:6: suite"]


def _simulate_calls(path: Path) -> list[str]:
    """Calls of ``simulate`` in a module, as ``file:line: call``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            call = ast.unparse(node.func)
            if call.rsplit(".", 1)[-1] == "simulate":
                hits.append((node.lineno, f"{path.name}:{node.lineno}: {call}"))
    return [hit for _, hit in sorted(hits)]


def test_no_package_module_calls_simulate():
    # each model the package simulates has one simulator: the fit its
    # blocked convolution (sysid._cost), the closed loop its compiled loop.
    # lti.simulate stays public API and the tests' reference; a package call
    # of it is a second simulation of a model already simulated
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    assert [hit for path in modules for hit in _simulate_calls(path)] == []


def test_simulate_call_detector_flags_and_exempts(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from . import lti\n"
        "from .lti import simulate\n"
        "def fit(model, u):\n"
        "    y_hat, _ = simulate(model, u)\n"
        "    return y_hat, lti.simulate(model, u)[0]\n"
        "def cmd_simulate(args):\n"
        "    return 'simulate(model, u)', simulated(args), simulate\n"
    )
    assert _simulate_calls(src) == [
        "mod.py:4: simulate",
        "mod.py:5: lti.simulate",
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


# The modules whose __all__ the package re-exports, in the package's order
_REEXPORTED = ("lti", "sysid", "controllers", "simloop", "metrics", "kinematics")


def _named_imports(path: Path) -> list[str]:
    """Names a module binds by name from another module at top level
    (``from .x import name``), as ``file:line: name``. A module import
    (``import x``, ``from . import x``) and a ``*`` import bind none."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno}: {alias.asname or alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and node.module not in (None, "__future__")
        for alias in node.names
        if alias.name != "*"
    ]


def test_the_package_binds_no_name_by_name():
    # each module's __all__ is the one list of its public names; a named
    # import in __init__.py would be a second list that can drift from it
    assert _named_imports(PACKAGE / "__init__.py") == []


def test_named_import_detector_flags_and_exempts(tmp_path):
    src = tmp_path / "__init__.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from . import lti, sysid\n"
        "from .lti import *\n"
        "from .sysid import DataSet, fit as fit_model\n"
        "from os.path import join\n"
        "def f():\n"
        "    from .lti import poles\n"
        "    return poles\n"
    )
    assert _named_imports(src) == [
        "__init__.py:5: DataSet",
        "__init__.py:5: fit_model",
        "__init__.py:6: join",
    ]


def _reexport_faults(package, modules) -> list[str]:
    """How ``package.__all__`` departs from ``__version__`` followed by the
    ``__all__`` of each of ``modules`` in order, each name once, and each
    name of those lists the package binds to another object than its
    module does."""
    listed = list(package.__all__)
    wanted = list(dict.fromkeys(
        ["__version__", *(name for m in modules for name in m.__all__)]
    ))
    faults = [f"listed twice: {n}" for n in dict.fromkeys(listed)
              if listed.count(n) > 1]
    faults += [f"not listed: {n}" for n in wanted if n not in listed]
    faults += [f"not in a module list: {n}" for n in listed if n not in wanted]
    if not faults and listed != wanted:
        faults.append("out of order")
    unbound = object()
    faults += [
        f"{m.__name__}.{n} is not the package's {n}"
        for m in modules for n in m.__all__
        if getattr(package, n, None) is not getattr(m, n, unbound)
    ]
    return faults


def test_the_package_reexports_each_module_list_once():
    # `from gemservo import X` gives the very object of X's module, for every
    # name a module lists, the tracer's aliases (ROADMAP item 11) included
    import gemservo

    modules = [importlib.import_module(f"gemservo.{m}") for m in _REEXPORTED]
    assert _reexport_faults(gemservo, modules) == []


def test_reexport_detector_flags_and_exempts():
    f, g, h = object(), object(), object()
    a = SimpleNamespace(__name__="a", __all__=["f", "g"], f=f, g=g)
    b = SimpleNamespace(__name__="b", __all__=["g", "h"], g=g, h=h)
    good = SimpleNamespace(__all__=["__version__", "f", "g", "h"], f=f, g=g, h=h)
    assert _reexport_faults(good, [a, b]) == []
    swapped = SimpleNamespace(__all__=["__version__", "g", "f", "h"], f=f, g=g, h=h)
    assert _reexport_faults(swapped, [a, b]) == ["out of order"]
    bad = SimpleNamespace(__all__=["__version__", "g", "f", "g", "x"],
                          f=f, g=object(), x=1)
    assert _reexport_faults(bad, [a, b]) == [
        "listed twice: g",
        "not listed: h",
        "not in a module list: x",
        "a.g is not the package's g",
        "b.g is not the package's g",
        "b.h is not the package's h",
    ]


def _unbound_exports(module) -> list[str]:
    """Names in a module's ``__all__`` that the module does not bind, as
    ``module.name``."""
    return [f"{module.__name__}.{n}" for n in module.__all__
            if not hasattr(module, n)]


def test_every_listed_name_exists_in_its_module():
    # a star import of a list naming a missing name raises AttributeError
    # when the package is imported; check each list by itself, cli and
    # config included, which the package does not re-export
    stems = sorted(p.stem for p in PACKAGE.glob("*.py"))
    modules = [importlib.import_module("gemservo")] + [
        importlib.import_module(f"gemservo.{stem}")
        for stem in stems if stem not in ("__init__", "__main__")
    ]
    assert len(modules) >= 9
    assert [hit for m in modules for hit in _unbound_exports(m)] == []


def test_unbound_export_detector_flags_and_exempts():
    mod = ModuleType("mod")
    mod.__all__ = ["a", "b", "__version__"]
    mod.a = 1
    assert _unbound_exports(mod) == ["mod.b", "mod.__version__"]
