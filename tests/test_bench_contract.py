"""The benchmark's contract with the library, checked in the tier-1 suite.

bench/ is loaded as it stands, never edited from here: every padicells
function its tracer patches and every padicells module attribute its
corpora and runner name must exist, the first operation of the
oracle, univariate and engine corpora must run and pass its own checks,
and the tracer must install after each of their set-ups.
A library change that breaks the benchmark then fails here, not only in a
benchmark run.
"""

import ast
import importlib
import importlib.util
import pathlib
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SEED = 11


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")
workloads = load("workloads")


@pytest.mark.parametrize(
    "module, function",
    [(m, f) for m, f, _ in tracer.TRACED if m.split(".")[0] == "padicells"],
)
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))


MODULES = {"cells", "decompose", "expr", "integrate", "oracle", "padic", "polys", "sums"}


def module_references(name: str) -> set[tuple[str, str]]:
    """(module, attribute) for every `cells.x`, `padicells.cells.x` and the
    like in a bench source file, read without running it."""
    tree = ast.parse((BENCH / f"{name}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in MODULES:
            out.add((owner.id, node.attr))
        elif (isinstance(owner, ast.Attribute) and owner.attr in MODULES
              and isinstance(owner.value, ast.Name) and owner.value.id == "padicells"):
            out.add((owner.attr, node.attr))
    return out


REFERENCES = sorted(module_references("workloads") | module_references("run"))


def test_bench_references_are_found():
    # the corpora build every problem through module attributes
    assert len(module_references("workloads")) > 30


@pytest.mark.parametrize("module, attribute", REFERENCES)
def test_bench_module_reference_resolves(module, attribute):
    assert hasattr(importlib.import_module(f"padicells.{module}"), attribute)


def test_oracle_result_keeps_sampled():
    # workloads and the tracer both read OracleResult.sampled
    from padicells.cells import zp_cell
    from padicells.expr import ConstructibleExpr
    from padicells.oracle import oracle_integrate
    from padicells.padic import Prime

    res = oracle_integrate(ConstructibleExpr.const(1), zp_cell(Prime(3)), Prime(3), 2)
    assert res.sampled is False


@pytest.mark.parametrize("corpus", ["oracle_ops", "univariate_ops", "engine_ops"])
def test_first_operation_runs(corpus):
    op = getattr(workloads, corpus)(SEED)[0]
    if op.decompose is not None:
        op.decompose()
    start = time.perf_counter()
    op.run()
    assert time.perf_counter() - start < 1.0, op.label


# run.py's set-up for one corpus in a fresh process (build the operations,
# screen them, run the warm-up operation), then the traced run's first
# step: the tracer must find every module it patches loaded by then
TRACED_SET_UP = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import tracer, workloads
ops, known = workloads.screen(workloads.{corpus}_ops({seed}))
ops[0].run()
t = tracer.Tracer()
t.install()
t.uninstall()
"""


def test_tracer_installs_after_each_set_up():
    children = {
        corpus: subprocess.Popen(
            [sys.executable, "-c", TRACED_SET_UP.format(
                src=str(ROOT / "src"), bench=str(BENCH), corpus=corpus, seed=SEED)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for corpus in ("oracle", "univariate", "engine")
    }
    for corpus, child in children.items():
        _, err = child.communicate(timeout=60)
        assert child.returncode == 0, (corpus, err)
