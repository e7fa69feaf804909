"""Properties of the package source itself."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "swapeq"


def test_no_assert_statements():
    # python -O strips assert; invariants must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(PACKAGE.glob("*.py")) and found == []


def _inexact(tree) -> list:
    """Lines of tree's float literals, true divisions and float() calls."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
        or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ]


def test_arithmetic_exact():
    # values are ints, Fraction and INF, never floats: the package has no
    # float literal, no true division (/ or /=) and no float() call
    assert all(_inexact(ast.parse(s)) for s in ("x = 1 / 2", "x /= 2", "x = 0.5", "float(x)"))
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _inexact(ast.parse(path.read_text(), str(path)))
    ]
    assert sorted(PACKAGE.glob("*.py")) and found == []


# one frontier expansion: ``x |= rows[b.bit_length() - 1]``
FRONTIER_STEP = re.compile(r"\w+ \|= [\w.]+\[\w+\.bit_length\(\) - 1\]")


def test_one_bfs_loop():
    # every BFS frontier is expanded by kernels.balls, which keeps the ball
    # of every radius, except sum_dist's, which keeps only the distance total
    # because it is called once per evaluated swap and is the independent
    # side of aggregate_swaps' accounting identity
    found = {
        (path.name, fn.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.AugAssign) and FRONTIER_STEP.fullmatch(ast.unparse(node))
    }
    assert found == {("kernels.py", "balls"), ("kernels.py", "sum_dist")}


def test_version_matches_pyproject():
    # every JSON report embeds swapeq.__version__ as tool_version, so it must
    # be the version the package is installed as; re, since tomllib is not
    # in Python 3.10
    import swapeq

    project = re.search(r"^\[project\]$(.*?)^\[", (ROOT / "pyproject.toml").read_text(),
                        re.M | re.S).group(1)
    assert re.findall(r'^version = "(.*)"$', project, re.M) == [swapeq.__version__]


def test_pendant_world_callers():
    # a claim that only asks whether W(u) is {u} tests one AND; the world is
    # flooded only where its members or its size are read
    found = {
        (path.name, fn.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "pendant_world"
    }
    assert found == {("survey.py", "_cycle_bounds"), ("theory.py", "layer_profile"),
                     ("cli.py", "_cmd_analyze")}


def test_one_family_simulator():
    # aggregate_swaps is the theory layer's only simulator of swap families;
    # the other row edits are the kernel's swap, the graph's and a dynamics step
    found = {
        (path.name, fn.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).split(".")[-1] in ("swapped_rows", "replace_edge")
    }
    assert found == {("kernels.py", "swapped_sum_dist"), ("graph.py", "replace_edge"),
                     ("equilibrium.py", "run_dynamics"), ("theory.py", "aggregate_swaps")}
    # and theory keeps nothing from one request to the next
    theory = ast.parse((PACKAGE / "theory.py").read_text())
    names = {getattr(node, attr, None) for node in ast.walk(theory) for attr in ("id", "attr", "name")}
    assert "lru_cache" not in names


def test_claims_decided_in_survey():
    # a claim's domain and condition are its _CLAIMS row; theory holds none
    from swapeq import survey, theory

    assert not [name for name in vars(theory) if name.endswith("_condition")]
    assert all(detail.__module__ == "swapeq.survey" for _, detail in survey._CLAIMS.values())


def test_one_pair_walk():
    # the column-major pair walk, ``for i in range(j)`` inside
    # ``for j in range(1, ...)``, is the graph6 and canonical-form layout;
    # only its decoder and encoder in the kernel layer spell it out
    found = {
        (path.name, fn.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(fn, ast.FunctionDef)
        for outer in ast.walk(fn)
        if isinstance(outer, ast.For) and isinstance(outer.target, ast.Name)
        and re.fullmatch(r"range\(1, .+\)", ast.unparse(outer.iter))
        for inner in ast.walk(outer)
        if isinstance(inner, ast.For) and ast.unparse(inner.iter) == f"range({outer.target.id})"
    }
    assert found == {("kernels.py", "triangle_rows"), ("kernels.py", "triangle_bits")}


def test_check_called_by_one_survey_loop():
    # claims are counted and reported in one loop: a summary-only survey is a
    # task of _process_chunk, not a second engine
    found = {
        (path.name, fn.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_check"
    }
    assert found == {("survey.py", "_process_chunk"), ("survey.py", "verify_claims")}


def test_no_reexport_modules():
    # every module but the package's own defines a function or a class
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and not any(isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    for node in ast.parse(path.read_text(), str(path)).body)
    ]
    assert sorted(PACKAGE.glob("*.py")) and found == []


def test_report_header_written_once():
    # the JSON report header is io.write_report's alone; callers hand it a payload
    found = {
        (path.name, node.value)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and node.value in ("tool_version", "schema_version")
    }
    assert found == {("io.py", "tool_version"), ("io.py", "schema_version")}


def test_one_entry_point_per_theory_answer():
    # the closed form and the inequality chain are the module functions
    # closed_form_shift and check_inequalities; LayerProfile is data
    tree = ast.parse((PACKAGE / "theory.py").read_text())
    found = [
        (cls.name, fn.name)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name in ("closed_form", "inequalities")
    ]
    assert found == []
    top = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"closed_form_shift", "check_inequalities", "strict_witness"} <= top


def test_decompose_is_the_one_cached_structure():
    # classify runs once per survey graph and once per analyze request, so
    # only decompose, which several claims share, keeps a process-wide cache
    tree = ast.parse((PACKAGE / "structure.py").read_text())
    cached = [
        fn.name
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for dec in fn.decorator_list
        if "cache" in ast.unparse(dec)
    ]
    assert cached == ["decompose"]


def test_one_traversal_per_structural_answer():
    # decompose reads its components off its own lowpoint DFS,
    # is_bipartite colours in its own witness BFS and classify reads K_{r,s}
    # off the rows: none calls a kernel
    tree = ast.parse((PACKAGE / "structure.py").read_text())
    uses_kernels = {
        fn.name: any(isinstance(node, ast.Name) and node.id == "kernels" for node in ast.walk(fn))
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name in ("decompose", "is_bipartite", "classify")
    }
    assert uses_kernels == {"decompose": False, "is_bipartite": False, "classify": False}


def test_no_unused_imports():
    # pyflakes' unused-import check: every name an import binds is read in
    # its module, and a name in __all__ counts as read
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                used |= set(ast.literal_eval(node.value))
        found += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]
    assert sorted(PACKAGE.glob("*.py")) and found == []


def _reads(node):
    """Count of each name node reads: loaded names and attributes, and the
    names a from-import takes."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


# top-level names that no module of the package reads, and why they stay
READ_OUTSIDE_PACKAGE = {
    ("survey.py", "canonical_graph"): "perfbench times it as survey.canonical_graph.s",
    ("survey.py", "verify_claims"): "perfbench replays each claim through it",
}


def test_no_dead_source_names():
    # every top-level function and class is read in some module of the
    # package, its own body aside; the families constructors are for users
    # and tests
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = sum(map(_reads, trees.values()), Counter())
    dead = {
        (name, node.name)
        for name, tree in trees.items() if name != "families.py"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and read[node.name] == _reads(node)[node.name]
    }
    assert trees and dead == set(READ_OUTSIDE_PACKAGE)


# methods and properties that no module of the package reads, and why they stay
METHODS_READ_OUTSIDE_PACKAGE = {
    ("theory.py", "SwapAggregate", "swap_costs"): "README documents it as a public view",
    ("graph.py", "Graph", "has_edge"): "one of Graph's accessors; only the tests read it",
}


def test_no_dead_methods():
    # every method and property of a package class, dunders aside, is read
    # in some module of the package, its own body aside
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = sum(map(_reads, trees.values()), Counter())
    dead = {
        (name, cls.name, fn.name)
        for name, tree in trees.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not re.fullmatch(r"__\w+__", fn.name)
        and read[fn.name] == _reads(fn)[fn.name]
    }
    assert trees and dead == set(METHODS_READ_OUTSIDE_PACKAGE)


def test_readme_quick_start_runs():
    # README's library example runs as printed, so an API change cannot
    # leave it stale
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```",
                      (ROOT / "README.md").read_text(), re.S).group(1)
    out = subprocess.run([sys.executable, "-c", block], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    assert out.splitlines() == [
        "(Deviation(agent=0, drop=1, add=2), -1)",
        "-12",
        "StrictWitness(observer=0, shift_total=Fraction(-2, 1))",
    ]
