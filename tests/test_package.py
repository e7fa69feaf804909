"""Properties of the package source itself."""

import ast
import os
import re
import subprocess
import sys
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


# one frontier expansion: ``x |= rows[b.bit_length() - 1]``
FRONTIER_STEP = re.compile(r"\w+ \|= [\w.]+\[\w+\.bit_length\(\) - 1\]")


def test_one_bfs_loop():
    # every BFS goes through kernels.reach, except the loops that compute
    # something else: the ball of every radius (which bfs_dists reads), the
    # per-level odd-edge test and the radius-2 ball
    found = {
        (path.name, fn.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.AugAssign) and FRONTIER_STEP.fullmatch(ast.unparse(node))
    }
    assert found == {("kernels.py", name) for name in
                     ("reach", "balls", "bipartite_side", "_reaches_all_in_two")}


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
    # the other row edits are the kernel's swap, the graph's and a deviation's
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
                     ("equilibrium.py", "apply_deviation"), ("theory.py", "aggregate_swaps")}
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
    # decompose reads its components off its own lowpoint DFS and
    # is_bipartite colours in its own witness BFS: neither calls a kernel
    tree = ast.parse((PACKAGE / "structure.py").read_text())
    uses_kernels = {
        fn.name: any(isinstance(node, ast.Name) and node.id == "kernels" for node in ast.walk(fn))
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name in ("decompose", "is_bipartite")
    }
    assert uses_kernels == {"decompose": False, "is_bipartite": False}


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
