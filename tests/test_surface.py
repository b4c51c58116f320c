"""A caller for every public name of the library layers.

A public name of ``words``, ``stern``, ``graphs``, ``blocks`` or ``iso`` (a
top-level name, or a member of a public class: method, property, field or
attribute set in ``__init__``) stays only while something besides the tests
calls it: another module of the package, the benchmark's workloads (which also
call ``stern`` functions by name), or an acceptance criterion.  ``CALLERS``
records one such caller per name, so a new name that only tests call fails
here until it is given one, and a deleted name until its entry goes.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: module -> {name: caller}: a module of the package, "hbbench" (hbbench/workloads.py),
#: "criterion N" of test_acceptance.py, or "kept: why" for a name with none of these
CALLERS = {
    "words": {
        "BLOCKS": "stern", "EMPTY_WORD_DISPLAY": "words", "validate_word": "words",
        "binary_expansion": "stern", "minimal_expansion": "cli", "even_core": "iso",
        "decompose": "cli", "render": "cli",
    },
    "stern": {
        "b_recursive": "cli", "b_matrix": "cli", "b_matrix_blocks": "cli", "b_algorithm1": "cli",
        "b_block_formula": "cli", "b_and_a": "cli", "b_and_a_rows": "cli", "v": "cli", "a": "cli",
        "c": "cli", "c_matrix": "hbbench", "v_level_set_even": "criterion 1",
        "v1_all": "criterion 1",
    },
    "graphs": {
        "DEFAULT_LIMIT": "cli", "DIGITS_PER_VERTEX": "cli", "TEMPLATE_SIZE": "graphs",
        "SizeLimitError": "cli", "Label": "iso", "Label.SINGLE": "iso", "Label.DOUBLE": "iso",
        "Arc": "blocks", "enumerate_expansions": "cli", "build_graph": "cli", "counts": "cli",
        "export_stream": "cli", "export_dot": "hbbench", "export_json": "hbbench",
        "HbGraph": "blocks", "HbGraph.n": "graphs", "HbGraph.vertices": "cli",
        "HbGraph.tails": "iso", "HbGraph.heads": "iso", "HbGraph.labels": "iso",
        "HbGraph.positions": "graphs", "HbGraph.source": "hbbench", "HbGraph.sink": "hbbench",
        "HbGraph.index": "iso", "HbGraph.arcs": "hbbench", "HbGraph.out_offsets": "blocks",
        "HbGraph.in_rows": "iso", "HbGraph.find": "iso", "HbGraph.out_arcs": "criterion 5",
        "HbGraph.arc": "criterion 5", "ArcColumn": "blocks", "ArcColumn.graph": "graphs",
        "ArcColumn.column": "blocks", "ArcColumn.index": "blocks",
    },
    "blocks": {
        "PlacedGraph": "blocks", "PlacedGraph.graph": "hbbench", "PlacedGraph.blocks": "blocks",
        "PlacedGraph.place": "hbbench", "PlacedGraph.factors": "criterion 5", "embed": "hbbench",
        "place_preserving_map": "criterion 5", "is_checking_path": "criterion 7",
        "maximal_checking_paths_from": "criterion 7",
        "place_preserving_through_path": "kept: the map through a path, by which a checking"
                                         " path (criterion 7) is defined",
    },
    "iso": {
        "DEFAULT_BUDGET": "cli", "BudgetExceeded": "cli", "IsoWitness": "iso",
        "IsoWitness.mapping": "cli", "verify_witness": "criterion 10", "labeled_iso": "cli",
        "iso_closed_form": "cli", "a10_automorphism": "criterion 10",
    },
}


def _targets(node: ast.AST) -> list[ast.expr]:
    """The names or attributes that an assignment binds, tuple targets unpacked."""
    if isinstance(node, ast.AnnAssign):
        return [node.target]
    if not isinstance(node, ast.Assign):
        return []
    return [t for x in node.targets for t in (x.elts if isinstance(x, ast.Tuple) else [x])]


def public_names(module: str) -> set[str]:
    """The public top-level names of ``module``, and ``Class.member`` for its public classes."""
    names = set()
    for node in ast.parse((ROOT / "src" / "hbgraphs" / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        names.update(t.id for t in _targets(node) if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                members = [t.id for t in _targets(sub) if isinstance(t, ast.Name)]
                if isinstance(sub, ast.FunctionDef):
                    members.append(sub.name)
                    if sub.name == "__init__":  # self.x = ...
                        members += [t.attr for s in ast.walk(sub) for t in _targets(s)
                                    if isinstance(t, ast.Attribute)]
                names.update(f"{node.name}.{m}" for m in members)
    return {name for name in names if not any(part.startswith("_") for part in name.split("."))}


def caller_text(caller: str) -> str:
    """The source of the caller: a module of the package, hbbench's workloads or a criterion."""
    if caller == "hbbench":
        return (ROOT / "hbbench" / "workloads.py").read_text()
    if caller.startswith("criterion "):
        source = (ROOT / "tests" / "test_acceptance.py").read_text()
        prefix = f"test_criterion_{caller.split()[1]}_"
        (fn,) = [f for f in ast.parse(source).body
                 if isinstance(f, ast.FunctionDef) and f.name.startswith(prefix)]
        return ast.get_source_segment(source, fn)
    return (ROOT / "src" / "hbgraphs" / f"{caller}.py").read_text()


@pytest.mark.parametrize("module", sorted(CALLERS))
def test_every_public_name_has_a_recorded_caller(module):
    names = public_names(module)
    assert sorted(names - CALLERS[module].keys()) == [], "public names with no recorded caller"
    assert sorted(CALLERS[module].keys() - names) == [], "recorded names that are gone"


@pytest.mark.parametrize("module", sorted(CALLERS))
def test_recorded_callers_name_the_name(module):
    # a caller in the name's own module must use it besides defining it
    for name, caller in CALLERS[module].items():
        if caller.startswith("kept: "):
            continue
        uses = len(re.findall(rf"\b{name.split('.')[-1]}\b", caller_text(caller)))
        assert uses >= (2 if caller == module else 1), (name, caller)
