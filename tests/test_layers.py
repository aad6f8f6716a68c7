"""The package's modules import each other in one direction only, and the
package exports a fixed set of public names."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import twistknot

PACKAGE = Path(twistknot.__file__).parent

#: Lower rank first; a module may import only modules of lower rank, so
#: criterion and coset_enum, which share a rank, never import each other.
#: The package facade ``__init__`` re-exports the library layers and sits
#: under the command line, which reads ``__version__`` from it.
RANK = {
    "words": 0,
    "presentations": 1,
    "wirtinger": 2,
    "twisted_torus": 3,
    "criterion": 4,
    "coset_enum": 4,
    "__init__": 5,
    "cli": 6,
    "__main__": 7,
}


def _package_imports(tree: ast.Module):
    """Names of the package modules imported anywhere in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0]
            else:
                for alias in node.names:
                    yield alias.name if alias.name in RANK else "__init__"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("twistknot"):
            yield (node.module.split(".") + ["__init__"])[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("twistknot"):
                    yield (alias.name.split(".") + ["__init__"])[1]


def test_every_module_is_ranked():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(RANK)


def test_imports_go_down_the_layers():
    upward = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for target in _package_imports(tree):
            if RANK[target] >= RANK[path.stem]:
                upward.append(f"{path.stem} imports {target}")
    assert upward == []


#: ``twistknot.__all__``: every name the package facade exports, its
#: submodules included.  A change that adds or drops a public name edits this
#: set and says why in CHANGES.md.
PUBLIC_NAMES = {
    # submodules
    "coset_enum", "criterion", "presentations", "twisted_torus", "wirtinger", "words",
    # words
    "Generator", "SubstitutionError", "Word", "is_conjugate", "is_positive_excluding", "word",
    # presentations
    "HomologySummary", "LaurentPolynomial", "Presentation", "PresentationError",
    "add_relators", "alexander_polynomial", "class_in_h1", "homology",
    "smith_normal_form", "tietze_eliminate",
    # wirtinger
    "Crossing", "DiagramError", "LinkDiagram", "PeripheralSystem", "add_twist_relations",
    "builtin_link_L", "diagram_from_json", "diagram_to_json", "peripheral_system",
    "wirtinger_presentation",
    # twisted_torus
    "KnotGroupModel", "PipelineError", "ProofCheck", "ProofReport", "SubstitutionChain",
    "TwistParams", "closed_form", "derive_from_diagram", "substitution_chain", "verify_proof",
    # criterion
    "CriterionError", "CriterionReport", "ITShape", "Slope", "Verdict",
    "check_family_slope", "decide", "match_it_shape", "minimal_integer_bound",
    # coset_enum
    "DEFAULT_MAX_COSETS", "EnumerationResult", "surgered_presentation", "todd_coxeter",
}


def test_public_surface_is_pinned():
    assert set(twistknot.__all__) == PUBLIC_NAMES


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolves(obj, dotted: str) -> bool:
    for attr in dotted.split("."):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_the_benchmark_finds_every_library_name_it_uses():
    # the benchmark changes apart from the library: a name it reaches that the
    # library drops should fail here, not only when the benchmark runs
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        used.update(re.findall(r"\btk\.([A-Za-z_][\w.]*\w)", path.read_text(encoding="utf-8")))
    assert used and [name for name in sorted(used) if not _resolves(twistknot, name)] == []
    tree = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    traced = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert traced and [
        f"{module}.{name}" for module, name in traced
        if not _resolves(importlib.import_module(f"twistknot.{module}"), name)
    ] == []


#: standard modules that cost more to import than the package needs them:
#: ``dataclasses`` pulls in ``inspect``, and each of the others served one call
SLOW_STDLIB = ("dataclasses", "inspect", "fractions", "decimal", "datetime", "hashlib")
LIBRARY = ("words", "presentations", "wirtinger", "twisted_torus", "criterion", "coset_enum")


def test_start_up_loads_the_library_and_no_slow_stdlib_module():
    # a fresh interpreter without site: what a command pays for before its work;
    # every library module stays loaded, as a tracer patching them all expects
    probe = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
             "import twistknot, twistknot.cli; print(' '.join(sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60)
    loaded = set(out.stdout.split())
    assert [name for name in SLOW_STDLIB if name in loaded] == []
    assert [name for name in LIBRARY if f"twistknot.{name}" not in loaded] == []
