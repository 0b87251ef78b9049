"""Every public function, method and property under src/ has a caller in the program.

A name whose only callers are tests belongs in those tests.  A reference is
any use of the name as an identifier, attribute, import or string (the
benchmark tracer patches names given as strings) in src/wmqkd or perfbench/,
outside the name's own definition; the package's re-exports in __init__.py
are not callers.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for path in (ROOT / "src" / "wmqkd").glob("*.py") if path.name != "__init__.py")
CALLER_FILES = MODULES + sorted((ROOT / "perfbench").glob("*.py"))

# kept without a caller in the program, one reason each
EXEMPT = {
    "strategy1_predicted_qber": "the paper's strategy-1 QBER signature (1 - alpha p_H)/2",
    "strategy1_variance_ratio": "the paper's strategy-1 variance signature",
    "strategy2_qber_lower_bound": "the paper's strategy-2 QBER bound (1 - sigma_ratio p_b p_H)/2",
    "strategy2_sigma_ratio_crossover": "the paper's strategy-2 variance-cap crossover",
    "biased_estimates_selective": "the paper's selective-bias estimates, the objective of optimal_bias_angles",
    "optimal_bias_angles": "the paper's optimal bias angles",
    "true_error_rates": "the paper's delta_X, delta_Z definitions of a channel",
    "merge_moments": "the per-block moment fold of ROADMAP item 4",
    "channel_estimation_log": "the loss-free estimation bench",
    "generate_state": "numpy calls it to key a stream's Philox (harness._StreamKey)",
}


def public_definitions():
    """(qualified name, node) of each public top-level function and class method."""
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield node.name, node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def referenced_names(tree):
    """Counts of the identifiers, attributes, imported names and strings in tree."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def uncalled_names():
    """Qualified names of the public definitions that nothing outside their own body names."""
    everywhere = sum((referenced_names(ast.parse(path.read_text())) for path in CALLER_FILES), Counter())
    return [qualified for qualified, node in public_definitions()
            if everywhere[node.name] == referenced_names(node)[node.name]]


def test_every_public_name_has_a_caller_outside_tests():
    assert [name for name in uncalled_names() if name.rsplit(".", 1)[-1] not in EXEMPT] == []


def test_every_exemption_is_still_needed():
    uncalled = {name.rsplit(".", 1)[-1] for name in uncalled_names()}
    assert sorted(set(EXEMPT) - uncalled) == []
