"""One ledger, written once.

``RuntimeStats.terminate`` is the only code that files a request in a
terminal bucket, and a count that the trace or the completed bucket
already holds is read from there, never bumped beside it.  This guard
walks ``src/repro`` for a write that goes round either rule.
"""

import ast
from pathlib import Path

import repro

#: The terminal buckets of ``RuntimeStats``.
BUCKETS = {"completed", "rejected", "failed", "shed", "timed_out", "cancelled"}

#: ``RuntimeStats`` counts read from the trace or the completed bucket.
DERIVED = {
    "preemptions", "sdc_injected", "sdc_detected", "quarantines",
    "corrupted_completed",
}


def _terminate_nodes(tree):
    """Every node inside ``RuntimeStats.terminate``, the one exempt
    writer."""
    exempt = set()
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name == "RuntimeStats"):
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "terminate":
                exempt.update(id(node) for node in ast.walk(fn))
    return exempt


def _offences(path, rel):
    tree = ast.parse(path.read_text(), str(path))
    exempt = _terminate_nodes(tree)
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr in BUCKETS
        ):
            yield (
                f"{rel}:{node.lineno} appends to .{node.func.value.attr} "
                "outside RuntimeStats.terminate"
            )
        elif (
            isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Attribute)
            and node.target.attr in DERIVED
        ):
            yield f"{rel}:{node.lineno} bumps derived count .{node.target.attr}"


def test_verdicts_and_traced_counts_have_one_writer():
    root = Path(repro.__file__).parent
    offences = [
        offence
        for path in sorted(root.rglob("*.py"))
        for offence in _offences(path, path.relative_to(root.parent))
    ]
    assert offences == []
