"""Single-writer state, written only by its writer.

``RuntimeStats.terminate`` is the only code that files a request in a
terminal bucket, and a count that the trace or the completed bucket
already holds is read from there, never bumped beside it.  The KV
allocator's bookkeeping (free list, refcounts, block tables, token
counts, payload versions) is written only by ``KVBlockAllocator``'s methods, which keep
K004/K005 as they write.  The token stream's events are built only by
``ContinuousBatchingScheduler._finish_iteration``.  This guard walks
``src/repro`` for a write that goes round any of these rules.
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

#: ``KVBlockAllocator`` / ``SequenceAllocation`` state that only
#: ``repro/llm/kv_cache.py`` may write.
KV_STATE = {
    "_refcount", "_free", "_sequences", "block_ids", "tokens",
    "payload_version",
}

#: Methods that change a list or dict in place.
MUTATORS = {
    "append", "extend", "insert", "pop", "remove", "clear", "sort",
    "reverse", "update", "setdefault", "popitem",
}


def _method_nodes(tree, cls_name, fn_name):
    """Every node inside method ``cls_name.fn_name``."""
    nodes = set()
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name == cls_name):
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == fn_name:
                nodes.update(id(node) for node in ast.walk(fn))
    return nodes


def _kv_writes(tree, rel):
    """Stores, ``del``s and in-place calls on allocator state outside
    ``repro/llm/kv_cache.py``."""
    if rel.as_posix() == "repro/llm/kv_cache.py":
        return
    parents = {
        id(child): node
        for node in ast.walk(tree)
        for child in ast.iter_child_nodes(node)
    }
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr in KV_STATE):
            continue
        parent = parents.get(id(node))
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            how = "assigns or deletes"
        elif (
            isinstance(parent, ast.Subscript)
            and parent.value is node
            and isinstance(parent.ctx, (ast.Store, ast.Del))
        ):
            how = "assigns or deletes an item of"
        elif (
            isinstance(parent, ast.Attribute)
            and parent.attr in MUTATORS
            and isinstance(parents.get(id(parent)), ast.Call)
        ):
            how = f"calls .{parent.attr}() on"
        else:
            continue
        yield f"{rel}:{node.lineno} {how} .{node.attr} outside kv_cache.py"


def _ledger_writes(tree, rel):
    """Bucket appends outside ``terminate``; bumps of derived counts."""
    exempt = _method_nodes(tree, "RuntimeStats", "terminate")
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


def _token_events(tree, rel):
    """``TokenEvent(...)`` built outside the scheduler's one writer."""
    writer = _method_nodes(
        tree, "ContinuousBatchingScheduler", "_finish_iteration"
    )
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        name = getattr(func, "id", getattr(func, "attr", None))
        if name == "TokenEvent" and id(node) not in writer:
            yield (
                f"{rel}:{node.lineno} builds a TokenEvent outside "
                "ContinuousBatchingScheduler._finish_iteration"
            )


def _scan(check):
    root = Path(repro.__file__).parent
    offences = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root.parent)
        tree = ast.parse(path.read_text(), str(path))
        offences.extend(check(tree, rel))
    return offences


def test_verdicts_and_traced_counts_have_one_writer():
    assert _scan(_ledger_writes) == []


def test_kv_state_has_one_writer():
    assert _scan(_kv_writes) == []


def test_token_events_have_one_writer():
    assert _scan(_token_events) == []
