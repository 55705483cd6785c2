"""Static checks over the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "greedysf"

# (module, function, parameter) kept although the body never reads it: why
UNREAD_PARAMETERS_ALLOWED = {
    ("dualfit", "verify_class_duals", "trace"): "perfbench passes it positionally",
    ("balanced", "verify_balanced", "delta"): "perfbench passes it positionally",
    ("cli", "_certify_class_duals", "args"): "CERTIFY_KINDS calls f(args, inst, trace)",
    ("cli", "_certify_dual_lb", "args"): "CERTIFY_KINDS calls f(args, inst, trace)",
}


def _parameters(fn: ast.FunctionDef) -> list[str]:
    a = fn.args
    names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return [n for n in names if n not in ("self", "cls")]


def _unread_parameters():
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read = {
                node.id
                for stmt in fn.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            for name in _parameters(fn):
                if name not in read:
                    yield (path.stem, fn.name, name)


def test_every_parameter_is_read():
    unread = set(_unread_parameters())
    assert unread - set(UNREAD_PARAMETERS_ALLOWED) == set()
    # an allowance whose parameter is read again, or gone, is stale
    assert set(UNREAD_PARAMETERS_ALLOWED) <= unread


def _modules_using(predicate) -> set[str]:
    """Stems of the package modules with a syntax node matching `predicate`."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(predicate(node) for node in ast.walk(tree)):
            out.add(path.stem)
    return out


def _imports_heapq(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "heapq" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and node.module == "heapq"


SEARCHES = {"_dijkstra", "_ball_search"}


def _names_a_search(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return any(alias.name in SEARCHES for alias in node.names)
    return (isinstance(node, ast.Name) and node.id in SEARCHES) or (
        isinstance(node, ast.Attribute) and node.attr in SEARCHES
    )


def test_one_distance_layer():
    # every shortest-path search goes through graph's kernel; opt keeps the
    # Steiner DP's own heap over (vertex, terminal subset) states
    assert _modules_using(_imports_heapq) == {"graph", "opt"}
    assert _modules_using(_names_a_search) == {"graph"}


def _reads_adj_off_a_non_metric(node) -> bool:
    # `x.metric.adj` or `metric.adj`; anything else is a second adjacency
    if not (isinstance(node, ast.Attribute) and node.attr == "adj"):
        return False
    owner = node.value
    return not (
        (isinstance(owner, ast.Attribute) and owner.attr == "metric")
        or (isinstance(owner, ast.Name) and owner.id == "metric")
    )


def test_one_adjacency():
    # a graph's edges are listed once, in its Metric's rows (neighbour,
    # integer weight, edge index); only graph builds and reads them otherwise
    assert _modules_using(_reads_adj_off_a_non_metric) <= {"graph"}
