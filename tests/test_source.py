"""Static checks over the package source."""

import ast
import dataclasses
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "greedysf"
# the code outside the package that calls into it; tests do not count
CALLERS = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

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


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_package_root_binds_only_the_version():
    # code imports from the modules, so the root imports and re-exports nothing
    tree = _tree(SRC / "__init__.py")
    assert ast.get_docstring(tree)
    assert [name for name, _ in _top_level_names(tree)] == ["__version__"]
    assert len(tree.body) == 2


# (module, top-level name) kept although no code outside tests names it: why
UNCALLED_NAMES_ALLOWED = {
    ("transforms", "extract_sub_instance"): "acceptance criterion 8 runs it",
    ("transforms", "forest_potential"): "the paper's potential, pinned against brute force",
    ("exact", "E5_LOWER"): "with it a test pins how tight E5_UPPER is",
}


def _top_level_names(tree: ast.Module):
    """(name, defining statement) of each function, class and constant."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, stmt


def _mentions(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read or imported anywhere in `tree` outside the subtree `skip`."""
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _uncalled_names():
    trees = {path.stem: _tree(path) for path in sorted(SRC.glob("*.py"))}
    outside = set()
    for path in CALLERS:
        outside |= _mentions(_tree(path))
    for stem, tree in trees.items():
        elsewhere = outside.union(*(_mentions(t) for s, t in trees.items() if s != stem))
        for name, stmt in _top_level_names(tree):
            if name.startswith("__") or name in elsewhere:
                continue
            if name not in _mentions(tree, skip=stmt):
                yield (stem, name)


def test_every_top_level_name_has_a_caller():
    uncalled = set(_uncalled_names())
    assert uncalled - set(UNCALLED_NAMES_ALLOWED) == set()
    # an allowance whose name gained a caller, or is gone, is stale
    assert set(UNCALLED_NAMES_ALLOWED) <= uncalled


def _defaulted_parameters():
    """(module, function, parameter, positional index or None at a call)."""
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            positional = [*a.posonlyargs, *a.args]
            # a call on an instance or class binds `self` or `cls` itself
            shift = 1 if positional and positional[0].arg in ("self", "cls") else 0
            for i in range(len(positional) - len(a.defaults), len(positional)):
                yield path.stem, fn.name, positional[i].arg, i - shift
            for p, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield path.stem, fn.name, p.arg, None


def _passes(call: ast.Call, name: str, index: int | None) -> bool:
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(x, ast.Starred) for x in call.args)


def test_every_default_is_passed():
    # a default that no call overrides is a constant dressed as a knob
    calls: dict[str, list[ast.Call]] = {}
    for path in [*sorted(SRC.glob("*.py")), *CALLERS]:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    never = [
        (stem, fn, param)
        for stem, fn, param, index in _defaulted_parameters()
        if not any(_passes(c, param, index) for c in calls.get(fn, []))
    ]
    assert never == []


def _perfbench_names():
    """(module, attribute) pairs perfbench reads off the package's modules;
    the attribute is None where perfbench imports the module by name."""
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = _tree(path)
        layers = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "greedysf":
                layers.update((a.asname or a.name, f"greedysf.{a.name}") for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("greedysf."):
                yield from ((node.module, a.name) for a in node.names)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in layers
            ):
                yield layers[node.value.id], node.attr
            # LAYERS names the modules a traced pass imports; SPAN_GROUPS
            # the "<layer>.<function>" spans it sums
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("LAYERS", "SPAN_GROUPS")
                for t in node.targets
            ):
                value = ast.literal_eval(node.value)
                if isinstance(value, dict):
                    for spans in value.values():
                        for span in spans:
                            layer, name = span.split(".")
                            yield f"greedysf.{layer}", name
                else:
                    for layer in value:
                        yield f"greedysf.{layer}", None


def test_perfbench_names_exist():
    # a deletion or rename under src/ fails here, not in a benchmark run
    names = set(_perfbench_names())
    # one of each kind: module attribute, from-import, span group, layer
    assert {
        ("greedysf.greedy", "run_greedy"),
        ("greedysf.exact", "format_fraction"),
        ("greedysf.cli", "cmd_report"),
        ("greedysf.canonical", None),
    } <= names
    missing = []
    for module, name in sorted(names, key=str):
        try:
            found = importlib.import_module(module)
        except ImportError:
            missing.append(module)
            continue
        if name is not None and not hasattr(found, name):
            missing.append(f"{module}.{name}")
    assert missing == []


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


def _naming(names: set[str]):
    """A predicate: the node imports, reads or takes an attribute in `names`."""

    def names_one(node) -> bool:
        if isinstance(node, ast.ImportFrom):
            return any(alias.name in names for alias in node.names)
        return (isinstance(node, ast.Name) and node.id in names) or (
            isinstance(node, ast.Attribute) and node.attr in names
        )

    return names_one


def test_one_distance_layer():
    # every shortest-path search goes through graph's kernel; opt keeps the
    # Steiner DP's own heap over (vertex, terminal subset) states
    assert _modules_using(_imports_heapq) == {"graph", "opt"}
    assert _modules_using(_naming({"_dijkstra", "_ball_search"})) == {"graph"}


def test_no_module_reads_the_environment():
    # every command is deterministic given its arguments and files: no
    # environment variable changes what the package computes
    assert _modules_using(_naming({"environ", "environb", "getenv", "getenvb"})) == set()


def _reads_adj_off_a_non_metric(node) -> bool:
    # `x.metric.adj` or `metric.adj`; anything else is a second adjacency
    if not (isinstance(node, ast.Attribute) and node.attr == "adj"):
        return False
    owner = node.value
    return not (
        (isinstance(owner, ast.Attribute) and owner.attr == "metric")
        or (isinstance(owner, ast.Name) and owner.id == "metric")
    )


def _is_per_vertex_lists(node) -> bool:
    # `[[] for _ in range(...)]`: one empty list per vertex, an adjacency's shell
    return (
        isinstance(node, ast.ListComp)
        and isinstance(node.elt, ast.List)
        and not node.elt.elts
        and any(
            isinstance(gen.iter, ast.Call)
            and isinstance(gen.iter.func, ast.Name)
            and gen.iter.func.id == "range"
            for gen in node.generators
        )
    )


def _sites(predicate, node: ast.AST, scope: str):
    """The dotted scope of each node under `node` that matches `predicate`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _sites(predicate, child, f"{scope}.{child.name}")
            continue
        if predicate(child):
            yield scope
        yield from _sites(predicate, child, scope)


def test_one_adjacency():
    # a graph's edges are listed once, in its Metric's rows (neighbour,
    # integer weight, edge index); only graph builds and reads them otherwise
    assert _modules_using(_reads_adj_off_a_non_metric) <= {"graph"}
    # and only the Metric builds a list per vertex to hold them
    sites = [
        site
        for path in sorted(SRC.glob("*.py"))
        for site in _sites(_is_per_vertex_lists, _tree(path), path.stem)
    ]
    assert sites == ["graph.Metric.__init__"]


# the fields of a `graph.SubdividedGraph` that place its chain points
SUBDIVISION_FIELDS = {"base", "eta", "offsets"}


def _reads_a_subdivision_field(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in SUBDIVISION_FIELDS


def test_chain_points_stay_in_the_distance_layer():
    # only graph turns a base edge and a chain index into a vertex id or a
    # distance; every other module asks `Distances` or reads `edges`
    assert _modules_using(_reads_a_subdivision_field) == {"graph"}


def _sets_through_object(node) -> bool:
    # `object.__setattr__(...)`: a write past a frozen class's own __setattr__
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    )


def test_no_write_past_a_frozen_class():
    # a value cached on an immutable object is the class's own (say a
    # `functools.cached_property`), never written into it from outside
    assert _modules_using(_sets_through_object) == set()


def _stores_a_charge_or_status(node) -> bool:
    # `charges[q] = ...`, `x.statuses[q] += ...`, `del charges[q]`
    if not (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))):
        return False
    table = node.value
    name = table.id if isinstance(table, ast.Name) else getattr(table, "attr", None)
    return name in {"charges", "statuses"}


def test_one_charge_flow():
    # the builder, the certificate reader and the conservation audit move
    # charges and set statuses only through balanced.apply_event
    sites = {
        site
        for path in sorted(SRC.glob("*.py"))
        for site in _sites(_stores_a_charge_or_status, _tree(path), path.stem)
    }
    assert sites == {"balanced.apply_event"}


def _calls_replay(node) -> bool:
    # `transforms` binds a local named `replay` but never calls it
    if not isinstance(node, ast.Call):
        return False
    callee = node.func
    name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
    return name == "replay"


def test_only_the_reader_replays():
    # a balanced dual's balls, charges and statuses are where its log's
    # replay ends: one cached property replays, and everything else reads it
    sites = [
        site
        for path in sorted(SRC.glob("*.py"))
        for site in _sites(_calls_replay, _tree(path), path.stem)
    ]
    assert sites == ["balanced.BalancedDual.end_state"]


def test_a_balanced_dual_is_its_step_log():
    # the end state is no field: the builder and the reader cannot hand the
    # verifier balls, charges or statuses that the log does not replay to
    from greedysf.balanced import BalancedDual

    assert [f.name for f in dataclasses.fields(BalancedDual)] == [
        "K", "classes", "centers", "step_log"
    ]


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring constants under `tree`."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None
    }


def test_only_the_writer_names_the_charged_total():
    # a step holds its event's fields; the conserved total is the writer's
    # stamp, which the reader checks only through the write-back
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        docs = _docstrings(tree)
        sites += _sites(
            lambda node: isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "charged_total" in node.value
            and id(node) not in docs,
            tree,
            path.stem,
        )
    assert sites == ["balanced.balanced_to_obj"]
