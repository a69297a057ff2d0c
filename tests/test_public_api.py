"""Every public top-level function and class in src/elastiq is used by
src/elastiq itself, or is listed below with the reason it stays.

A use is a reference by name or attribute. A name that the enclosing
function binds itself, as a parameter or an assigned local, refers to that
binding, so it is not a use of the module-level function it shadows.

Every function that perfbench's tracer names is defined in src/elastiq.

Each layer rule's refusal, and each other section rule's, is written once
in src/elastiq code, in manifest.py, where a manifest is decoded. Each
device-table rule's refusal is written once, in cost.read_device_table,
where an imported table is read."""

import ast
import collections
import pathlib

import elastiq

PACKAGE = pathlib.Path(elastiq.__file__).resolve().parent

# public names that no src module references, each with why it stays
UNREFERENCED = {
    "certificate.pointwise_bound":
        "per-input certificate; the benchmark's bound checks call it",
    "cost.profile_costs":
        "perfbench's tracer prices each traced forward with it; plan "
        "reads per-layer device prices instead",
    "cost.write_device_table":
        "writes the measured device table that plan --device-csv reads",
    "elastic.BitMap":
        "the paper's rank-tied precision; wiring it into certify is open",
    "elastic.base_bits":
        "BitMap's width at a rank; wiring BitMap into certify is open",
    "manifest.raw_model_to_doc":
        "how raw models are written; the benchmark's inputs use it",
    "manifest.sidecar_path":
        "perfbench's harness digests a manifest's sidecar; the next "
        "benchmark change drops it",
    "network.logit_drift":
        "one profile's observed drift; the benchmark's bound checks call "
        "it, while report and evaluate reuse logits already run",
}


def _bound_names(fn):
    """Parameters and assigned locals of one function (nested scopes
    included)."""
    args = fn.args
    params = args.posonlyargs + args.args + args.kwonlyargs \
        + [a for a in (args.vararg, args.kwarg) if a is not None]
    return frozenset({a.arg for a in params} | {
        n.id for n in ast.walk(fn)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)})


def _unreferenced():
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    defs = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                defs[node] = f"{module}.{node.name}"
    used = set()

    def walk(node, own, local):
        if node in defs:
            own = node.name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            local = local | _bound_names(node)
        if isinstance(node, ast.Name):
            name = None if node.id in local else node.id
        else:
            name = node.attr if isinstance(node, ast.Attribute) else None
        if name is not None and name != own:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, own, local)

    for tree in trees.values():
        walk(tree, None, frozenset())
    return sorted(q for node, q in defs.items() if node.name not in used)


def test_no_public_api_reached_only_from_outside_src():
    assert _unreferenced() == sorted(UNREFERENCED)


TRACING = PACKAGE.parent.parent / "perfbench" / "tracing.py"

# traced names whose function is gone, each with why the name stays
UNDEFINED_TRACED = {
    "certificate.expected_bound":
        "perfbench's tracer still names it; the next benchmark change "
        "drops it",
    "controller.greedy_knapsack":
        "perfbench's tracer still names it; the next benchmark change "
        "drops it",
    "controller.isotonic_hinge":
        "its per-layer metric always reads 0; the next benchmark change "
        "drops it",
    "cost.fit_cost_model":
        "plan prices from a per-layer device table, with no fit; "
        "perfbench's tracer still names it, and the next benchmark change "
        "drops it",
    "network.backprop":
        "perfbench's tracer still names them; the next benchmark change "
        "drops them",
    "network.forward_tape":
        "perfbench's tracer still names them; the next benchmark change "
        "drops them",
    "quant.quantize":
        "integer codes went with the per-profile payloads; perfbench's "
        "tracer still names it, and the next benchmark change drops it",
}


def _traced_names():
    """Every module.function that perfbench's PER_FUNCTION and HASHED
    tables name."""
    names = set()
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("PER_FUNCTION", "HASHED")
                for t in node.targets):
            names |= {c.value for c in ast.walk(node.value)
                      if isinstance(c, ast.Constant)
                      and isinstance(c.value, str) and "." in c.value}
    return names


def test_every_traced_function_is_defined():
    # a rename would otherwise zero a traced metric without a failure
    defined = {f"{p.stem}.{node.name}"
               for p in PACKAGE.glob("*.py")
               for node in ast.parse(p.read_text()).body
               if isinstance(node, ast.FunctionDef)}
    traced = _traced_names()
    assert "quant.calibrate_scale" in traced
    assert sorted(traced - defined) == sorted(UNDEFINED_TRACED)


# a fragment of each layer rule's refusal message
LAYER_RULES = (
    "the model has no layers",
    "unknown layer kind",
    "-D, got shape",
    "is empty",
    "do not fit the core",
    "one entry per output",
    "beta without gamma",
    "unknown activation",
    "odd kernel sides",
    "the residual flag must be true or false",
    "skip connection needs matching width",
    "mixing conv and dense",
    "previous output width",
)


def _code_strings():
    """Every string constant in src/elastiq outside docstrings, as
    (module, string); an f-string gives its literal parts."""
    strings = []
    for p in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(p.read_text())
        docs = {id(node.body[0].value) for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.ClassDef,
                                     ast.FunctionDef, ast.AsyncFunctionDef))
                and node.body and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)}
        strings += [(p.stem, node.value) for node in ast.walk(tree)
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str) and id(node) not in docs]
    return strings


def _rule_homes(rules):
    """Per rule fragment, how often each module's code strings hold it."""
    strings = _code_strings()
    return {rule: dict(collections.Counter(
        module for module, s in strings for _ in range(s.count(rule))))
        for rule in rules}


def test_each_layer_rule_is_written_once():
    assert _rule_homes(LAYER_RULES) == dict.fromkeys(
        LAYER_RULES, {"manifest": 1})


# a fragment of each other section rule's refusal message: a decoded
# float, the provenance seed, per-layer lengths and stored ranks, the
# profiles, calibration, certificate and lattice sections
SECTION_RULES = (
    "is not the decimal string of a finite float",
    "is not an integer or null",
    "is not the layer count",
    "above the stored rank",
    "besides its pairs",
    "entries must be non-negative",
    "is not a positive integer",
    "spatial must be a positive (H, W) pair",
    "records no feature-map size",
    "for conv models only",
    "unknown ledger mode",
    "certified exactly when",
    "is negative",
    "levels, not 1 to",
    "level name is not a string",
    "does not match the levels",
    "disagree on the layer count",
    "grow componentwise",
    "is not a non-empty string or null",
)


def test_each_section_rule_is_written_once_in_manifest():
    assert _rule_homes(SECTION_RULES) == dict.fromkeys(
        SECTION_RULES, {"manifest": 1})


# a fragment of each device-table rule's refusal message: the header, row
# length, a doubled entry, the overhead row, layer numbering, a price that
# is not positive and finite (named by where it sits, since BudgetToken
# words its own refusal alike), partial energy, overflowing sums, the
# layer count and an unpriced menu entry
DEVICE_RULES = (
    "unrecognized device table header",
    " fields",
    "prices its entry twice",
    "has no overhead row",
    "must be numbered 0, 1",
    "the overhead",
    "priced everywhere or nowhere",
    "overflow float64 when a profile sums them",
    "layers, the profile has",
    "has no price for layer",
)


def test_each_device_rule_is_written_once_where_a_table_is_read():
    assert _rule_homes(DEVICE_RULES) == dict.fromkeys(
        DEVICE_RULES, {"cost": 1})
    (reader,) = [node for node in
                 ast.parse((PACKAGE / "cost.py").read_text()).body
                 if getattr(node, "name", None) == "read_device_table"]
    # the statements after its docstring
    strings = [node.value for stmt in reader.body[1:]
               for node in ast.walk(stmt)
               if isinstance(node, ast.Constant)
               and isinstance(node.value, str)]
    assert [rule for rule in DEVICE_RULES
            if not any(rule in s for s in strings)] == []
