"""Every verdict can come out false: one table of corpus mutants, and the
source rules that keep the verifier's two routes apart and its caches and
output choices each in one place.

Each row of `MUTANTS` names the module attributes it replaces, builds its
replacement from the honest function, and states the exit code and id
lists that `run_corpus` must report with it in place.  The replacement
appends to `fired` whenever it changes an answer, so a row whose mutant
never fires fails instead of passing on the honest corpus.  Rows are
runtime patches through `monkeypatch.setattr`, which fails if a target was
renamed.  Rows are isolated by `monkeypatch.context`, which restores the
honest functions when the row ends, and by `clear_caches()` before and
after each row, so no closure built from a mutated polyhedron outlives it.
Polyhedra need no clearing: they live on the ideals of the row's own
corpus run (`core.per_ideal`), and a mutated one is kept under the
mutant's key, never under the honest function's.

The source rules are functions of a source directory returning the
`file:line` of each violation, so each one is shown to fail on a copy with
one planted violation.
"""

import ast
import io
import json
import shutil
from contextlib import redirect_stdout
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import pytest

from reesval import NewtonPolyhedron, clear_caches, cli, newton, primes, valuations, verify
from reesval.cli import run_corpus
from reesval.core import per_ideal
from conftest import CORPUS_PATH, REPO_ROOT

SRC = REPO_ROOT / "src"


def raised_first_unit_cut(honest, fired):
    """The first sample cut at 1 by the oracle's kernel is cut at 2: the
    facet route puts that sample in 2*NP, which the raw-power route must
    deny."""

    def raised(rows, points, cap):
        cuts = honest(rows, points, cap)
        if not fired and 1 in cuts:
            i = cuts.index(1)
            fired.append(points[i])
            cuts[i] += 1
        return cuts

    return raised


def denied_first_raw_power_ratio(honest, fired):
    """On the first ideal, every question with the ratio m/t of the first
    True answer is answered False: every rung of that (sample, dilation).
    Denying the first True answer alone is not enough, as the next rung
    answers it.  The facet route still puts that sample in that dilation."""
    ideals = []

    def denying_search(I):
        member = honest(I)
        ideals.append(I)
        if len(ideals) > 1:
            return member

        def denying(km, t):
            ratio = tuple(Fraction(e, t) for e in km)
            if not fired and member(km, t):
                fired.append(ratio)
            return ratio not in fired and member(km, t)

        return denying

    return denying_search


def dropped_facet(position):
    """A polyhedron with two or more positive-offset facets loses the one at
    `position` among them."""

    def mutate(honest, fired):
        # kept on the ideal like the honest polyhedron, under this function
        # as its key, so each mutated polyhedron is built once
        @per_ideal
        def dropping(I):
            np_ = honest(I)
            positive = [i for i, f in enumerate(np_.facets) if f.offset > 0]
            if len(positive) < 2:
                return np_
            i = positive[position]
            fired.append(np_.facets[i])
            return NewtonPolyhedron(np_.ring, np_.facets[:i] + np_.facets[i + 1:])

        return dropping

    return mutate


def dropped_component(position):
    """A decomposition with two or more irreducible components loses the
    one at `position` in `irreducible_decomposition`'s order."""

    def mutate(honest, fired):
        def dropping(J):
            comps = sorted(honest(J), key=lambda b: (len(b), b))
            if len(comps) >= 2:
                fired.append(comps.pop(position))
            return comps

        return dropping

    return mutate


def identity_saturation(honest, fired):
    """Saturating returns its input, so an inadmissible S fixes every
    closure, which thm31 must call a failure."""

    def unchanged(J, var_indexes):
        if honest(J, var_indexes) != J:
            fired.append(J)
        return J

    return unchanged


class Mutant(NamedTuple):
    id: str
    targets: tuple  # (module, name) pairs bound to one honest function
    mutate: Callable  # (honest, fired) -> replacement
    exit_code: int
    failed_ids: list
    not_stabilized_ids: list
    fired: Optional[list] = None  # what it must plant, when pinned


COMPUTE_NP = tuple((module, "compute_np") for module in (newton, verify, valuations, cli))

MUTANTS = [
    Mutant(
        "raised-facet-cut",
        ((verify, "_capped_dilation_cuts"),),
        raised_first_unit_cut,
        1, ["g01-x2-y3"], [],
        fired=[(2, 0)],
    ),
    Mutant(
        "denied-raw-power-ratio",
        ((verify, "_power_search"),),
        denied_first_raw_power_ratio,
        1, ["g01-x2-y3"], [],
        fired=[(Fraction(1), Fraction(2))],
    ),
    Mutant(
        "identity-saturate",
        ((verify, "saturate"),),
        identity_saturation,
        1, ["g04-x2-xy-sat-y"], [],
    ),
    # Exit 3 reads as "cap too small", not as a failed verdict: ROADMAP
    # item 1 must turn this row, and both dropped-component rows, into exit 1
    Mutant(
        "dropped-first-facet",
        COMPUTE_NP,
        dropped_facet(0),
        3,
        ["g05-xy", "g06-x2y3", "g09-x4-x2y-y3", "g11-x4-xy2-y5", "g21-xyz",
         "g25-xy-z2", "g26-z-times-x-y", "g27-xy-3var", "g31-square-edges",
         "g32-xy-zw", "g33-xyzw", "g35-x2-y2-zw", "g36-x2-y3-zw"],
        ["g03-x2-xy", "g04-x2-xy-sat-y", "g13-x2y-xy2", "g15-x3-x2y4",
         "g19-triangle-edges", "g20-x2-xy-3var", "g22-cyclic-mixed",
         "g29-mixed-3var", "g30-xyz-times-maximal", "g37-x2-xy-4var",
         "g40-triangle-4var", "g41-deep-chain"],
    ),
    Mutant(
        "dropped-last-facet",
        COMPUTE_NP,
        dropped_facet(-1),
        1,
        ["g03-x2-xy", "g04-x2-xy-sat-y", "g05-xy", "g06-x2y3", "g09-x4-x2y-y3",
         "g11-x4-xy2-y5", "g13-x2y-xy2", "g15-x3-x2y4", "g19-triangle-edges",
         "g20-x2-xy-3var", "g21-xyz", "g22-cyclic-mixed", "g25-xy-z2",
         "g26-z-times-x-y", "g27-xy-3var", "g29-mixed-3var",
         "g30-xyz-times-maximal", "g31-square-edges", "g32-xy-zw", "g33-xyzw",
         "g35-x2-y2-zw", "g36-x2-y3-zw", "g37-x2-xy-4var", "g40-triangle-4var"],
        [],
    ),
    Mutant(
        "dropped-first-component",
        ((primes, "_component_bounds"),),
        dropped_component(0),
        3,
        [],
        ["g03-x2-xy", "g04-x2-xy-sat-y", "g05-xy", "g06-x2y3", "g13-x2y-xy2",
         "g15-x3-x2y4", "g20-x2-xy-3var", "g21-xyz", "g26-z-times-x-y",
         "g27-xy-3var", "g30-xyz-times-maximal", "g33-xyzw", "g37-x2-xy-4var",
         "g41-deep-chain"],
    ),
    Mutant(
        "dropped-last-component",
        ((primes, "_component_bounds"),),
        dropped_component(-1),
        3,
        [],
        ["g05-xy", "g06-x2y3", "g21-xyz", "g27-xy-3var", "g33-xyzw"],
    ),
]


def corpus_run():
    out = io.StringIO()
    code = run_corpus(str(CORPUS_PATH), out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("row", MUTANTS, ids=lambda row: row.id)
def test_corpus_catches_mutant(row, monkeypatch):
    honest = getattr(*row.targets[0])
    assert all(getattr(*target) is honest for target in row.targets)
    fired = []
    replacement = row.mutate(honest, fired)
    clear_caches()
    try:
        with monkeypatch.context() as patch:
            for module, name in row.targets:
                patch.setattr(module, name, replacement)
            code, report = corpus_run()
    finally:
        clear_caches()
    summary = json.loads(report.splitlines()[-1])["summary"]
    assert fired if row.fired is None else fired == row.fired
    assert (code, summary["failed_ids"], summary["not_stabilized_ids"]) == (
        row.exit_code, row.failed_ids, row.not_stabilized_ids)


def test_corpus_passes_at_a_second_oracle_seed(monkeypatch):
    # the oracle verdict is part of every entry, so a facet-route slip on
    # samples that seed 0 never draws fails here.  The report reads the same
    # at every seed, so the sampler's keys show that --seed reached it
    keys = []
    honest = cli.sample_box

    def recording(bounds, cap, seed_key):
        keys.append(seed_key)
        return honest(bounds, cap, seed_key)

    monkeypatch.setattr(cli, "sample_box", recording)
    with redirect_stdout(io.StringIO()):
        code = cli.main(["corpus", str(CORPUS_PATH), "--seed", "7"])
    assert code == 0
    assert keys and all(key.startswith("7:") for key in keys)


def sources(root):
    return [(path, path.relative_to(root)) for path in sorted(root.rglob("*.py"))]


def assert_statements(root):
    """python -O strips asserts, so an invariant under src must be an
    explicit check."""
    return [
        f"{name}:{node.lineno}"
        for path, name in sources(root)
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]


def lane_packing_outside_lanes(root):
    """One module owns the guard-bit lane layout and its no-borrow proof,
    so no other file builds or reads lanes through bytes."""
    return [
        f"{name}:{number}"
        for path, name in sources(root)
        if path.name != "lanes.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if any(s in line for s in ("array(", ".cast(", "int.from_bytes"))
    ]


def core_package_imports(root):
    """core holds the raw-power search, the independent side of the closure
    cross-checks; importing any reesval module but lanes and errors (the
    package itself included) could let it read facets."""
    path = root / "reesval" / "core.py"
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            imported = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(["reesval"] * bool(node.level) + [node.module or ""]).strip(".")
            imported = [f"{base}.{a.name}" for a in node.names] if base == "reesval" else [base]
        else:
            continue
        parts = [name.split(".") for name in imported]
        if any(p[0] == "reesval" and p[1:2] not in (["lanes"], ["errors"]) for p in parts):
            hits.append(f"{path.relative_to(root)}:{node.lineno}")
    return hits


MEMO_NAMES = {"lru_cache", "cache"}


def process_wide_memos(root):
    """Per-ideal results live on the ideal (`core.per_ideal`), so the one
    functools memo under src is `newton.integral_closure_power`'s: no other
    name or attribute called lru_cache or cache is used."""
    hits = []
    for path, name in sources(root):
        tree = ast.parse(path.read_text(), str(path))
        kept = {
            id(node)
            for f in ast.walk(tree)
            if name.as_posix() == "reesval/newton.py"
            and isinstance(f, ast.FunctionDef) and f.name == "integral_closure_power"
            for decorator in f.decorator_list
            for node in ast.walk(decorator)
        }
        hits += sorted(
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in kept
            and (isinstance(node, ast.Name) and node.id in MEMO_NAMES
                 or isinstance(node, ast.Attribute) and node.attr in MEMO_NAMES)
        )
    return hits


def json_flag_outside_main(root):
    """`--json` picks one of two renderings of a subcommand's payload, and
    `cli.main` alone makes that pick: no other code reads `args.json`."""
    hits = []
    for path, name in sources(root):
        tree = ast.parse(path.read_text(), str(path))
        in_main = {
            id(node)
            for f in tree.body
            if name.as_posix() == "reesval/cli.py"
            and isinstance(f, ast.FunctionDef) and f.name == "main"
            for node in ast.walk(f)
        }
        hits += sorted(
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in in_main
            and isinstance(node, ast.Attribute) and node.attr == "json"
            and isinstance(node.value, ast.Name) and node.value.id == "args"
        )
    return hits


RULES = [assert_statements, lane_packing_outside_lanes, core_package_imports, process_wide_memos,
         json_flag_outside_main]


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_source_rule_holds_under_src(rule):
    assert rule(SRC) == []


@pytest.mark.parametrize("rule, file, planted", [
    (assert_statements, "reesval/verify.py", "assert True"),
    (lane_packing_outside_lanes, "reesval/newton.py", 'packed = int.from_bytes(b"", "little")'),
    (core_package_imports, "reesval/core.py", "from .newton import compute_np"),
    (core_package_imports, "reesval/core.py", "import reesval"),
    (process_wide_memos, "reesval/valuations.py", "@lru_cache\ndef _planted(I):\n    return I"),
    (json_flag_outside_main, "reesval/cli.py", "_planted = lambda args: args.json"),
], ids=["assert", "from-bytes-in-newton", "core-imports-newton", "core-imports-package",
        "lru-cache-in-valuations", "args-json-outside-main"])
def test_source_rule_reports_a_planted_violation(rule, file, planted, tmp_path):
    root = tmp_path / "src"
    shutil.copytree(SRC, root, ignore=shutil.ignore_patterns("__pycache__"))
    path = root / file
    text = path.read_text()
    path.write_text(text + planted + "\n")
    assert rule(root) == [f"{file}:{len(text.splitlines()) + 1}"]
