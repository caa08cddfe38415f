"""Command-line contract: outputs, JSON schemas, exit codes, corpus runner."""

import io
import json
import os
import re
import subprocess
import sys
from concurrent import futures
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reesval import (
    BStarSet,
    InvalidInput,
    MonomialPrime,
    RingContext,
    compute_np,
    integral_closure_power,
    normalize,
)
from reesval import cli
from reesval.cli import _load_corpus_entry, main, run_corpus
from conftest import CORPUS_PATH, REPO_ROOT
from oracles import corpus_line_accepted_ref


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_closure_text_golden():
    code, out = run_cli(
        "closure", "--power", "1", "--ideal", "x^2,y^3", "--ring", "Q[x,y]"
    )
    assert code == 0
    assert out.strip() == "x^2, x*y^2, y^3"


def test_np_json_golden():
    code, out = run_cli("np", "--ring", "Q[x,y]", "--ideal", "x^2,y^3", "--json")
    assert code == 0
    assert json.loads(out) == {
        "facets": [[[0, 1], 0], [[1, 0], 0], [[3, 2], 6]],
        "gens": [[2, 0], [0, 3]],
        "ring": ["x", "y"],
    }


def test_rees_json_golden():
    code, out = run_cli("rees", "--ring", "Q[x,y]", "--ideal", "x^2,x*y", "--json")
    assert code == 0
    assert json.loads(out) == {
        "centers": [["x"], ["x", "y"]],
        "ring": ["x", "y"],
        "valuations": [[[1, 0], 1], [[1, 1], 2]],
    }


def test_vbar_text():
    code, out = run_cli(
        "vbar", "--ring", "Q[x,y]", "--ideal", "x^2,y^3", "--monomial", "x*y"
    )
    assert code == 0
    assert out.strip() == "5/6"


def test_vbar_of_the_monomial_one():
    # render_monomial writes the zero vector as "1", and the CLI reads it back
    code, out = run_cli(
        "vbar", "--ring", "Q[x,y]", "--ideal", "x^2,y^3", "--monomial", "1"
    )
    assert code == 0
    assert out.strip() == "0"


def test_astar_json():
    code, out = run_cli("astar", "--ring", "Q[x,y]", "--ideal", "x^2,x*y", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["stabilization_index"] == 1
    assert payload["stable_set"] == [["x"], ["x", "y"]]
    assert payload["b_star"] == payload["stable_set"]
    assert payload["verdicts"] == {"cor26": True, "monotone": True}


def test_astar_computes_no_minimal_primes(monkeypatch):
    # astar prints no lemma21i verdict, so Min(I) is never needed
    argv = ("astar", "--ring", "Q[x,y,z]", "--ideal", "x^2*y,y*z,z^3", "--json")
    expected = run_cli(*argv)

    def refuse(I):
        raise AssertionError("astar computed minimal_primes")

    monkeypatch.setattr(cli, "minimal_primes", refuse)
    assert run_cli(*argv) == expected
    assert expected[0] == 0


def test_verify_cor26_exit_zero():
    code, out = run_cli("verify", "cor26", "--ideal", "x", "--ring", "Q[x]")
    assert code == 0
    assert "cor26: PASS" in out


def test_verify_thm31_admissible():
    code, out = run_cli(
        "verify", "thm31", "--ring", "Q[x,y]", "--ideal", "x", "--s-vars", "y", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["admissible"] is True
    assert payload["holds"] is True
    assert payload["per_n"] == [[1, True], [2, True], [3, True], [4, True]]


def test_verify_thm31_inadmissible_counter_witness():
    code, out = run_cli(
        "verify", "thm31", "--ring", "Q[x,y]", "--ideal", "x^2,x*y",
        "--s-vars", "y", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["admissible"] is False
    assert payload["counter_witness"] == 1


def test_thm31_fails_when_an_inadmissible_saturation_fixes_the_closure(monkeypatch):
    # a saturation that never moves a closure makes every per-n answer
    # True, which an inadmissible S (y meets the center (x, y)) denies; the
    # corpus run under this mutant is the identity-saturate row of
    # test_mutants.py
    import reesval.verify as verify_module

    monkeypatch.setattr(verify_module, "saturate", lambda J, s_vars: J)
    argv = ("verify", "thm31", "--ring", "Q[x,y]", "--ideal", "x^2, x*y", "--s-vars", "y")
    code, out = run_cli(*argv)
    assert code == 1
    assert out == "thm31: FAIL (S meets a center, yet saturating at S fixes n=1)\n"
    code, out = run_cli(*argv, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["admissible"] is False and payload["holds"] is False
    assert payload["counter_witness"] is None


def test_thm31_fails_when_b_star_drops_the_centers_meeting_s(monkeypatch):
    # without the center (x, y), S = {y} reads as admissible, but
    # saturating at y still moves every closure of (x^2, xy)
    import reesval.verify as verify_module

    honest = verify_module.b_star
    y = 1
    monkeypatch.setattr(
        verify_module, "b_star",
        lambda I: BStarSet(frozenset(c for c in honest(I).centers if y not in c.vars)),
    )
    code, out = run_cli(
        "verify", "thm31", "--ring", "Q[x,y]", "--ideal", "x^2, x*y", "--s-vars", "y"
    )
    assert code == 1
    assert out == "thm31: FAIL (S admissible, n=1..4)\n"


def test_verify_thm31_requires_s_vars():
    code, _ = run_cli("verify", "thm31", "--ring", "Q[x,y]", "--ideal", "x")
    assert code == 2


@pytest.mark.parametrize("check", ["thm31", "all"])
@pytest.mark.parametrize("s_vars", ["y,y", "x, y,x"])
def test_verify_s_vars_naming_a_variable_twice_exit_two(check, s_vars, capsys):
    # a corpus line whose s_vars repeats a name exits 2, and --s-vars holds
    # the same rule instead of merging the repeat; no verdict is printed
    for json_flag in ((), ("--json",)):
        code, out = run_cli(
            "verify", check, "--ring", "Q[x,y]", "--ideal", "x^2", "--s-vars", s_vars, *json_flag
        )
        assert code == 2
        assert out == ""
        assert "names a variable twice" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["thm31", "all"])
@pytest.mark.parametrize("s_vars", ["y,,", ",y", "y,"])
def test_verify_s_vars_with_an_empty_name_exit_two(check, s_vars, capsys):
    # an empty name is no ring variable: --s-vars exits 2 on it, as a
    # corpus line with "s_vars": ["y", ""] does, and prints no verdict
    for json_flag in ((), ("--json",)):
        code, out = run_cli(
            "verify", check, "--ring", "Q[x,y]", "--ideal", "x^2,x*y", "--s-vars", s_vars,
            *json_flag,
        )
        assert code == 2
        assert out == ""
        assert "unknown variable ''" in capsys.readouterr().err
    line = '{"id": "e", "ring": ["x", "y"], "gens": [[2, 0], [1, 1]], "s_vars": ["y", ""]}'
    with pytest.raises(InvalidInput, match="^line 1: unknown variable ''$"):
        _load_corpus_entry(1, line)


def test_verify_all_runs_both():
    code, out = run_cli(
        "verify", "all", "--ring", "Q[x,y,z]", "--ideal", "x^2,x*y",
        "--s-vars", "z", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cor26"]["verdicts"]["cor26"] is True
    assert payload["cor26"]["verdicts"]["lemma21i"] is True
    assert payload["thm31"]["admissible"] is True


def test_verify_all_without_s_vars_reports_thm31_skipped():
    argv = ("verify", "all", "--ring", "Q[x,y]", "--ideal", "x^2,x*y")
    code, out = run_cli(*argv)
    assert code == 0
    assert out.splitlines()[-1] == "thm31: SKIPPED (no --s-vars)"
    code, out = run_cli(*argv, "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"cor26", "thm31"}
    assert payload["thm31"] is None


def test_not_stabilized_exit_three():
    code, _ = run_cli(
        "astar", "--ring", "Q[x,y,z]", "--ideal", "x*y,y*z,z*x", "--cap", "1"
    )
    assert code == 3


def test_parse_error_exit_two():
    code, _ = run_cli("vbar", "--ring", "Q[x,y]", "--ideal", "x^0", "--monomial", "x")
    assert code == 2


def test_non_ascii_exponent_exit_two(capsys):
    # '²' once escaped the parser as a bare ValueError (exit 1)
    for ideal in ("x^²,y", "x^２,y"):
        code, out = run_cli("np", "--ring", "Q[x,y]", "--ideal", ideal)
        assert code == 2 and not out
        assert "expected an unsigned integer" in capsys.readouterr().err


def test_unknown_subcommand_exit_two():
    code, _ = run_cli("frobnicate")
    assert code == 2


def sabotage_lemma21i(monkeypatch):
    # no valid input can make the checks fail, so force a failing verdict
    # to pin the exit-code contract: a "minimal prime" on a variable outside
    # the ring lies in no stable set
    import reesval.cli as cli_module

    monkeypatch.setattr(
        cli_module, "minimal_primes",
        lambda I: frozenset({MonomialPrime((I.ring.dimension,))}),
    )


def test_verification_failure_exit_one(monkeypatch):
    sabotage_lemma21i(monkeypatch)
    code, out = run_cli("verify", "cor26", "--ideal", "x", "--ring", "Q[x]")
    assert code == 1
    assert "lemma21i: FAIL" in out
    code, out = run_cli("verify", "all", "--ideal", "x", "--ring", "Q[x]", "--json")
    assert code == 1
    assert json.loads(out)["cor26"]["verdicts"] == {
        "cor26": True, "lemma21i": False, "monotone": True,
    }


@pytest.mark.parametrize("argv", [
    ("astar", "--ring", "Q[x,y]", "--ideal", "x^2,x*y"),
    ("verify", "cor26", "--ring", "Q[x,y]", "--ideal", "x^2,x*y"),
    ("verify", "thm31", "--ring", "Q[x,y,z]", "--ideal", "x^2,x*y", "--s-vars", "z"),
])
def test_cap_zero_exit_two(argv, capsys):
    # 0 is not a cap, and must not fall back to the default one
    code, out = run_cli(*argv, "--cap", "0")
    assert code == 2
    assert out == ""
    assert "n_cap" in capsys.readouterr().err


def test_json_output_byte_identical():
    _, first = run_cli("rees", "--ring", "Q[x,y]", "--ideal", "x^2,x*y", "--json")
    _, second = run_cli("rees", "--ring", "Q[x,y]", "--ideal", "x^2,x*y", "--json")
    assert first == second


@pytest.mark.parametrize("argv, message", [
    (("np", "--ring", "Q[x,y]", "--ideal", "x^2,y^3", "--seed", "3"),
     "unrecognized arguments: --seed"),
    (("corpus", str(CORPUS_PATH), "--json"), "unrecognized arguments: --json"),
    (("verify", "cor26", "--ring", "Q[x]", "--ideal", "x", "--s-vars", "x"),
     "takes no --s-vars"),
    (("np", "--ideal", "x^2,y^3"), "required: --ring"),
], ids=["np-seed", "corpus-json", "cor26-s-vars", "np-no-ring"])
def test_option_the_subcommand_does_not_take_exit_two(argv, message, capsys):
    # every option a subcommand accepts is read: one it does not take is a
    # usage error instead of being ignored, and argparse names a missing one
    code, out = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert message in capsys.readouterr().err


# --- corpus runner ------------------------------------------------------------

def write_corpus(tmp_path, lines):
    path = tmp_path / "c.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def test_corpus_small(tmp_path):
    path = write_corpus(tmp_path, [
        json.dumps({"id": "e1", "ring": ["x", "y"], "gens": [[2, 0], [1, 1]]}),
        json.dumps({"id": "e2", "ring": ["x", "y"], "gens": [[1, 1]],
                    "s_vars": ["y"]}),
    ])
    code, out = run_cli("corpus", path)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["id"] == "e1"
    assert lines[0]["stable_set"] == [["x"], ["x", "y"]]
    assert lines[0]["verdicts"] == {
        "cor26": True, "lemma21i": True, "monotone": True, "oracle": True,
    }
    assert "timings_ms" not in lines[0]
    assert lines[1]["verdicts"]["thm31"] is True
    assert lines[1]["thm31_admissible"] is False  # y is a center of (xy)
    assert lines[2]["summary"]["all_passed"] is True
    assert lines[2]["summary"]["entries"] == 2


def test_corpus_timings_opt_in(tmp_path):
    path = write_corpus(tmp_path, [
        json.dumps({"id": "e1", "ring": ["x"], "gens": [[2]]}),
    ])
    code, out = run_cli("corpus", path, "--timings")
    assert code == 0
    report = json.loads(out.splitlines()[0])
    assert "total" in report["timings_ms"]


def test_corpus_malformed_line(tmp_path, capsys):
    path = write_corpus(tmp_path, [
        json.dumps({"id": "e1", "ring": ["x"], "gens": [[1]]}),
        "{not json",
    ])
    code, _ = run_cli("corpus", path)
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_corpus_bad_later_line_leaves_no_output(tmp_path, capsys):
    # every line is loaded before any entry runs: a bad line 2 (a
    # non-minimal generator over the exponent cap) stops the run before
    # line 1 reports anything
    path = write_corpus(tmp_path, [
        json.dumps({"id": "e1", "ring": ["x"], "gens": [[1]]}),
        json.dumps({"id": "e2", "ring": ["x"], "gens": [[1], [13]]}),
    ])
    code, out = run_cli("corpus", path)
    assert code == 2
    assert out == ""
    assert "line 2" in capsys.readouterr().err


def test_corpus_empty_s_vars_rejected(tmp_path, capsys):
    path = write_corpus(tmp_path, [
        json.dumps({"id": "e2", "ring": ["x", "y"], "gens": [[1, 1]], "s_vars": []}),
    ])
    code, _ = run_cli("corpus", path)
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_corpus_empty_file(tmp_path):
    path = write_corpus(tmp_path, [])
    code, out = run_cli("corpus", path)
    assert code == 0
    summary = json.loads(out.strip())
    assert summary["summary"]["entries"] == 0
    assert summary["summary"]["all_passed"] is True


def test_corpus_not_stabilized_exit_three(tmp_path):
    path = write_corpus(tmp_path, [
        json.dumps({"id": "tri", "ring": ["x", "y", "z"],
                    "gens": [[1, 1, 0], [0, 1, 1], [1, 0, 1]]}),
    ])
    code, out = run_cli("corpus", path, "--cap", "1")
    assert code == 3
    report = json.loads(out.splitlines()[0])
    assert report["error"] == "not_stabilized"


def test_corpus_verification_failure_exit_one(tmp_path, monkeypatch):
    path = write_corpus(tmp_path, [
        json.dumps({"id": "e1", "ring": ["x", "y"], "gens": [[2, 0], [1, 1]]}),
        json.dumps({"id": "e2", "ring": ["x"], "gens": [[1]]}),
    ])
    sabotage_lemma21i(monkeypatch)
    code, out = run_cli("corpus", path)
    assert code == 1
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["verdicts"]["lemma21i"] is False
    assert lines[0]["verdicts"]["cor26"] is True
    assert lines[2]["summary"]["failed_ids"] == ["e1", "e2"]
    assert lines[2]["summary"]["all_passed"] is False


def test_corpus_cap_zero_exit_two(tmp_path, capsys):
    path = write_corpus(tmp_path, [
        json.dumps({"id": "e1", "ring": ["x"], "gens": [[1]]}),
    ])
    code, out = run_cli("corpus", path, "--cap", "0")
    assert code == 2
    assert out == ""
    assert "n_cap" in capsys.readouterr().err


def test_corpus_empty_file_cap_zero_exit_two(tmp_path, capsys):
    # the cap is checked before any entry is read, not once per entry
    path = write_corpus(tmp_path, [])
    code, out = run_cli("corpus", path, "--cap", "0")
    assert code == 2
    assert out == ""
    assert "n_cap" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_corpus_jobs_below_one_exit_two(tmp_path, capsys, jobs):
    path = write_corpus(tmp_path, [
        json.dumps({"id": "e1", "ring": ["x"], "gens": [[1]]}),
    ])
    code, out = run_cli("corpus", path, "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "jobs" in capsys.readouterr().err


@pytest.mark.parametrize("s_vars", [[["x"]], [{}], ["x", ["y"]]])
def test_corpus_unhashable_s_vars_rejected(tmp_path, capsys, s_vars):
    path = write_corpus(tmp_path, [
        json.dumps({"id": "e1", "ring": ["x", "y"], "gens": [[1, 1]], "s_vars": s_vars}),
    ])
    code, _ = run_cli("corpus", path)
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_corpus_not_utf8_exit_two(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"\xff\xfe{}\n")
    code, _ = run_cli("corpus", str(path))
    assert code == 2
    assert "cannot read corpus" in capsys.readouterr().err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 14) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
@st.composite
def corpus_objects(draw):
    """A near-valid entry with some fields dropped or replaced by any JSON."""
    ring = draw(st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=3, unique=True))
    vectors = st.lists(st.integers(0, 13), min_size=len(ring), max_size=len(ring))
    entry = {
        "id": draw(st.text(min_size=1, max_size=3)),
        "ring": ring,
        "gens": draw(st.lists(vectors, min_size=1, max_size=3)),
        "s_vars": draw(st.lists(json_values | st.sampled_from(ring), min_size=1, max_size=3)),
    }
    for key in draw(st.sets(st.sampled_from([*entry, "other"]))):
        if draw(st.booleans()):
            entry.pop(key, None)
        else:
            entry[key] = draw(json_values)
    return entry


# a replacement ring or s_vars name: valid, invalid, a non-string, or
# (drawn per entry) a name the entry already uses
edit_names = ["y", "_b", "x1", "xy", "", "1y", "x-y", "é", 0, None, ["x"]]


@st.composite
def corpus_edits(draw):
    """A valid entry with exactly one field changed: the id, one ring name,
    one generator entry (to 12, the cap, or 13) or one s_vars name."""
    ring = draw(st.lists(st.sampled_from(["x", "y", "z", "w"]), min_size=1, max_size=4, unique=True))
    vector = st.lists(st.integers(0, 12), min_size=len(ring), max_size=len(ring)).filter(any)
    entry = {"id": "e", "ring": ring, "gens": draw(st.lists(vector, min_size=1, max_size=3))}
    if draw(st.booleans()):
        entry["s_vars"] = draw(st.lists(st.sampled_from(ring), min_size=1, unique=True))
    field = draw(st.sampled_from([f for f in ("id", "ring", "gens", "s_vars") if f in entry]))
    if field == "id":
        entry["id"] = draw(st.sampled_from(["e2", "", 0, None, ["e"]]))
    elif field == "gens":
        g = draw(st.sampled_from(entry["gens"]))
        g[draw(st.integers(0, len(g) - 1))] = draw(st.sampled_from([12, 13]))
    else:
        names = entry[field]
        names[draw(st.integers(0, len(names) - 1))] = draw(st.sampled_from(edit_names + ring))
    return json.dumps(entry)


corpus_lines = (
    corpus_objects().map(json.dumps) | json_values.map(json.dumps) | st.text(max_size=20)
    | corpus_edits()
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(corpus_lines)
@example('{"id": "a", "ring": ["x"], "gens": [[1]], "s_vars": [["x"]]}')
@example('{"id": "a", "ring": ["x"], "gens": [[' + "1" * 5000 + ']]}')
@example("[" * 100000)
def test_corpus_loader_fuzz(line):
    # a corpus line is accepted as a usable entry or rejected as
    # InvalidInput (exit 2); nothing else may escape the loader, and an
    # accepted entry holds the ideal of the line's own fields
    try:
        entry = _load_corpus_entry(1, line)
    except InvalidInput:
        return
    fields = json.loads(line)
    assert entry["id"] == fields["id"]
    assert entry["ideal"] == normalize(fields["gens"], RingContext(tuple(fields["ring"])))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(corpus_lines)
@example('{"id": "a", "ring": ["x", "y"], "gens": [{"x": 1, "y": 0}]}')
@example('{"id": "a", "ring": ["x", "y"], "gens": [{}]}')
@example("true")
@example('{"id": "a", "ring": ["x", "y"], "gens": [[1, 0], [0, 0]]}')
@example('{"id": "a", "ring": ["x"], "gens": [[1], [13]]}')
@example('{"id": "a", "ring": ["x", "y"], "gens": [[1, 1]], "s_vars": ["x", "x"]}')
@example('{"id": "a", "ring": ["x", "y"], "gens": [[1, 1]], "s_vars": ["z"]}')
@example('{"id": "a", "ring": ["x", "y"], "gens": [[1, 1]], "s_vars": [0]}')
@example('{"id": "a", "ring": ["x", "y"], "gens": [[1, 1]], "s_vars": ["y", "x"]}')
@example('{"id": "a", "ring": ["a", "b", "c", "d", "e", "f", "g"], "gens": [[1, 0, 0, 0, 0, 0, 0]]}')
@example('{"id": "a", "ring": ["a", "b", "c", "d", "e", "f"], "gens": [[1, 0, 0, 0, 0, 12]]}')
@example('{"id": "a", "ring": ["x", "x"], "gens": [[1, 1]]}')
@example('{"id": "a", "ring": ["x", "1y"], "gens": [[1, 1]]}')
@example('{"id": "a", "ring": "xy", "gens": [[1, 1]]}')
@example('{"id": "a", "ring": ["x"], "gens": [[true]]}')
@example('{"id": "a", "ring": ["x"], "gens": [[1.0]]}')
@example('{"id": "a", "ring": ["x"], "gens": [[1]], "s_vars": null}')
def test_corpus_loader_accepts_what_the_hand_rules_accept(line):
    # the loader leaves names and vectors to the library's own checks; the
    # lines it accepts are still exactly those the hand-written rules accept
    try:
        _load_corpus_entry(1, line)
        accepted = True
    except InvalidInput:
        accepted = False
    assert accepted == corpus_line_accepted_ref(line), line


def test_corpus_duplicate_id_rejected(tmp_path):
    path = write_corpus(tmp_path, [
        json.dumps({"id": "e1", "ring": ["x"], "gens": [[1]]}),
        json.dumps({"id": "e1", "ring": ["x"], "gens": [[2]]}),
    ])
    code, _ = run_cli("corpus", path)
    assert code == 2


def test_run_corpus_function_buffer(tmp_path):
    path = write_corpus(tmp_path, [
        json.dumps({"id": "e1", "ring": ["x", "y"], "gens": [[2, 0], [0, 3]]}),
    ])
    buf = io.StringIO()
    assert run_corpus(path, out=buf) == 0
    assert json.loads(buf.getvalue().splitlines()[0])["id"] == "e1"


def test_corpus_pool_never_outnumbers_entries(tmp_path, monkeypatch):
    # a fork pool starts all max_workers processes at the first submit, so
    # --jobs beyond the entry count would only fork idle workers; the fake
    # pool records the size and runs the entries in this process
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", FakePool)
    path = write_corpus(tmp_path, [
        json.dumps({"id": f"e{i}", "ring": ["x", "y"], "gens": [[i, 0], [0, 3]]})
        for i in (1, 2, 3)
    ])
    for jobs, size in ((5000, 3), (3, 3), (2, 2)):
        assert run_corpus(path, jobs=jobs, out=io.StringIO()) == 0
        assert sizes.pop() == size
    assert run_corpus(str(CORPUS_PATH), jobs=5000, out=io.StringIO()) == 0
    assert sizes == [41]


def test_cli_import_leaves_the_process_pool_unloaded():
    # only --jobs > 1 uses the pool, so importing the CLI (as every command
    # and the benchmark's set-up do) must not load concurrent.futures (and
    # with it logging) or multiprocessing; the value objects are Records,
    # so dataclasses (and with it inspect) stays unloaded too
    code = (
        "import sys; import reesval.cli; print(*(name in sys.modules for name in "
        "('concurrent.futures', 'concurrent.futures.process', 'multiprocessing', "
        "'dataclasses', 'inspect')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.split() == ["False"] * 5


@pytest.mark.parametrize("options", [(), ("--cap", "1")])
def test_corpus_into_a_closed_pipe_exits_quietly(options):
    # the corpus computes every report before it writes one, so with the
    # read end closed first the first write fails: no traceback, and the
    # exit code that README documents for a closed stdout, which replaces
    # every other code: a passing corpus does not exit 1, and one whose
    # chains do not stabilize under `--cap 1` does not exit 3
    proc = subprocess.Popen(
        [sys.executable, "-m", "reesval", "corpus", str(CORPUS_PATH), *options],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    code = proc.wait(timeout=60)
    assert err == b""
    assert code == 141
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert f"\n| {code} " in readme.split("### Exit codes", 1)[1].split("###", 1)[0]


def test_corpus_run_keeps_one_polyhedron():
    # the Newton polyhedron and closure memos are bounded: a whole corpus
    # run leaves at most the last entry's polyhedron behind, not one per
    # entry, and at most 16 closures, not one per entry and power; the
    # README "Corpus files" example shows the g03-x2-xy report line and the
    # summary line as this run prints them
    out = io.StringIO()
    assert run_corpus(str(CORPUS_PATH), out=out) == 0
    assert compute_np.cache_info().currsize <= 1
    assert integral_closure_power.cache_info().currsize <= 16
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Corpus files", 1)[1].split("```json", 2)[2].split("```", 1)[0]
    report, summary = (json.loads(obj) for obj in re.split(r"\n(?=\{)", block.strip()))
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert summary == lines[-1]
    assert report in lines
