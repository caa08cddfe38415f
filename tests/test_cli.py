"""Command-line contract: outputs, JSON schemas, exit codes, corpus runner."""

import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reesval import InvalidInput, MonomialPrime, RingContext, compute_np, normalize
from reesval.cli import _load_corpus_entry, main, run_corpus
from conftest import CORPUS_PATH


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


def test_astar_json():
    code, out = run_cli("astar", "--ring", "Q[x,y]", "--ideal", "x^2,x*y", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["stabilization_index"] == 1
    assert payload["stable_set"] == [["x"], ["x", "y"]]
    assert payload["b_star"] == payload["stable_set"]
    assert payload["verdicts"] == {"cor26": True, "monotone": True}


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


def test_verify_thm31_requires_s_vars():
    code, _ = run_cli("verify", "thm31", "--ring", "Q[x,y]", "--ideal", "x")
    assert code == 2


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


corpus_lines = (
    corpus_objects().map(json.dumps) | json_values.map(json.dumps) | st.text(max_size=20)
)


@settings(max_examples=200, deadline=None)
@given(corpus_lines)
@example('{"id": "a", "ring": ["x"], "gens": [[1]], "s_vars": [["x"]]}')
@example('{"id": "a", "ring": ["x"], "gens": [[' + "1" * 5000 + ']]}')
@example("[" * 100000)
def test_corpus_loader_fuzz(line):
    # a corpus line is accepted as a usable entry or rejected as
    # InvalidInput (exit 2); nothing else may escape the loader
    try:
        entry = _load_corpus_entry(1, line)
    except InvalidInput:
        return
    normalize([tuple(g) for g in entry["gens"]], RingContext(tuple(entry["ring"])))


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


def test_corpus_run_keeps_one_polyhedron():
    # the Newton polyhedron memo is bounded: a whole corpus run leaves at
    # most the last entry's polyhedron behind, not one per entry
    assert run_corpus(str(CORPUS_PATH), out=io.StringIO()) == 0
    assert compute_np.cache_info().currsize <= 1
