import collections
import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from eukleia import cli, dsl
from eukleia.cli import (EXIT_COUNTEREXAMPLE, EXIT_IO, EXIT_OK, EXIT_PARSE, EXIT_STEP, EXIT_TOO_LARGE,
                         EXIT_VACUOUS, main)
from eukleia.dsl import MAX_CASES_DEPTH, parse_expr
from eukleia.kernel import sum_multiset
from eukleia.semantics import Counterexample, ModelCheckReport

from conftest import CORPUS_DIR, ang, nested_cases_script, random_angle

JSON_FIELDS = {"command", "status", "file", "step", "span", "valuation", "result",
               "trials", "satisfied", "detail", "elapsed_ms"}

# Checks, but no valuation can satisfy both hypotheses.
VACUOUS_SCRIPT = "vars a b;\nhyp H1: Lt {a} {b};\nhyp H2: Lt {b} {a};\nS1: Lt {a} {b} by hypothesis H1;\n"


# sha256 of the ``compare --json`` output for each operand pair below, as
# printed by the left-fold kernel that preceded the pairwise tree.
COMPARE_GOLDEN = {
    "shared-less": ("LESS", "eaed3146b3fd45e980566caac355fcc043845c063cdfaaf67fe85b2b0089355d"),
    "shared-greater": ("GREATER", "6f517e34ec594806e6a6bbe1f41a284cb5c675ecca78c5008a02d61b3d48da18"),
    "disjoint-less": ("LESS", "fb243873ceb046984d1fe968f9e30fba5756ee4e7bfdf29ee3cfdf601ddf5075"),
    "disjoint-greater": ("GREATER", "342dc2f32efb1da9cd7821d2e86ffea978a3ef2a5efa6843a54c45bbd5ab878c"),
}


def golden_operands() -> dict:
    rng = random.Random(2024)
    base = [random_angle(rng, 1000) for _ in range(300)]
    shuffled = base[:]
    rng.shuffle(shuffled)
    extra = random_angle(rng, 1000)
    other = [random_angle(rng, 1000) for _ in range(300)]
    return {
        "shared-less": (shuffled, base + [extra]),
        "shared-greater": (base + [extra], shuffled),
        "disjoint-less": (other[:250], base),
        "disjoint-greater": (base, other[:250]),
    }


def multiset(angles) -> str:
    return "{" + ", ".join(str(a) for a in angles) + "}"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    reports = [json.loads(line) for line in out.strip().splitlines()]
    for rep in reports:
        assert set(rep) == JSON_FIELDS
        assert rep["elapsed_ms"] is None
    return code, reports


class TestEval:
    def test_four_rights(self, capsys):
        code, out = run(capsys, "eval", "{R,R,R,R}")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "turns=1, rep=(1,0)"

    def test_two_rights(self, capsys):
        code, out = run(capsys, "eval", "{R,R}")
        assert out.splitlines()[0] == "turns=0, rep=(-1,0)"

    def test_empty(self, capsys):
        code, out = run(capsys, "eval", "{}")
        assert out.splitlines()[0] == "turns=0, rep=(1,0)"

    def test_approx(self, capsys):
        code, out = run(capsys, "eval", "{ang(1/1)}", "--approx")
        assert "0.7853981634" in out

    def test_approx_past_float_range(self, capsys):
        rng = random.Random(11)
        angles = [ang(rng.randint(-10**6, 10**6), rng.randint(10**6 - 1000, 10**6)) for _ in range(100)]
        rest = sum_multiset(angles).rest
        assert max(rest.x.bit_length(), rest.y.bit_length()) > 1024  # too long for a float
        code, out = run(capsys, "eval", multiset(angles), "--approx")
        assert code == EXIT_OK and "approx: " in out
        code, (rep,) = run_json(capsys, "eval", multiset(angles), "--approx")
        assert code == EXIT_OK
        oracle = math.fsum(math.atan2(a.y, a.x) for a in angles)
        assert abs(float(rep["detail"]["approx_radians"]) - oracle) < 1e-9

    # A total an odd number of straight angles past its whole turns prints its
    # remainder rotated by pi: the text the kernel printed when it kept a
    # winding count and a direction in [0, 2*pi).
    @pytest.mark.parametrize("expr, result, approx", [
        ("{R,R}", "turns=0, rep=(-1,0)", "3.1415926536"),
        ("{R,R,ang(1/1)}", "turns=0, rep=(-1,-1)", "3.9269908170"),
        ("{R,R,R}", "turns=0, rep=(0,-1)", "4.7123889804"),
    ])
    def test_approx_odd_straights(self, capsys, expr, result, approx):
        code, out = run(capsys, "eval", expr, "--approx")
        assert (code, out.splitlines()[:2]) == (EXIT_OK, [result, f"approx: {approx} rad"])
        code, (rep,) = run_json(capsys, "eval", expr, "--approx")
        assert (rep["result"], rep["detail"]) == (result, {"approx_radians": approx})

    def test_approx_odd_straight_sums_match_golden(self, capsys):
        # Seeded literal multisets whose float totals lie between an odd and
        # the next even multiple of pi, clear of both; the human lines
        # (without the elapsed line) and the --json line of each.
        rng = random.Random(1717)
        shown = []
        while len(shown) < 3 * 60:
            bound = (3, 20, 10**6)[len(shown) // 3 % 3]
            angles = [random_angle(rng, bound) for _ in range(rng.randint(1, 8))] + [ang(0, 1)] * rng.randint(0, 4)
            total = math.fsum(math.atan2(a.y, a.x) for a in angles)
            if int(total / math.pi) % 2 and 1e-6 < total % math.pi < math.pi - 1e-6:
                shown += run(capsys, "eval", multiset(angles), "--approx")[1].splitlines()[:2]
                shown.append(run(capsys, "eval", multiset(angles), "--approx", "--json")[1])
        digest = hashlib.sha256("\n".join(shown).encode()).hexdigest()
        assert digest == "9171f2aa0f117910fd148660822f9d200394a44bce08e35236ad616362a71a99"

    def test_parse_error(self, capsys):
        code, out = run(capsys, "eval", "{ang(3/-4)}")
        assert code == EXIT_PARSE

    def test_huge_literal_is_a_parse_error(self, capsys):
        digits = "9" * 5000
        code, (rep,) = run_json(capsys, "eval", f"{{R, ang(1/{digits})}}")
        assert code == EXIT_PARSE
        assert rep["status"] == "parse-error"
        assert rep["span"] == {"line": 1, "column": 11, "length": 5000}
        assert "too long" in rep["detail"]["message"]
        code, (rep,) = run_json(capsys, "eval", f"{{ang(-{digits}/1)}}")
        assert code == EXIT_PARSE
        assert rep["span"] == {"line": 1, "column": 6, "length": 5001}

    def test_variables_rejected(self, capsys):
        code, _ = run(capsys, "eval", "{x}")
        assert code == EXIT_PARSE

    def test_json(self, capsys):
        code, (rep,) = run_json(capsys, "eval", "{R,R}")
        assert rep["status"] == "ok"
        assert rep["result"] == "turns=0, rep=(-1,0)"


class TestCompare:
    def test_less(self, capsys):
        code, out = run(capsys, "compare", "{ang(3/4), ang(1/1)}", "{R,R}")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "LESS"

    def test_equal_full_turns(self, capsys):
        code, out = run(capsys, "compare", "{R,R,R,R}", "{R,R,R,R}")
        lines = out.splitlines()
        assert lines[0] == "EQUAL"
        assert lines[1] == "lhs: turns=1, rep=(1,0)"
        assert lines[2] == "rhs: turns=1, rep=(1,0)"

    def test_greater(self, capsys):
        code, out = run(capsys, "compare", "{R,R}", "{ang(1/1)}")
        assert out.splitlines()[0] == "GREATER"

    def test_variable_rejected(self, capsys):
        code, _ = run(capsys, "compare", "{x}", "{R}")
        assert code == EXIT_PARSE

    def test_json(self, capsys):
        code, (rep,) = run_json(capsys, "compare", "{ang(3/4), ang(1/1)}", "{R,R}")
        assert rep["result"] == "LESS"
        assert rep["detail"] == {"lhs": "turns=0, rep=(-1,7)", "rhs": "turns=0, rep=(-1,0)"}

    @pytest.mark.parametrize("name", sorted(COMPARE_GOLDEN))
    def test_json_report_matches_golden(self, capsys, name):
        lhs, rhs = golden_operands()[name]
        verdict, digest = COMPARE_GOLDEN[name]
        code = main(["compare", multiset(lhs), multiset(rhs), "--json"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert json.loads(out)["result"] == verdict
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCheck:
    def test_good_proof(self, capsys):
        code, out = run(capsys, "check", str(CORPUS_DIR / "prop13.eap"))
        assert code == EXIT_OK
        assert "7 steps" in out

    def test_broken_proof_names_step(self, capsys):
        code, (rep,) = run_json(capsys, "check", str(CORPUS_DIR / "prop13_broken.eap"))
        assert code == EXIT_STEP
        assert rep["status"] == "step-error"
        assert rep["step"] == "S6"
        assert rep["span"]["line"] >= 1

    def test_missing_file(self, capsys):
        code = main(["check", "missing.eap"])
        assert code == EXIT_IO

    @pytest.mark.parametrize("command", ["check", "modelcheck"])
    def test_invalid_utf8_is_an_io_error(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.eap"
        bad.write_bytes(b"vars a;\xff")
        code = main([command, str(bad)])
        out, err = capsys.readouterr()
        assert code == EXIT_IO
        assert out == ""
        assert err.startswith(f"error: {bad}: not valid UTF-8")

    def test_parse_error_reports_span(self, capsys, tmp_path):
        bad = tmp_path / "bad.eap"
        bad.write_text("vars a;\nS1: Eq {a} {a} by nosuchrule;\n", encoding="utf-8")
        code, (rep,) = run_json(capsys, "check", str(bad))
        assert code == EXIT_PARSE
        assert rep["status"] == "parse-error"
        assert rep["span"] == {"line": 2, "column": 19, "length": 10}


class TestModelcheck:
    def test_ok(self, capsys):
        code, (rep,) = run_json(capsys, "modelcheck", str(CORPUS_DIR / "prop16.eap"),
                                "--trials", "40", "--seed", "7")
        assert code == EXIT_OK
        assert rep["status"] == "ok"
        assert rep["trials"] == 40 and rep["satisfied"] == 40

    def test_zero_trials(self, capsys):
        # No valuation is drawn, so no step is checked.
        code, (rep,) = run_json(capsys, "modelcheck", str(CORPUS_DIR / "prop16.eap"), "--trials", "0")
        assert code == EXIT_VACUOUS
        assert rep["status"] == "vacuous"
        assert rep["trials"] == 0 and rep["satisfied"] == 0

    def test_unsatisfiable_hypotheses_are_vacuous(self, capsys, tmp_path):
        path = tmp_path / "vacuous.eap"
        path.write_text(VACUOUS_SCRIPT, encoding="utf-8")
        started = time.perf_counter()
        code, (rep,) = run_json(capsys, "modelcheck", str(path))
        elapsed = time.perf_counter() - started
        assert code == EXIT_VACUOUS
        assert rep["status"] == "vacuous"
        assert rep["trials"] == 3 and rep["satisfied"] == 0
        assert elapsed < 5
        code, out = run(capsys, "modelcheck", str(path), "--trials", "1")
        assert code == EXIT_VACUOUS
        assert out.startswith(f"vacuous: {path} (0/1 trials satisfied the hypotheses")
        code, (rep,) = run_json(capsys, "modelcheck", str(path), "--trials", "0")
        assert code == EXIT_VACUOUS
        assert rep["status"] == "vacuous"

    # A trial count that is not an int is turned down the same way.
    @pytest.mark.parametrize("argv, message", [
        (["modelcheck", str(CORPUS_DIR / "prop16.eap"), "--trials", "-5"], "--trials: must be 0 or more"),
        (["corpus", "--trials", "-5"], "--trials: must be 0 or more"),
        (["modelcheck", "x.eap", "--trials", "abc"], "--trials: invalid int value: 'abc'"),
    ], ids=["modelcheck", "corpus", "modelcheck-not-an-int"])
    def test_negative_trials_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err

    def test_rejects_unchecked_files_first(self, capsys):
        code, _ = run(capsys, "modelcheck", str(CORPUS_DIR / "prop13_broken.eap"))
        assert code == EXIT_STEP

    # sha256 of ``modelcheck <file> --trials 200 --seed 7 --json`` run from
    # the corpus directory, for each top-level corpus file, with its exit
    # code; recorded before derivation steps were compiled for model checking.
    GOLDEN = {
        "four_rights.eap": (0, "01f85ace74f28291cab697398a6d06e83a2612fb3568bf0cce16f9ebb1a69f74"),
        "postulate5.eap": (0, "113aaf132746f3eb48f180c6ad90c41bb267c2552f8061b84efcc1c7c0b3f197"),
        "prop13.eap": (0, "ce1d8f163a106791998427aeae2bf84478cd6ee91e8efd1451db8db14d9fd196"),
        "prop13_broken.eap": (3, "4baa011f3ac80050e77108eeedbcbccb0ddf7ba135678fb24a5cd170073f5dbf"),
        "prop15.eap": (0, "c31ac36f9f7f4afe7e277809dab54076ead16fe51b5df9ff536393e6b7d936ce"),
        "prop16.eap": (0, "c29fbcd9e4556290d4f0d2f63b944b118375b463ec2a4e7991d7deed47c188ef"),
        "prop25.eap": (0, "c1c87effe70b51e7d72cf5f00c71d6fd4cbd830528816c93a9fdb0b495f2e75b"),
    }

    def test_golden_covers_the_corpus(self):
        assert sorted(p.name for p in CORPUS_DIR.glob("*.eap")) == sorted(self.GOLDEN)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_json_golden(self, capsys, monkeypatch, name):
        monkeypatch.chdir(CORPUS_DIR)
        code, out = run(capsys, "modelcheck", name, "--trials", "200", "--seed", "7", "--json")
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == self.GOLDEN[name]

    def test_counterexample_exit_code(self, capsys, monkeypatch):
        # The rule set is sound over the kernel model, so a real counterexample
        # cannot come from a checked file; fake the analysis result to pin the
        # exit code and report shape.
        fake = ModelCheckReport(
            trials=3,
            satisfied=2,
            counterexample=Counterexample(2, "S1", None, {"a": ang(1, 2)}),
        )
        monkeypatch.setattr(cli, "model_check_derivation", lambda *a, **k: fake)
        code, (rep,) = run_json(capsys, "modelcheck", str(CORPUS_DIR / "prop16.eap"))
        assert code == EXIT_COUNTEREXAMPLE
        assert rep["status"] == "counterexample"
        assert rep["step"] == "S1"
        assert rep["valuation"] == {"a": "ang(1/2)"}
        # The same result as a corpus row.
        code, out = run(capsys, "corpus", "--trials", "3")
        assert code == EXIT_COUNTEREXAMPLE
        assert re.search(r"^prop16\.eap +counterexample +step S1$", out, re.M)


class TestCorpus:
    def test_all_pass(self, capsys):
        code, out = run(capsys, "corpus", "--trials", "5")
        assert code == EXIT_OK
        assert "6/6 file(s) ok" in out

    def test_json_is_newline_delimited(self, capsys):
        code, reports = run_json(capsys, "corpus", "--trials", "5")
        assert code == EXIT_OK
        assert len(reports) == 6
        names = [rep["file"] for rep in reports]
        assert names == sorted(names)
        assert all(rep["status"] == "ok" for rep in reports)

    def test_zero_trials_are_vacuous(self, capsys):
        code, reports = run_json(capsys, "corpus", "--trials", "0")
        assert code == EXIT_VACUOUS
        assert len(reports) == 6
        assert all((rep["status"], rep["trials"], rep["satisfied"]) == ("vacuous", 0, 0) for rep in reports)
        code, out = run(capsys, "corpus", "--trials", "0")
        assert code == EXIT_VACUOUS
        assert "0/6 file(s) ok" in out

    def test_broken_files_not_collected(self):
        names = [p.name for p in cli._corpus_files()]
        assert "prop13_broken.eap" not in names
        assert "prop13.eap" in names

    def test_env_override_with_mutated_file(self, capsys, tmp_path, monkeypatch):
        broken = (CORPUS_DIR / "prop13_broken.eap").read_text(encoding="utf-8")
        (tmp_path / "prop13.eap").write_text(broken, encoding="utf-8")
        monkeypatch.setenv(cli.CORPUS_DIR_ENV, str(tmp_path))
        code, (rep,) = run_json(capsys, "corpus", "--trials", "5")
        assert code == EXIT_STEP
        assert rep["status"] == "step-error"
        assert rep["step"] == "S6"

    def test_vacuous_file(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "vacuous.eap").write_text(VACUOUS_SCRIPT, encoding="utf-8")
        (tmp_path / "prop16.eap").write_text((CORPUS_DIR / "prop16.eap").read_text(encoding="utf-8"),
                                             encoding="utf-8")
        monkeypatch.setenv(cli.CORPUS_DIR_ENV, str(tmp_path))
        code, reports = run_json(capsys, "corpus", "--trials", "1")
        assert code == EXIT_VACUOUS
        assert [(rep["file"], rep["status"]) for rep in reports] == [("prop16.eap", "ok"),
                                                                     ("vacuous.eap", "vacuous")]

    def test_vacuous_ranks_below_failures(self, capsys, tmp_path, monkeypatch):
        # The vacuous file comes first, yet the later parse error sets the code.
        (tmp_path / "a_vacuous.eap").write_text(VACUOUS_SCRIPT, encoding="utf-8")
        (tmp_path / "junk.eap").write_text("not a proof", encoding="utf-8")
        monkeypatch.setenv(cli.CORPUS_DIR_ENV, str(tmp_path))
        code, reports = run_json(capsys, "corpus", "--trials", "1")
        assert code == EXIT_PARSE
        assert [rep["status"] for rep in reports] == ["vacuous", "parse-error"]

    def test_invalid_utf8_is_an_io_error(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "bad.eap").write_bytes(b"vars a;\xff")
        monkeypatch.setenv(cli.CORPUS_DIR_ENV, str(tmp_path))
        code = main(["corpus", "--trials", "1"])
        assert code == EXIT_IO
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize("setup, reason", [
        (lambda path: None, "no such directory"),
        (lambda path: path.mkdir(), "no .eap file to check"),
        (lambda path: path.write_text("vars;", encoding="utf-8"), "not a directory"),
        (lambda path: (path.mkdir(), (path / "prop13_broken.eap").write_text("vars;", encoding="utf-8")),
         "no .eap file to check"),
    ], ids=["missing", "empty", "file", "only-broken"])
    def test_nothing_to_check_is_an_io_error(self, tmp_path, monkeypatch, setup, reason, json_flag):
        root = tmp_path / "corpus"
        setup(root)
        monkeypatch.setenv(cli.CORPUS_DIR_ENV, str(root))
        assert call(["corpus", "--trials", "1", *json_flag]) == (EXIT_IO, "", f"error: {root}: {reason}\n")

    def test_env_override_with_parse_error(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "junk.eap").write_text("not a proof", encoding="utf-8")
        monkeypatch.setenv(cli.CORPUS_DIR_ENV, str(tmp_path))
        code, (rep,) = run_json(capsys, "corpus", "--trials", "5")
        assert code == EXIT_PARSE
        assert rep["status"] == "parse-error"


def script_files() -> list:
    """Every corpus file and every manifest mutation."""
    mdir = CORPUS_DIR / "mutations"
    manifest = json.loads((mdir / "manifest.json").read_text(encoding="utf-8"))
    paths = set(CORPUS_DIR.glob("*.eap")) | {(mdir / e["file"]).resolve() for e in manifest}
    return sorted(paths)


class TestPipeline:
    @pytest.mark.parametrize("path", script_files(), ids=lambda p: p.name)
    def test_commands_agree(self, capsys, tmp_path, monkeypatch, path):
        # corpus runs the script from a one-file directory; the copy's name
        # avoids the "_broken" files corpus skips.
        shutil.copy(path, tmp_path / "script.eap")
        monkeypatch.setenv(cli.CORPUS_DIR_ENV, str(tmp_path))
        runs = [run_json(capsys, "check", str(path)),
                run_json(capsys, "modelcheck", str(path), "--trials", "5"),
                run_json(capsys, "corpus", "--trials", "5")]
        codes = {code for code, _ in runs}
        fields = {tuple(json.dumps(rep[k], sort_keys=True) for k in ("status", "step", "span", "detail"))
                  for _, (rep,) in runs}
        assert len(codes) == 1 and len(fields) == 1, runs

    @pytest.fixture
    def layer_calls(self, monkeypatch):
        calls = collections.Counter()
        for name in ("parse_proof", "check_derivation", "model_check_derivation"):
            def counted(*args, _fn=getattr(cli, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        return calls

    SCRIPTS = {"good": CORPUS_DIR / "prop16.eap", "step-error": CORPUS_DIR / "prop13_broken.eap"}

    @pytest.mark.parametrize("command, argv, calls", [
        ("check", [], {"good": (1, 1, 0), "step-error": (1, 1, 0), "parse-error": (1, 0, 0)}),
        ("modelcheck", ["--trials", "2"], {"good": (1, 1, 1), "step-error": (1, 1, 0), "parse-error": (1, 0, 0)}),
    ])
    def test_layer_calls_per_script(self, capsys, tmp_path, layer_calls, command, argv, calls):
        junk = tmp_path / "junk.eap"
        junk.write_text("not a proof", encoding="utf-8")
        for kind, path in {**self.SCRIPTS, "parse-error": junk}.items():
            layer_calls.clear()
            main([command, str(path), *argv])
            got = tuple(layer_calls[n] for n in ("parse_proof", "check_derivation", "model_check_derivation"))
            assert got == calls[kind], kind
        capsys.readouterr()

    def test_layer_calls_in_corpus(self, capsys, tmp_path, monkeypatch, layer_calls):
        for kind, path in self.SCRIPTS.items():
            shutil.copy(path, tmp_path / f"{kind}.eap")
        (tmp_path / "junk.eap").write_text("not a proof", encoding="utf-8")
        monkeypatch.setenv(cli.CORPUS_DIR_ENV, str(tmp_path))
        assert main(["corpus", "--trials", "2"]) == EXIT_PARSE
        assert layer_calls == {"parse_proof": 3, "check_derivation": 2, "model_check_derivation": 1}
        layer_calls.clear()
        main(["compare", "{R}", "{R}"])
        main(["eval", "{R}"])
        assert not layer_calls
        capsys.readouterr()


class TestCasesNesting:
    @pytest.mark.parametrize("argv", [["check"], ["modelcheck", "--trials", "20"]])
    def test_limit_depth_passes(self, capsys, tmp_path, argv):
        path = tmp_path / "deep.eap"
        path.write_text(nested_cases_script(MAX_CASES_DEPTH), encoding="utf-8")
        code, (rep,) = run_json(capsys, argv[0], str(path), *argv[1:])
        assert (code, rep["status"]) == (EXIT_OK, "ok")
        assert rep["detail"] == {"steps": 1}

    @pytest.mark.parametrize("depth", [MAX_CASES_DEPTH + 1, 600])
    @pytest.mark.parametrize("argv", [["check"], ["modelcheck", "--trials", "20"]])
    def test_deeper_nesting_is_a_parse_error(self, capsys, tmp_path, argv, depth):
        path = tmp_path / "deep.eap"
        path.write_text(nested_cases_script(depth), encoding="utf-8")
        code = main([argv[0], str(path), *argv[1:], "--json"])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE and captured.err == ""
        rep = json.loads(captured.out)
        assert rep["status"] == "parse-error"
        assert rep["detail"] == {"message": f"cases nested deeper than {MAX_CASES_DEPTH} levels"}
        # The first step past the limit is X when the nesting stops right
        # there and K101 otherwise; either sits on line MAX_CASES_DEPTH + 4.
        label = "X" if depth == MAX_CASES_DEPTH + 1 else f"K{MAX_CASES_DEPTH + 1}"
        assert rep["span"] == {"line": MAX_CASES_DEPTH + 4, "column": 1, "length": len(label)}


# 1000 angles with coordinates up to 10**6.  Their exact sum has coordinates
# of about 6000 digits, past the interpreter's default limit of 4300 digits
# for converting an int to text.
_over_rng = random.Random(6)
OVER_LIMIT = multiset(ang(_over_rng.randint(-10**6, 10**6), _over_rng.randint(1, 10**6)) for _ in range(1000))


class TestTooLarge:
    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this interpreter converts ints of any length to text")
    @pytest.mark.parametrize("argv", [["eval", OVER_LIMIT], ["eval", OVER_LIMIT, "--approx"],
                                      ["compare", OVER_LIMIT, "{R}"], ["compare", "{R}", OVER_LIMIT]])
    def test_exits_6_without_traceback(self, capsys, argv):
        rest = sum_multiset(parse_expr(OVER_LIMIT).terms).rest
        assert max(abs(rest.x), rest.y).bit_length() * math.log10(2) > sys.get_int_max_str_digits()
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_TOO_LARGE and captured.err == ""
        assert captured.out.startswith("error: result too large to print")
        code = main([*argv, "--json"])
        captured = capsys.readouterr()
        assert code == EXIT_TOO_LARGE and captured.err == ""
        rep = json.loads(captured.out)
        assert set(rep) == JSON_FIELDS
        assert rep["command"] == argv[0] and rep["status"] == "too-large" and rep["result"] is None
        assert list(rep["detail"]) == ["message"]


# ---------------------------------------------------------------------------
# Fuzzing main(): every call returns a documented exit code and never raises.

EXIT_CODES = {EXIT_OK, EXIT_IO, EXIT_PARSE, EXIT_STEP, EXIT_COUNTEREXAMPLE, EXIT_VACUOUS, EXIT_TOO_LARGE}
STATUS_OF_CODE = {EXIT_OK: "ok", EXIT_PARSE: "parse-error", EXIT_STEP: "step-error",
                  EXIT_COUNTEREXAMPLE: "counterexample", EXIT_VACUOUS: "vacuous", EXIT_TOO_LARGE: "too-large"}


def call(argv):
    """``main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_documented(code, out, err, json_out):
    assert code in EXIT_CODES
    assert "Traceback" not in out + err
    if json_out and code != EXIT_IO:
        for line in out.splitlines():
            assert json.loads(line)["status"] == STATUS_OF_CODE[code]


_coords = st.one_of(st.integers(-40, 40), st.integers(-10**6, 10**6), st.integers(-10**90, 10**90))
_terms = st.one_of(st.sampled_from(["R", "a", "ang", "_"]),
                   st.builds("ang({}/{})".format, _coords, _coords))
_exprs = st.lists(_terms, max_size=8).map(lambda ts: "{" + ", ".join(ts) + "}")
_noise = st.text(alphabet="{}(),/;:#-_ \n\t0123456789angRx\u00b2\u0663", max_size=12)
_operands = st.one_of(
    _exprs,
    _noise,
    st.builds(lambda e, i, n: e[:i % (len(e) + 1)] + n + e[i % (len(e) + 1):], _exprs, st.integers(0, 200), _noise),
)


@settings(max_examples=120, deadline=None)
@example(command="eval", lhs=OVER_LIMIT, rhs="", json_out=False)
@example(command="compare", lhs="{R}", rhs=OVER_LIMIT, json_out=True)
@given(command=st.sampled_from(["eval", "compare"]), lhs=_operands, rhs=_operands, json_out=st.booleans())
def test_fuzz_expression_commands(command, lhs, rhs, json_out):
    operands = [lhs, rhs] if command == "compare" else [lhs]
    json_flag = ["--json"] if json_out else []
    assert_documented(*call([command, *json_flag, "--", *operands]), json_out)


_SCRIPT_TEXTS = [p.read_text(encoding="utf-8") for p in script_files()]


@st.composite
def corrupted_scripts(draw):
    """A corpus or mutation script with up to three slices replaced by noise,
    by nothing, or by another slice of the same script."""
    text = draw(st.sampled_from(_SCRIPT_TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 30)))
        k = draw(st.integers(0, len(text)))
        patch = draw(st.one_of(st.just(""), _noise, st.just(text[k:k + 40])))
        text = text[:i] + patch + text[j:]
    data = text.encode("utf-8")
    if draw(st.booleans()) and draw(st.booleans()):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "script.eap"


@settings(max_examples=120, deadline=None)
@given(data=corrupted_scripts(), modelcheck=st.booleans(), json_out=st.booleans())
def test_fuzz_script_commands(fuzz_path, data, modelcheck, json_out):
    fuzz_path.write_bytes(data)
    argv = ["modelcheck", str(fuzz_path), "--trials", "5"] if modelcheck else ["check", str(fuzz_path)]
    assert_documented(*call(argv + (["--json"] if json_out else [])), json_out)


# ---------------------------------------------------------------------------
# Exact output of the paths that report no result, recorded before every
# report was rendered in main().

_DEGENERATE = "degenerate angle literal: the argument is not strictly between 0 and pi"
_REPORT_TAIL = ('"elapsed_ms": null, "file": null, "result": null, "satisfied": null, "span": {span}, '
                '"status": "parse-error", "step": null, "trials": null, "valuation": null}}')

# operand -> (human line, JSON report with COMMAND standing for the command name)
REJECTED_OPERANDS = {
    "{ang(3/-4)}": (f"parse error at 1:2: {_DEGENERATE}",
                    f'{{"command": "COMMAND", "detail": {{"message": "{_DEGENERATE}"}}, '
                    + _REPORT_TAIL.format(span='{"column": 2, "length": 9, "line": 1}')),
    "{R} {": ("parse error at 1:5: unexpected '{' after the expression",
              '{"command": "COMMAND", "detail": {"message": "unexpected \'{\' after the expression"}, '
              + _REPORT_TAIL.format(span='{"column": 5, "length": 1, "line": 1}')),
    "{x}": ("error: variable 'x' is not allowed here",
            '{"command": "COMMAND", "detail": {"message": "variable \'x\' in a literal-only expression"}, '
            + _REPORT_TAIL.format(span="null")),
}


class TestRejectedOutput:
    @pytest.mark.parametrize("operand", sorted(REJECTED_OPERANDS))
    @pytest.mark.parametrize("place", ["eval", "compare-lhs", "compare-rhs"])
    def test_eval_and_compare(self, operand, place):
        argv = {"eval": ["eval", operand], "compare-lhs": ["compare", operand, "{R}"],
                "compare-rhs": ["compare", "{R}", operand]}[place]
        line, report = REJECTED_OPERANDS[operand]
        code, out, err = call(argv)
        assert (code, err) == (EXIT_PARSE, "")
        human, elapsed = out.split("\n", 1)
        assert human == line
        assert elapsed.startswith("elapsed: ") and elapsed.endswith(" ms\n") and elapsed.count("\n") == 1
        assert call([*argv, "--json"]) == (EXIT_PARSE, report.replace("COMMAND", argv[0]) + "\n", "")

    @pytest.mark.parametrize("operand", [*sorted(REJECTED_OPERANDS), "{R} # a comment", "{R, ang(1/2), a}"])
    def test_literal_pass_runs_once_per_operand(self, operand, monkeypatch):
        # An operand the split reader turns down goes to the token parser
        # alone, not through parse_expr, which would run the reader again.
        calls = []
        literal_counts = dsl._literal_counts

        def counted(text):
            calls.append(text)
            return literal_counts(text)

        monkeypatch.setattr(dsl, "_literal_counts", counted)
        monkeypatch.setattr(cli, "_literal_counts", counted)
        call(["eval", operand, "--json"])
        assert calls == [operand]
        calls.clear()
        call(["compare", "{R}", operand, "--json"])
        assert calls == ["{R}", operand]

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize("command", ["check", "modelcheck"])
    def test_missing_file(self, tmp_path, command, json_flag):
        missing = tmp_path / "missing.eap"
        code, out, err = call([command, str(missing), *json_flag])
        assert (code, out) == (EXIT_IO, "")
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
        assert str(missing) in err


# ---------------------------------------------------------------------------
# Exact ``eval --json`` and ``compare --json`` output for literal operands,
# recorded while the token parser read every operand: large, spread over
# lines, and rejected ones.

_big_rng = random.Random(10)
BIG_OPERAND = [random_angle(_big_rng, 20) for _ in range(13000)]
MULTILINE = "\r\n{ ANG( 3 / 4 ),\n\tAng(-0/\n007)\n, R ,ang(0/7) ,\n aNg ( -12 / 8 )\n}\n"
DIGITS_4400 = "7" * 4400

# name -> (argv without --json, exit code, sha256 of the output)
LITERAL_GOLDEN = {
    "eval-13000": (["eval", multiset(BIG_OPERAND)], EXIT_OK,
                   "b578f97bd38a3ad5770420121ed75f1441007e7403ae6f893b24f928439646d2"),
    "compare-13000": (["compare", multiset(BIG_OPERAND[:6500]), multiset(BIG_OPERAND[6500:])], EXIT_OK,
                      "46c100e028ceb2c05c6458e71425aadaa71dd8293c7f20c4f079a176c204d8a1"),
    "eval-multiline": (["eval", MULTILINE], EXIT_OK,
                       "8d8b2563871a6bad9bd19263339751032270188da178b9de729f6b887d1b3c06"),
    "compare-multiline": (["compare", MULTILINE, "{ R\n,\tR }"], EXIT_OK,
                          "df96738618c9d60e88ec5e4f452a5efc9774b22cae96b31aa56a901cd09b678f"),
    "compare-comment": (["compare", "{R, # comment\n ang(1/2)}", "{ang(-1/1)}"], EXIT_OK,
                        "36e6ba474035a76af4189e522f70a90bfecc2036fe4522e8dd264c61a7dee8b6"),
    "eval-degenerate-zero": (["eval", "{R, ang(1/0)}"], EXIT_PARSE,
                             "cefbe115f140c27aa96098680cf5a1993f3fc19fc1652f882b95d6d92ca22a45"),
    "eval-degenerate-negative": (["eval", "{\nang(2/-1)}"], EXIT_PARSE,
                                 "4e5370d7f13aca1ad4eb083b0c604c35fb65bd6225c191d3ae39b3a3ea4274de"),
    "compare-degenerate-rhs": (["compare", "{R}", "{ang(1/\n0)}"], EXIT_PARSE,
                               "c3679abd3e1029938f8e20ae212337910a3777dc2159336c656f582bc2ba1d8b"),
    "eval-4400-digits": (["eval", f"{{R, ang(1/{DIGITS_4400})}}"], EXIT_PARSE,
                         "c54b522400c9e922c085c395e3505b9eb3301fb3f65ac38e1da94d749df47bcd"),
    "eval-arabic-digit": (["eval", "{ang(٣/4)}"], EXIT_PARSE,
                          "725e809c2cd8bae240665385142474ad73d59c5348a436b0009b20f21b927877"),
    "eval-trailing-junk": (["eval", "{R} junk"], EXIT_PARSE,
                           "51420b435dde5983e989e8887ec2efa1b58951bdc219b346003bef0c250b8e6d"),
    "eval-variable-Rx": (["eval", "{R, Rx}"], EXIT_PARSE,
                         "07de8a4e817c08eb60ad3cd4ba326bb91201c03bc63c35e73f7ffe02df070489"),
    "compare-variable-r": (["compare", "{r}", "{R}"], EXIT_PARSE,
                           "6eebff86fd318b2501f843d924f578eb56e4180a56f93bbb1632f9703d84f89c"),
}


@pytest.mark.parametrize("name", sorted(LITERAL_GOLDEN))
def test_literal_operand_json_matches_golden(name):
    argv, expected_code, digest = LITERAL_GOLDEN[name]
    code, out, err = call([*argv, "--json"])
    assert (code, err) == (expected_code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# Output the reader cannot take: a pipe closed before the first write, and a
# stdout encoding without the characters of a line.  The command runs in a
# child interpreter, where stdout is a real file.

def spawn(argv, stdout=subprocess.PIPE, cwd=None, **env) -> subprocess.CompletedProcess:
    """``python -m eukleia`` with ``argv`` in a child interpreter, which
    finds the package by an absolute path and sees ``env`` on top of this
    environment, PYTHONUNBUFFERED removed."""
    environ = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    src = str(CORPUS_DIR.parent.parent)
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "eukleia", *argv], stdout=stdout, stderr=subprocess.PIPE,
                          cwd=cwd, env={**environ, **env}, timeout=120)


class TestOutputCannotRaise:
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
    @pytest.mark.parametrize("buffering", [{}, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"])
    def test_closed_pipe_keeps_the_exit_code(self, json_flag, buffering):
        read, write = os.pipe()
        os.close(read)  # no reader: every write to the pipe fails
        try:
            done = spawn(["corpus", "--trials", "5", *json_flag], stdout=write, **buffering)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (EXIT_OK, b"")

    @pytest.mark.parametrize("name, text, code, first", [
        ("squared.eap", "vars \u00b2;\n", EXIT_PARSE, "parse error at 1:6: unexpected character '\\xb2'"),
        ("ok_\u00e9.eap", "vars a;\nS1: Eq {a} {a} by eqrefl;\n", EXIT_OK, "ok: ok_\\xe9.eap (1 steps)"),
    ], ids=["message", "file-name"])
    def test_unencodable_line_is_escaped(self, tmp_path, name, text, code, first):
        (tmp_path / name).write_text(text, encoding="utf-8")
        done = spawn(["check", name], cwd=tmp_path, PYTHONIOENCODING="ascii")
        assert (done.returncode, done.stderr) == (code, b"")
        assert done.stdout.decode("ascii").splitlines()[0] == first


# ---------------------------------------------------------------------------
# The documented contract: README's exit-code table, status list and JSON
# field list are the tables the CLI derives its exit codes and reports from.

README = (CORPUS_DIR.parent.parent.parent / "README.md").read_text(encoding="utf-8")


def _readme_list(lead: str) -> list[str]:
    """The backquoted names in the README sentence part that follows ``lead``."""
    match = re.search(re.escape(lead) + r"(.*?)\.\s", README, re.S)
    assert match, lead
    return re.findall(r"`([^`]+)`", match.group(1))


class TestReadmeContract:
    def test_exit_code_table(self):
        rows = re.findall(r"^\| ([0-9]+) +\| (`[a-z-]+`|-) \|", README, re.M)
        documented = {int(code): status.strip("`") for code, status in rows}
        assert documented == {EXIT_IO: "-", **{code: status for status, code in cli._EXIT_CODES.items()}}
        assert len(rows) == len(documented)  # one row per code

    def test_status_list(self):
        assert _readme_list("`status` is one of") == list(cli._EXIT_CODES)

    def test_json_fields(self):
        assert _readme_list("with the fields") == list(cli._FIELDS)
        assert set(cli._FIELDS) == JSON_FIELDS


def _readme_block(heading: str, language: str) -> str:
    """The first fenced ``language`` block in the README section under ``heading``."""
    match = re.search(f"^## {heading}\n.*?^```{language}\n(.*?)^```", README, re.M | re.S)
    assert match, heading
    return match.group(1)


# Each "# ..." comment after a printed value or a command shows what it
# prints: the value itself, or the value and then ", " or blanks and a note.
def _shows(comment: str, printed: str) -> bool:
    return comment == printed or comment.startswith((printed + ", ", printed + " "))


class TestReadmeExamples:
    def test_library_use(self, capsys, monkeypatch):
        monkeypatch.chdir(CORPUS_DIR.parent.parent.parent)  # the block opens a corpus file by its path from there
        block = _readme_block("Library use", "python")
        namespace: dict = {}
        exec(block, namespace)
        printed = capsys.readouterr().out.splitlines()
        shown = re.findall(r"^print\(.*?\) *# (.+)$", block, re.M)
        assert len(shown) == 5
        assert all(_shows(comment, value) for comment, value in zip(shown, printed)), (shown, printed)
        assert re.search(r"^# add_two\(R, R\) raises AngleOverflow\b", block, re.M)
        with pytest.raises(namespace["AngleOverflow"]):
            namespace["add_two"](namespace["R"], namespace["R"])
        (claim,) = re.findall(r"`(parse_expr\(.*?\)\.terms == .*?)`", README)
        assert eval(claim, namespace) is True

    def test_command_line(self, capsys):
        shown = []
        for line in _readme_block("Command line", "sh").splitlines():
            command, _, comment = line.partition("#")
            argv = shlex.split(command)[1:]
            if argv[0] in ("eval", "compare") and not any(arg.startswith("--") for arg in argv):
                code, out = run(capsys, *argv)
                assert code == EXIT_OK
                shown.append((argv[0], comment.strip(), out.splitlines()[0]))
        assert [command for command, _, _ in shown] == ["eval", "compare"]
        assert all(_shows(comment, first) for _, comment, first in shown), shown


# sha256 of stdout for ``--help`` and of stderr for two usage errors, with
# COLUMNS=80, recorded before ``--json`` was added to every subcommand in one
# loop; argparse's layout is the running interpreter's (Python 3.11 here).
HELP_GOLDEN = {
    "eukleia": (["--help"], 0, "3aa909f8bd09fa6c8ae8bc90272a8362076fa9e9e5ee6223cc460f4e98c78a4a"),
    "check": (["check", "--help"], 0, "b118e4141f1ad61017f1f782b10e9f9704768c6bd2c9900991ae6354e2b9a573"),
    "compare": (["compare", "--help"], 0, "0c2551512277e473a10b2b2ab7c5fe766e004ec5cd6b12280fbdfd23299f75ae"),
    "eval": (["eval", "--help"], 0, "4d5eba65240ea436287b1060d026237c77adb4bbe781bf0a7f72a774bd0fc72c"),
    "modelcheck": (["modelcheck", "--help"], 0, "4aaace2b4e5d82e864372cdfd0ffd2bc69e69c2ef5f47b148da7d24f44c5f6c5"),
    "corpus": (["corpus", "--help"], 0, "c57e2509520bee46e9a7449ed60447759b1b6717589ac5df13ae851310645ce9"),
    "negative-trials": (["modelcheck", "x.eap", "--trials", "-5"], 2,
                        "c6979b17b03d837cf53c10253bf2dd837e6efca71672892c15cd2a2b6f22f2f1"),
    "missing-operand": (["eval"], 2, "4e1a6110685f882b65da61a18bfcfc8a4e2fcf517cd500ddd73ba318160478af"),
}


@pytest.mark.parametrize("name", sorted(HELP_GOLDEN))
def test_help_and_usage_errors_match_golden(monkeypatch, name):
    argv, expected_code, digest = HELP_GOLDEN[name]
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == expected_code
    shown, silent = (out, err) if expected_code == 0 else (err, out)
    assert silent.getvalue() == ""
    assert hashlib.sha256(shown.getvalue().encode()).hexdigest() == digest
