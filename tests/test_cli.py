import dataclasses
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import braidket
import braidket.braid
import braidket.cli
import braidket.diagram
import braidket.qsim
import braidket.tl
import braidket.unitary3
import braidket.verify
from braidket import (
    DELTA,
    BraidWord,
    bracket_via_trace,
    closure_to_diagram,
    diagram_to_json,
    evolve,
    parse_braid,
    rho_unitary,
    sample_shots,
    unitary_generators,
)
from braidket.cli import main
from braidket.errors import InvariantError, ParseError
from braidket.tl import diagram_table

TREFOIL_PD = {
    "crossings": [
        {"slots": [1, 4, 2, 5], "sign": -1},
        {"slots": [3, 6, 4, 1], "sign": -1},
        {"slots": [5, 2, 6, 3], "sign": -1},
    ],
    "free_loops": 0,
}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBracketCommand:
    def test_trefoil(self, capsys):
        code, out, _ = run_cli(capsys, ["bracket", "--strands", "2", "--word", "1 1 1"])
        assert code == 0
        assert out == "-A^5 - A^-3 + A^-7\n"

    def test_unknot(self, capsys):
        code, out, _ = run_cli(capsys, ["bracket", "--strands", "1", "--word", ""])
        assert code == 0
        assert out == "1\n"

    def test_check_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bracket", "--strands", "3", "--word", "1 -2 1", "--check"]
        )
        assert code == 0

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bracket", "--strands", "2", "--word", "1 1 1", "--json"]
        )
        assert code == 0
        assert json.loads(out) == {"bracket": [[5, -1, 0], [-3, -1, 0], [-7, 1, 0]]}

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, ["bracket", "--strands", "3", "--word", "3"])
        assert code == 1
        assert "token 1" in err

    def test_requires_one_source(self, capsys):
        code, _, err = run_cli(capsys, ["bracket", "--strands", "2"])
        assert code == 1
        assert "input source" in err

    def test_pd_file_input(self, capsys, tmp_path):
        path = tmp_path / "trefoil.json"
        path.write_text(json.dumps(TREFOIL_PD))
        code, out, _ = run_cli(capsys, ["bracket", "--pd", str(path)])
        assert code == 0
        assert out == "A^7 - A^3 - A^-5\n"

    @staticmethod
    def _count_calls(monkeypatch):
        """Count calls to the contraction and to the 2^N state walk."""
        calls = {"bracket_by_contraction": 0, "enumerate_states": 0}
        for module, name in (
            (braidket.cli, "bracket_by_contraction"),
            (braidket.diagram, "enumerate_states"),
        ):
            original = getattr(module, name)

            def counted(diagram, original=original, name=name):
                calls[name] += 1
                return original(diagram)

            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("verb", ["bracket", "jones"])
    def test_pd_input_contracts_once_and_enumerates_no_states(
        self, capsys, tmp_path, monkeypatch, verb
    ):
        calls = self._count_calls(monkeypatch)
        path = tmp_path / "trefoil.json"
        path.write_text(json.dumps(TREFOIL_PD))
        code, _, _ = run_cli(capsys, [verb, "--pd", str(path)])
        assert code == 0
        assert calls == {"bracket_by_contraction": 1, "enumerate_states": 0}

    @pytest.mark.parametrize("verb", ["bracket", "jones"])
    def test_pd_check_runs_both_paths_once(self, capsys, tmp_path, monkeypatch, verb):
        path = tmp_path / "trefoil.json"
        path.write_text(json.dumps(TREFOIL_PD))
        _, plain, _ = run_cli(capsys, [verb, "--pd", str(path)])
        calls = self._count_calls(monkeypatch)
        code, out, err = run_cli(capsys, [verb, "--pd", str(path), "--check"])
        assert (code, out, err) == (0, plain, "")
        assert calls == {"bracket_by_contraction": 1, "enumerate_states": 1}

    def test_pd_check_mismatch_exit_code(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(braidket.cli, "bracket_by_contraction", lambda diagram: DELTA)
        path = tmp_path / "trefoil.json"
        path.write_text(json.dumps(TREFOIL_PD))
        code, out, _ = run_cli(capsys, ["bracket", "--pd", str(path)])
        assert (code, out) == (0, f"{DELTA}\n")
        code, out, err = run_cli(capsys, ["bracket", "--pd", str(path), "--check"])
        assert (code, out) == (3, "")
        assert "disagrees with contracted bracket" in err

    def test_empty_pd_diagram_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"crossings": []}))
        for verb in ("bracket", "jones"):
            code, out, err = run_cli(capsys, [verb, "--pd", str(path)])
            assert (code, out) == (1, "")
            assert "empty" in err

    def test_non_planar_pd_code_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "non_planar.json"
        path.write_text(json.dumps({"crossings": [{"slots": [1, 2, 1, 2], "sign": 1}]}))
        for verb in ("bracket", "jones"):
            code, out, err = run_cli(capsys, [verb, "--pd", str(path)])
            assert (code, out) == (1, "")
            assert "not planar" in err

    @pytest.mark.parametrize(
        "crossing, free_loops",
        [
            ({"slots": [1, 1, 2, 2], "sign": 1.7}, 0),
            ({"slots": [1, 1, 2, 2], "sign": True}, 0),
            ({"slots": [1, 1, 2, "2"], "sign": 1}, 0),
            ({"slots": [1, 1, 2, 2], "sign": 1}, 1.0),
        ],
        ids=["float", "bool", "string", "float-free-loops"],
    )
    def test_non_integer_pd_field_is_a_parse_error(self, capsys, tmp_path, crossing, free_loops):
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"crossings": [crossing], "free_loops": free_loops}))
        for verb in ("bracket", "jones"):
            code, out, err = run_cli(capsys, [verb, "--pd", str(path)])
            assert (code, out) == (1, "")
            assert "is not a JSON integer" in err

    def test_successive_calls_keep_their_own_flags(self, capsys, tmp_path):
        path = tmp_path / "trefoil.json"
        path.write_text(json.dumps(TREFOIL_PD))
        trefoil = ["--strands", "2", "--word", "1 1 1"]
        code, out, _ = run_cli(capsys, ["bracket", *trefoil, "--json"])
        assert (code, json.loads(out)) == (0, {"bracket": [[5, -1, 0], [-3, -1, 0], [-7, 1, 0]]})
        code, out, _ = run_cli(capsys, ["bracket", *trefoil])
        assert (code, out) == (0, "-A^5 - A^-3 + A^-7\n")
        code, out, _ = run_cli(capsys, ["jones", "--pd", str(path)])
        assert code == 0
        assert out.splitlines() == [
            "bracket: A^7 - A^3 - A^-5",
            "writhe: -3",
            "f: -A^16 + A^12 + A^4",
            "V: -t^-4 + t^-3 + t^-1",
        ]

    def test_unreadable_pd_file_is_a_parse_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, ["bracket", "--pd", str(tmp_path / "missing.json")])
        assert (code, out) == (1, "")
        assert "cannot read PD file" in err

    def test_pd_file_that_is_not_json_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{crossings: [")
        code, out, err = run_cli(capsys, ["bracket", "--pd", str(path)])
        assert (code, out) == (1, "")
        assert "not valid JSON" in err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="no limit on the digits of an int read from text",
    )
    def test_pd_integer_past_the_digit_limit_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        path.write_text('{"crossings": [], "free_loops": ' + digits + "}")
        code, out, err = run_cli(capsys, ["jones", "--pd", str(path)])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: PD file is not valid JSON: Exceeds the limit")

    def test_deeply_nested_pd_json_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run_cli(capsys, ["bracket", "--pd", str(path)])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_pd_file_that_is_not_utf8_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(ParseError, match="^PD file is not valid UTF-8: 'utf-8' codec"):
            braidket.cli._read_diagram(str(path))
        code, out, err = run_cli(capsys, ["bracket", "--pd", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: PD file is not valid UTF-8: 'utf-8' codec can't decode byte 0xff")

    def test_pd_path_with_a_nul_byte_is_a_parse_error(self, capsys, tmp_path):
        path = str(tmp_path / "trefoil\0.json")
        with pytest.raises(ParseError, match="^cannot read PD file: embedded null byte$"):
            braidket.cli._read_diagram(path)
        code, out, err = run_cli(capsys, ["jones", "--pd", path])
        assert (code, out, err) == (1, "", "error: cannot read PD file: embedded null byte\n")

    def test_word_without_strands_is_a_parse_error(self, capsys):
        code, out, err = run_cli(capsys, ["bracket", "--word", "1 1 1"])
        assert (code, out) == (1, "")
        assert "--word requires --strands" in err

    def test_internal_check_failure_exit_code(self, capsys, monkeypatch):
        def broken(word):
            raise InvariantError("planted internal check failure")

        monkeypatch.setattr(braidket.cli, "closure_bracket", broken)
        code, out, err = run_cli(capsys, ["bracket", "--strands", "2", "--word", "1 1 1"])
        assert (code, out) == (3, "")
        assert "internal check failed" in err

    def test_a_diagram_closing_to_no_loop_is_an_internal_error(self, capsys, monkeypatch):
        # Every closure of a TL diagram has a loop, so the trace sums the
        # bracket without dividing by delta and checks that instead.
        closure_loops = braidket.tl.DiagramTable.closure_loops

        def spy(table, d):
            return 0 if d == table.identity else closure_loops(table, d)

        monkeypatch.setattr(braidket.tl.DiagramTable, "closure_loops", spy)
        with pytest.raises(InvariantError, match="closes to no loop"):
            bracket_via_trace(BraidWord(3, (1, 2)))
        code, out, err = run_cli(capsys, ["bracket", "--strands", "3", "--word", "1 2"])
        assert (code, out) == (3, "")
        assert err.startswith("internal check failed: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "strands, word, engine, patched",
        [
            (3, "1 -2 1", "trace", "bracket_via_trace"),
            # The closure of (sigma_1 ... sigma_4)^2 sweeps at most 4 open ends.
            (5, "1 2 3 4 1 2 3 4", "contracted", "_contract"),
        ],
    )
    def test_check_mismatch_names_the_engine(self, capsys, monkeypatch, strands, word, engine, patched):
        assert braidket.braid.closure_bracket(parse_braid(word, strands))[1] == engine
        monkeypatch.setattr(braidket.braid, patched, lambda *args: DELTA)
        argv = ["bracket", "--strands", str(strands), "--word", word]
        code, out, _ = run_cli(capsys, argv)
        assert (code, out) == (0, f"{DELTA}\n")
        code, out, err = run_cli(capsys, argv + ["--check"])
        assert (code, out) == (3, "")
        assert f"disagrees with {engine} bracket {DELTA}" in err

    @pytest.mark.parametrize(
        "strands, word",
        [
            # 32 free loops after _simplify, past the contraction's 28-loop guard.
            (35, "1 2 1"),
            # 30 letters after _simplify, past its 28-crossing guard.
            (7, " ".join(["1 2 3 4 5 6"] * 5)),
        ],
    )
    def test_words_past_a_contraction_guard_print_the_trace(self, capsys, strands, word):
        code, out, err = run_cli(capsys, ["bracket", "--strands", str(strands), "--word", word])
        assert (code, out, err) == (0, f"{bracket_via_trace(parse_braid(word, strands))}\n", "")

    def test_check_on_pd_input_stops_at_the_oracle_guard(self, capsys, tmp_path):
        # 20 crossings are well within the contraction but past the
        # brute-force state sum's 2^N bound, which --check alone pays.
        word = BraidWord(4, (1, -2, 3, 2, -1, 3, -2, 1, 2, -3) * 2)
        path = tmp_path / "twenty.json"
        path.write_text(json.dumps(diagram_to_json(closure_to_diagram(word))))
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, ["bracket", "--pd", str(path)])
        assert code == 0 and out
        code, out, err = run_cli(capsys, ["bracket", "--pd", str(path), "--check"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "20 crossings exceeds the 16-crossing guard" in err

    def test_size_guard_exit_code(self, capsys):
        word = " ".join(["1"] * 29)
        code, _, err = run_cli(capsys, ["bracket", "--strands", "2", "--word", word, "--check"])
        assert code == 2
        assert "crossing" in err

    def test_cancelling_wide_word_stays_small(self, capsys):
        # 1 -1 3 -3 ... 39 -39 closes to the 40-component unlink; the
        # diagrams whose coefficients cancel must not count against the guard.
        word = " ".join(f"{i} -{i}" for i in range(1, 40, 2))
        code, out, _ = run_cli(capsys, ["bracket", "--strands", "40", "--word", word])
        assert code == 0
        assert out == f"{DELTA**39}\n"

    def test_wide_tl_product_exits_at_the_cost_guard(self):
        # 20 commuting letters would double the live TL diagrams 20 times.
        word = " ".join(str(i) for i in range(1, 40, 2))
        src = str(Path(braidket.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = [sys.executable, "-m", "braidket.cli", "bracket", "--strands", "40", "--word", word]
        start = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert time.perf_counter() - start < 5
        assert done.returncode == 2
        assert done.stdout == ""
        assert "cost guard" in done.stderr

    def test_guarded_fold_leaves_no_diagrams_behind(self, capsys):
        word = " ".join(str(i) for i in range(1, 40, 2))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["bracket", "--strands", "40", "--word", word])
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert err == (
            "error: TL product of 20 letters on 40 strands exceeds the 5000000 cost guard "
            "at 32768 live diagrams\n"
        )
        table = diagram_table(40)
        assert table.pairings == [table.pairings[table.identity]]

    @pytest.mark.parametrize("verb", ["bracket", "jones"])
    def test_free_loops_exit_at_the_guard(self, capsys, tmp_path, verb):
        path = tmp_path / "loops.json"
        path.write_text(json.dumps({"crossings": [], "free_loops": 600}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, [verb, "--pd", str(path)])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "") and "free loops" in err

    @pytest.mark.parametrize("verb", ["bracket", "jones"])
    def test_wide_empty_word_exits_at_the_trace_guard(self, capsys, verb):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, [verb, "--strands", "4000", "--word", ""])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            "error: trace of 0 letters on 4000 strands exceeds the 5000000 cost guard "
            "at 4002-bit digits\n"
        )

    def test_huge_empty_word_exits_before_building_a_table(self, capsys, monkeypatch):
        # A table of 10^9 strands would take gigabytes; fail rather than build it.
        def no_table(n):
            raise AssertionError(f"diagram_table({n}) was called")

        monkeypatch.setattr(braidket.braid, "diagram_table", no_table)
        tables = dict(braidket.tl._tables)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["bracket", "--strands", "1000000000", "--word", ""])
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (2, "") and "cost guard" in err
        assert braidket.tl._tables == tables


class TestJonesCommand:
    def test_trefoil_lines(self, capsys):
        code, out, _ = run_cli(capsys, ["jones", "--strands", "2", "--word", "1 1 1"])
        assert code == 0
        assert out.splitlines() == [
            "bracket: -A^5 - A^-3 + A^-7",
            "writhe: 3",
            "f: A^-4 + A^-12 - A^-16",
            "V: t + t^3 - t^4",
        ]

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, ["jones", "--strands", "2", "--word", "1 1 1", "--json"]
        )
        data = json.loads(out)
        assert code == 0
        assert data["writhe"] == 3
        assert data["f"] == [[-4, 1, 0], [-12, 1, 0], [-16, -1, 0]]
        assert data["V"] == [[4, 1, 0], [12, 1, 0], [16, -1, 0]]

    def test_byte_stability(self, capsys):
        first = run_cli(capsys, ["jones", "--strands", "3", "--word", "1 -2 1", "--json"])
        second = run_cli(capsys, ["jones", "--strands", "3", "--word", "1 -2 1", "--json"])
        assert first == second


class TestQsimCommand:
    def test_report_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "qsim",
                "--theta",
                "0.314159",
                "--word",
                "1",
                "--prepare",
                "0",
                "--shots",
                "1000",
                "--seed",
                "42",
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert list(report) == [
            "theta",
            "word",
            "prepare",
            "shots",
            "seed",
            "counts",
            "estimates",
            "exact",
        ]
        # rho(sigma_1) is diagonal and unitary: preparing |0> stays on index 0
        assert report["counts"] == [1000, 0]
        assert report["exact"][0][0] == pytest.approx(1.0)

    def test_identity_evolution(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["qsim", "--theta", "0", "--word", "", "--prepare", "1", "--shots", "10", "--seed", "1"],
        )
        assert code == 0
        assert json.loads(out)["counts"] == [0, 10]

    def test_invalid_angle_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, ["qsim", "--theta", "1.0", "--word", "1", "--shots", "10", "--seed", "1"]
        )
        assert code == 4
        assert "delta^2" in err
        assert "within pi/6 of a multiple of pi/2" in err

    @pytest.mark.parametrize(
        "text, echo",
        [("1 -2 2 -1 1", "1 -2 2 -1 1"), ("+1  01 -2", "1 1 -2"), (" 2\t-1\n", "2 -1")],
    )
    def test_word_field_spells_the_parsed_word(self, capsys, text, echo):
        argv = ["qsim", "--theta", "0.2", "--word", text, "--shots", "10", "--seed", "1"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["word"] == echo == str(parse_braid(text, 3))

    @pytest.mark.parametrize("text", ["1 x 2", "1 2 3", "2 0 -1", "-3"])
    def test_bad_word_prints_the_parse_braid_error(self, capsys, text):
        with pytest.raises(ParseError) as caught:
            parse_braid(text, 3)
        argv = ["qsim", "--theta", "0.2", "--word", text, "--shots", "10"]
        assert run_cli(capsys, argv) == (1, "", f"error: {caught.value}\n")

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_non_finite_angle_exit_code(self, capsys, theta):
        argv = ["qsim", f"--theta={theta}", "--word", "1 2", "--shots", "100"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (4, "")
        assert "not finite" in err

    # 2*theta overflows to inf from 2^1023 on, but theta is still an angle.
    @pytest.mark.parametrize("theta", ["1e308", "-1e308", "1.7976931348623157e308"])
    def test_huge_finite_angle_runs(self, capsys, theta):
        argv = ["qsim", f"--theta={theta}", "--word", "1 2", "--shots", "100", "--seed", "1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["theta"] == float(theta)

    @pytest.mark.parametrize("theta", ["8.98846567431158e307", "-8.98846567431158e307"])
    def test_huge_finite_angle_outside_the_unitary_range(self, capsys, theta):
        argv = ["qsim", f"--theta={theta}", "--word", "1 2", "--shots", "100"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (4, "")
        assert "delta^2 = 0.535163 < 1" in err

    @pytest.mark.parametrize(
        "option, message",
        [("--prepare=2", "--prepare must be 0 or 1"), ("--shots=0", "--shots must be positive")],
    )
    def test_out_of_range_option_is_a_parse_error(self, capsys, option, message):
        code, out, err = run_cli(capsys, ["qsim", "--theta", "0.2", "--word", "1", option])
        assert (code, out) == (1, "")
        assert message in err

    @pytest.mark.parametrize("shots", [2**30 + 1, 2**64 + 1])
    def test_shots_past_the_guard_exit_2_before_sampling(self, capsys, shots):
        argv = ["qsim", "--theta", "0.2", "--word", "1 2 -1", "--shots", str(shots)]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error: {shots} shots exceeds the {2**30}-shot guard\n"

    def test_shot_guard_bound_still_samples(self, capsys, monkeypatch):
        monkeypatch.setattr(braidket.qsim, "MAX_SHOTS", 1000)
        argv = ["qsim", "--theta", "0.2", "--word", "1 2 -1", "--shots"]
        code, out, _ = run_cli(capsys, [*argv, "1000"])
        assert code == 0 and sum(json.loads(out)["counts"]) == 1000
        assert run_cli(capsys, [*argv, "1001"])[:2] == (2, "")

    def test_determinism(self, capsys):
        argv = ["qsim", "--theta", "0.2", "--word", "1 2", "--shots", "500", "--seed", "7"]
        assert run_cli(capsys, argv) == run_cli(capsys, argv)

    @pytest.mark.parametrize("seed, alias", [(3, 3 + 2**64), (-1, 2**64 - 1)])
    def test_seeds_are_taken_mod_2_to_the_64(self, capsys, seed, alias):
        def sample(s):
            argv = ["qsim", "--theta", "0.2", "--word", "1 2 -1", "--shots", "1000", f"--seed={s}"]
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            record = json.loads(out)
            assert record["seed"] == s
            return record["counts"], record["estimates"]

        assert sample(seed) == sample(alias)
        assert sample(seed) != sample(seed + 1)

    def test_counts_are_the_prepared_column(self, capsys):
        argv = ["qsim", "--theta", "0.2", "--word", "2 -1 2", "--prepare", "1"]
        argv += ["--shots", "800", "--seed", "5"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        rho = rho_unitary(parse_braid("2 -1 2", 3), unitary_generators(0.2))
        record = sample_shots(evolve(1, rho), 800, 5 + 1)
        assert json.loads(out)["counts"] == list(record.counts)

    def test_drifted_internal_unitary_is_an_internal_error(self, capsys, monkeypatch):
        def drifted(word, setup):
            return rho_unitary(word, setup) * (1 + 1e-9)

        monkeypatch.setattr(braidket.qsim, "rho_unitary", drifted)
        argv = ["qsim", "--theta", "0.2", "--word", "1 2", "--shots", "100", "--seed", "3"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (3, "")
        assert "internal check failed" in err
        assert "not unitary" in err

    def test_wrong_factor_is_an_internal_error(self, capsys, monkeypatch):
        # The re-projection between blocks must not hide a factor off U(2).
        def wrong(theta):
            setup = unitary_generators(theta)
            factors = setup.factors.copy()
            factors[2] *= 1 + 1e-9
            return dataclasses.replace(setup, factors=factors)

        monkeypatch.setattr(braidket.unitary3, "_BLOCK", 3)
        monkeypatch.setattr(braidket.unitary3, "unitary_generators", wrong)
        argv = ["qsim", "--theta", "0.2", "--word", "1 -1 1 2 -1 1 2", "--shots", "100"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (3, "")
        assert "internal check failed" in err
        assert "not unitary" in err

    # Records the per-letter product printed for seeded words of one, five
    # and twenty blocks (the word field aside). The blocked product keeps
    # every field but `exact`, which moves in the last digits.
    @pytest.mark.parametrize(
        "length, theta, prepare, seed, counts, estimates, exact",
        [
            (
                1000, 0.2, 0, 11, [92040, 7960],
                [[0.9204, 0.08109], [0.0796, 0.91891]],
                [[0.9202484058078017, 0.07975159419216062], [0.07975159419216055, 0.9202484058077789]],
            ),
            (
                5000, -0.37, 1, 12, [1269, 98731],
                [[0.98721, 0.01269], [0.01279, 0.98731]],
                [[0.9872208220643396, 0.012779177935944906], [0.012779177935944422, 0.9872208220643275]],
            ),
            (
                20000, 3.0, 0, 13, [82533, 17467],
                [[0.82533, 0.17733], [0.17467, 0.82267]],
                [[0.8231040361367982, 0.17689596386028397], [0.17689596386030157, 0.8231040361367371]],
            ),
        ],
    )
    def test_long_word_records(self, capsys, length, theta, prepare, seed, counts, estimates, exact):
        rng = random.Random(f"golden:{length}")
        word = " ".join(str(g) for g in rng.choices((1, -1, 2, -2), k=length))
        argv = ["qsim", "--theta", str(theta), "--word", word, "--prepare", str(prepare)]
        argv += ["--shots", "100000", "--seed", str(seed)]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        record = json.loads(out)
        printed = record.pop("exact")
        assert record == {
            "theta": theta,
            "word": word,
            "prepare": prepare,
            "shots": 100000,
            "seed": seed,
            "counts": counts,
            "estimates": estimates,
        }
        gaps = [abs(p - e) for row, want in zip(printed, exact) for p, e in zip(row, want)]
        assert len(gaps) == 4 and max(gaps) <= 1e-11

    # A long word spelled with +1, 01 and full-width digits: each distinct
    # token is converted once, and the report echoes the canonical spelling.
    SPELLINGS = {
        "1": ("1", "+1", "01"),
        "-1": ("-1", "-01"),
        "2": ("2", "\uff12", "+2"),
        "-2": ("-2", "-\uff12"),
    }

    @staticmethod
    def long_tokens(seed):
        rng = random.Random(seed)
        return [rng.choice(("1", "-1", "2", "-2")) for _ in range(9000)]

    def test_long_word_spellings_give_the_canonical_record(self, capsys):
        canonical = self.long_tokens("spellings")
        rng = random.Random("respell")
        text = " ".join(rng.choice(self.SPELLINGS[token]) for token in canonical)
        assert {"+1", "01", "\uff12"} <= set(text.split())
        argv = ["qsim", "--theta", "0.3", "--shots", "1000", "--seed", "5", "--word"]
        code, out, err = run_cli(capsys, [*argv, text])
        assert (code, err) == (0, "")
        assert run_cli(capsys, [*argv, " ".join(canonical)]) == (code, out, err)
        assert json.loads(out)["word"] == " ".join(canonical) == str(parse_braid(text, 3))

    @pytest.mark.parametrize("bad", ["x", "0", "3"])
    def test_bad_token_deep_in_a_long_word(self, capsys, bad):
        tokens = self.long_tokens("deep")
        tokens[5000] = bad
        text = " ".join(tokens)
        with pytest.raises(ParseError) as caught:
            parse_braid(text, 3)
        assert str(caught.value).startswith("token 5001: ")
        argv = ["qsim", "--theta", "0.2", "--word", text, "--shots", "10"]
        assert run_cli(capsys, argv) == (1, "", f"error: {caught.value}\n")

    def test_point_masses_sample_no_shots(self, capsys):
        # rho of the empty word at theta = 0 is the identity, so both columns
        # are point masses and the guard's 2^30 shots cost no draws.
        argv = ["qsim", "--theta", "0", "--word", "", "--shots", str(2**30), "--seed", "1"]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert record["counts"] == [2**30, 0]
        assert record["estimates"] == record["exact"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_negative_theta_in_scientific_notation(self, capsys):
        argv = ["qsim", "--theta=-4.5e-05", "--word", "1 2 -1", "--shots", "100", "--seed", "3"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["theta"] == -4.5e-05


class TestVerifyCommand:
    def test_passes_at_small_n(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--n", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10
        assert all(line.endswith(": pass") for line in lines)

    def test_n5_stdout(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--n", "5"])
        assert code == 0
        assert out == (
            "tl-relations: pass\n"
            "tl-relations-tensor: pass\n"
            "tl-relations-projector: pass\n"
            "braid-relations-tl: pass\n"
            "braid-relations-tensor: pass\n"
            "braid-relations-projector: pass\n"
            "braid-relations-unitary: pass\n"
            "yang-baxter: pass\n"
            "trace-identities: pass\n"
            "cross-representation: pass\n"
        )

    def test_wrong_contraction_fails_cross_representation(self, capsys, monkeypatch):
        contract = braidket.verify.bracket_by_contraction
        monkeypatch.setattr(braidket.verify, "bracket_by_contraction", lambda d: -contract(d))
        code, out, _ = run_cli(capsys, ["verify", "--n", "2"])
        assert code == 5
        assert out.splitlines()[-1].startswith("cross-representation: FAIL (contraction mismatch: ")
        assert out.count("FAIL") == 1

    def test_default_n(self, capsys):
        code, out, _ = run_cli(capsys, ["verify"])
        assert code == 0

    def test_size_guard(self, capsys):
        for n in ("6", "9"):
            code, _, err = run_cli(capsys, ["verify", "--n", n])
            assert code == 2
            assert "n <= 5" in err

    def test_rejects_tiny_n(self, capsys):
        code, _, _ = run_cli(capsys, ["verify", "--n", "1"])
        assert code == 1


def parse_then_run(argv):
    """The oracle for main: the full top-level parse, then the handler."""
    return braidket.cli._run(braidket.cli._parsers()[0].parse_args(argv))


class TestArgv:
    """main hands a known command's tokens straight to its own parser; every
    argv must still give what the full top-level parse gives."""

    TREFOIL = str(Path(__file__).resolve().parent.parent / "examples" / "trefoil_pd.json")
    CORPUS = [
        # The README's command shapes.
        ["bracket", "--strands", "2", "--word", "1 1 1"],
        ["jones", "--strands", "2", "--word", "1 1 1"],
        ["bracket", "--pd", TREFOIL, "--check"],
        ["bracket", "--strands", "3", "--word", "1 -2 1", "--check"],
        ["qsim", "--theta", "0.314159", "--word", "1", "--prepare", "0", "--shots", "100000", "--seed", "42"],
        ["verify", "--n", "4"],
        # --opt=value, abbreviations and repeated flags.
        ["bracket", "--strands=3", "--word=1 -2 1"],
        ["jones", "--strands=2", "--word=-1 -1 -1", "--json"],
        ["qsim", "--theta=-4.5e-05", "--word", "1 2 -1", "--shots", "100", "--seed", "3"],
        ["bracket", "--str", "3", "--wo", "1 2"],
        ["jones", "--st", "2", "--w", "1 1 1", "--j", "--c"],
        ["qsim", "--th", "0.2", "--wo", "1", "--sh", "10", "--se", "1", "--p", "1"],
        ["qsim", "--theta", "0.2", "--word", "1", "--s", "10"],
        ["bracket", "--strands", "2", "--strands", "3", "--word", "1 2"],
        ["jones", "--strands", "2", "--word", "1", "--word", "1 1 1", "--json", "--json"],
        # --, and tokens left over for the top-level parser.
        ["bracket", "--strands", "2", "--word", "1", "--"],
        ["--", "bracket", "--strands", "2", "--word", "1"],
        ["bracket", "--", "--strands", "2"],
        ["bracket", "--strands", "3", "--word", "1", "extra"],
        ["jones", "extra", "--strands", "2", "--word", "1"],
        # Help before and after the command.
        ["-h"],
        ["-h", "bracket"],
        ["bracket", "-h"],
        ["qsim", "--help"],
        ["bracket", "--strands", "2", "-h"],
        # Usage errors.
        [],
        ["nope"],
        ["Bracket", "--strands", "2", "--word", "1"],
        ["bracket", "--nope"],
        ["--nope", "bracket"],
        ["bracket", "--strands", "x", "--word", "1"],
        ["verify", "--n", "2.5"],
        ["bracket", "--strands"],
        ["qsim", "--word", "1"],
        ["qsim", "--theta", "-4.5e-05", "--word", "1"],
        # Errors of the handlers.
        ["bracket", "--strands", "3", "--word", "3"],
        ["verify", "--n", "1"],
    ]

    @staticmethod
    def outcome(capsys, run, argv):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = f"SystemExit({exc.code!r})"
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_main_gives_what_the_full_parse_gives(self, capsys):
        for argv in self.CORPUS:
            expected = self.outcome(capsys, parse_then_run, argv)
            assert self.outcome(capsys, main, argv) == expected, argv
