import os
import subprocess
import sys
from pathlib import Path

import pytest

import fgzeta.cli
import fgzeta.passage
from fgzeta.cli import (MAX_DIMENSION, check_builtin_size,
                        format_matrix_document, main, parse_matrix_document)
from fgzeta.cyclic import DEFAULT_EDGE_BOUND, MAX_CHAIN_LENGTH
from fgzeta.errors import ParseError, ResourceLimitError
from fgzeta.guess import MAX_POWER_WORK, required_order
from fgzeta.families import build_kontsevich, build_two_by_two
from fgzeta.matrix import trace_counts
from fgzeta.passage import WORK_LIMIT
from fgzeta.words import MAX_DOCUMENT_LETTERS, MAX_WORD_LENGTH

from conftest import random_matrix

TWO_BY_TWO_DOC = """\
dim 2
[1,1] = a + a^-1
[1,2] = b
[2,1] = b^-1
[2,2] = d + d^-1
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMatrixDocuments:
    def test_two_by_two_file_matches_builtin(self):
        assert parse_matrix_document(TWO_BY_TWO_DOC) == build_two_by_two()

    def test_kontsevich_file_matches_builtin_up_to_naming(self):
        doc = "dim 1\n[1,1] = x + x^-1\n"
        parsed = parse_matrix_document(doc)
        assert parsed.canonical_form() == build_kontsevich(1).canonical_form()

    def test_index_out_of_range(self):
        with pytest.raises(ParseError, match="outside dim"):
            parse_matrix_document("dim 2\n[1,3] = a\n")

    def test_duplicate_entry(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_matrix_document("dim 1\n[1,1] = a\n[1,1] = b\n")

    def test_syntax_error_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_matrix_document("dim 2\n[1,1] = a\nwhat\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="dim"):
            parse_matrix_document("[1,1] = a\n")
        with pytest.raises(ParseError, match="empty"):
            parse_matrix_document("")

    def test_unassigned_entries_are_zero(self):
        m = parse_matrix_document("dim 2\n[1,2] = a\n")
        assert m.entries[0][0].is_zero()
        assert not m.entries[0][1].is_zero()

    def test_round_trip(self, rng):
        for _ in range(20):
            m = random_matrix(rng)
            assert parse_matrix_document(format_matrix_document(m)) == m


class TestSubcommands:
    def test_an_kontsevich(self, capsys):
        code, out, err = run(capsys, "an", "--builtin", "kontsevich:1",
                             "--order", "4")
        assert code == 0
        assert out == "1: 0\n2: 2\n3: 0\n4: 6\n"
        assert err == ""

    def test_zeta_two_by_two(self, capsys):
        code, out, _ = run(capsys, "zeta", "--builtin", "paper2x2",
                           "--order", "10")
        assert code == 0
        assert out.splitlines() == [
            "0: 1", "1: 0", "2: 3", "3: 0", "4: 12", "5: 0",
            "6: 56", "7: 0", "8: 288", "9: 0", "10: 1584"]

    def test_g_matches_counts(self, capsys):
        code, out, _ = run(capsys, "g", "--builtin", "paper2x2",
                           "--order", "4")
        assert code == 0
        assert out.splitlines() == ["0: 0", "1: 0", "2: 6", "3: 0", "4: 30"]

    def test_euler_verdict_on_builtins_with_defaults(self, capsys):
        for name in ("kontsevich:1", "kontsevich:2", "paper2x2",
                     "paperdxd:3"):
            code, out, _ = run(capsys, "euler", "--builtin", name)
            assert code == 0
            assert out.splitlines()[-1] == "EQUAL to order 6"

    def test_guess_quadratic_certificate_for_g(self, capsys):
        code, out, _ = run(capsys, "guess", "--builtin", "paper2x2",
                           "--target", "g", "--degy", "2", "--degt", "4",
                           "--order", "23")
        assert code == 0
        assert "y^2" in out
        assert out.strip() != "none"

    def test_guess_constant_matrix_gives_geometric_certificate(self, capsys,
                                                               tmp_path):
        doc = tmp_path / "m.txt"
        doc.write_text("dim 1\n[1,1] = 1\n")
        code, out, _ = run(capsys, "guess", "--matrix", str(doc),
                           "--order", "24", "--degt", "1", "--degy", "1")
        assert code == 0
        assert out.strip() == "1 * t^0 * y^0 + -1 * t^0 * y^1 + 1 * t^1 * y^1"

    def test_guess_none_when_bounds_too_tight(self, capsys):
        # the 2x2 zeta needs y-degree 2; linear bounds find nothing
        code, out, _ = run(capsys, "guess", "--builtin", "paper2x2",
                           "--order", "14", "--degt", "1", "--degy", "1")
        assert code == 0
        assert out.strip() == "none"

    def test_guess_with_default_flags(self, capsys):
        # no --order: (degt+1)(degy+1)+8 = 44 for the default bounds 8 and 3
        code, out, err = run(capsys, "guess", "--builtin", "paper2x2")
        assert (code, err) == (0, "")
        assert out == ("-1 * t^0 * y^0 + 9 * t^2 * y^0 + 1 * t^0 * y^1 + "
                       "-12 * t^2 * y^1 + 24 * t^4 * y^1 + 16 * t^6 * y^2\n")

    def test_guess_without_order_runs_at_the_required_order(self, capsys,
                                                            monkeypatch):
        orders = []

        def recording(m, count, max_terms):
            orders.append(count)
            return trace_counts(m, count, max_terms=max_terms)

        monkeypatch.setattr(fgzeta.cli, "trace_counts", recording)
        code, _, err = run(capsys, "guess", "--builtin", "kontsevich:1",
                           "--degt", "2", "--degy", "2")
        assert (code, err) == (0, "")
        assert orders == [required_order(2, 2)]

    def test_verify_accepts_true_certificate(self, capsys):
        poly = ("-1 * t^0 * y^0 + 9 * t^2 * y^0 + 1 * t^0 * y^1 + "
                "-12 * t^2 * y^1 + 24 * t^4 * y^1 + 16 * t^6 * y^2")
        code, out, _ = run(capsys, "verify", "--builtin", "paper2x2",
                           "--order", "12", "--poly", poly)
        assert code == 0
        assert out == "ANNIHILATES to order 12\n"

    def test_verify_generating_series_target(self, capsys):
        poly = ("36 * t^2 * y^0 + -6 * t^0 * y^1 + 36 * t^2 * y^1 + "
                "-1 * t^0 * y^2 + 9 * t^2 * y^2")
        code, out, _ = run(capsys, "verify", "--builtin", "paper2x2",
                           "--target", "g", "--order", "12", "--poly", poly)
        assert code == 0
        assert out == "ANNIHILATES to order 12\n"

    def test_verify_rejects_wrong_polynomial(self, capsys):
        code, out, _ = run(capsys, "verify", "--builtin", "paper2x2",
                           "--order", "8", "--poly", "1 * t^0 * y^1")
        assert code == 0
        assert out.startswith("FAILS at order 0")

    def test_matrix_file_input(self, capsys, tmp_path):
        doc = tmp_path / "m.txt"
        doc.write_text(TWO_BY_TWO_DOC)
        code, out, _ = run(capsys, "an", "--matrix", str(doc), "--order", "4")
        assert code == 0
        assert out == "1: 0\n2: 6\n3: 0\n4: 30\n"


class TestExitCodes:
    def test_parse_error_is_1(self, capsys, tmp_path):
        doc = tmp_path / "bad.txt"
        doc.write_text("dim 2\n[9,9] = a\n")
        code, out, err = run(capsys, "an", "--matrix", str(doc))
        assert code == 1
        assert out == ""
        assert "parse error" in err

    def test_validation_error_is_2(self, capsys):
        code, _, err = run(capsys, "an", "--builtin", "nonsense")
        assert code == 2
        assert "validation error" in err

    @pytest.mark.parametrize("command,flag,name", [
        *[(command, "--order", "order")
          for command in ("an", "g", "zeta", "guess", "verify")],
        ("euler", "--length", "length"),
        ("guess", "--degt", "deg_t"), ("guess", "--degy", "deg_y"),
        *[(command, "--max-terms", "max_terms")
          for command in ("an", "g", "zeta", "euler", "guess", "verify")]])
    def test_nonpositive_flag_is_2(self, capsys, command, flag, name):
        poly = ("--poly", "1 * t^0 * y^0") if command == "verify" else ()
        code, out, err = run(capsys, command, "--builtin", "kontsevich:1",
                             *poly, flag, "0")
        assert code == 2
        assert out == ""
        assert err == f"validation error: {name} must be positive\n"

    def test_negative_degree_bound_is_named_before_the_order(self, capsys):
        # the default order (degt+1)(degy+1)+8 is -8 here
        code, out, err = run(capsys, "guess", "--builtin", "kontsevich:1",
                             "--degt", "-5")
        assert (code, out) == (2, "")
        assert err == "validation error: deg_t must be positive\n"

    def test_euler_refuses_order(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["euler", "--builtin", "kontsevich:1", "--order", "50",
                  "--length", "4"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --order 50" in captured.err

    def test_missing_file_is_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "an", "--matrix",
                           str(tmp_path / "absent.txt"))
        assert code == 2
        assert "validation error" in err

    def test_resource_error_is_3(self, capsys):
        code, _, err = run(capsys, "an", "--builtin", "paper2x2",
                           "--order", "10", "--max-terms", "4")
        assert code == 3
        assert "resource limit" in err
        assert err.endswith("; raise --max-terms or lower the order\n")

    def test_euler_guards_name_the_length(self, capsys, monkeypatch):
        code, out, err = run(capsys, "euler", "--builtin", "kontsevich:1",
                             "--length", "4", "--max-terms", "5")
        assert (code, out) == (3, "")
        assert err.startswith("resource limit: the verdict runs the count "
                              "engine to order 4 (--length): term ceiling 5 ")
        monkeypatch.setattr(fgzeta.passage, "WORK_LIMIT", 1)
        code, out, err = run(capsys, "euler", "--builtin", "kontsevich:1",
                             "--length", "4")
        assert (code, out) == (3, "")
        assert err.startswith("resource limit: the verdict runs the count "
                              "engine to order 4 (--length): ")
        assert "over the work limit 1e+00" in err

    def test_euler_work_limit_names_only_the_length(self, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(fgzeta.passage, "WORK_LIMIT", 1)
        code, out, err = run(capsys, "euler", "--builtin", "kontsevich:1",
                             "--length", "4")
        assert (code, out) == (3, "")
        assert "(--length)" in err
        assert "--order" not in err

    def test_an_work_limit_names_the_order(self, capsys, monkeypatch):
        monkeypatch.setattr(fgzeta.passage, "WORK_LIMIT", 1)
        code, out, err = run(capsys, "an", "--builtin", "kontsevich:1",
                             "--order", "4")
        assert (code, out) == (3, "")
        assert err.startswith("resource limit: the count engine runs to "
                              "order 4 (--order): order 4 has an estimated "
                              "cost of ")
        assert "over the work limit 1e+00" in err

    def test_euler_edge_bound_trips_on_many_letters(self):
        # 400 letters per node: a bound on nodes alone lets the default
        # length run for minutes
        env = dict(os.environ,
                   PYTHONPATH=str(Path(fgzeta.__file__).resolve().parent.parent))
        result = subprocess.run(
            [sys.executable, "-m", "fgzeta", "euler", "--builtin",
             "kontsevich:200"],
            capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr.startswith(
            "resource limit: length 6 (--length) exceeds the enumeration "
            f"bound of {DEFAULT_EDGE_BOUND} closed-chain edges;")

    def test_length_past_the_chain_walk_is_refused(self):
        # the recursive walk ended in a RecursionError traceback
        env = dict(os.environ,
                   PYTHONPATH=str(Path(fgzeta.__file__).resolve().parent.parent))
        result = subprocess.run(
            [sys.executable, "-m", "fgzeta", "euler", "--builtin",
             "kontsevich:1", "--length", "1000"],
            capture_output=True, text=True, env=env, timeout=2)
        assert result.returncode == 3
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert "length 1000 (--length)" in result.stderr
        assert f"MAX_CHAIN_LENGTH = {MAX_CHAIN_LENGTH}" in result.stderr

    def test_huge_order_is_refused_up_front(self, capsys):
        code, out, err = run(capsys, "an", "--builtin", "paperdxd:8",
                             "--order", "1000000")
        assert code == 3
        assert out == ""
        assert "--order" in err and "1000000" in err
        assert f"{WORK_LIMIT:.0e}" in err

    @pytest.mark.parametrize("word", ["a^300000000", "a^" + "9" * 5000,
                                      "a^6000 b a^6000"])
    def test_overlong_word_is_refused_before_expansion(self, capsys, tmp_path,
                                                       word):
        doc = tmp_path / "m.txt"
        doc.write_text(f"dim 1\n[1,1] = {word}\n")
        code, out, err = run(capsys, "an", "--matrix", str(doc))
        assert code == 3
        assert out == ""
        assert "line 2" in err and f"MAX_WORD_LENGTH = {MAX_WORD_LENGTH}" in err

    def test_many_long_words_are_refused_before_the_engine(self, capsys,
                                                           tmp_path):
        # 399 words of 9,999 letters: the engine took 28 s and 1.18 GiB
        terms = " + ".join(f"a^{k + 1} b^{9998 - k}" for k in range(399))
        doc = tmp_path / "m.txt"
        doc.write_text(f"dim 1\n[1,1] = {terms}\n")
        code, out, err = run(capsys, "an", "--order", "2", "--matrix", str(doc))
        assert code == 3
        assert out == ""
        assert "line 2" in err
        assert f"MAX_DOCUMENT_LETTERS = {MAX_DOCUMENT_LETTERS}" in err

    def test_letter_budget_spans_the_whole_document(self):
        # one full-length word per diagonal entry, counted before reduction
        word = f"a^{MAX_WORD_LENGTH // 2} a^-{MAX_WORD_LENGTH // 2}"
        lines = MAX_DOCUMENT_LETTERS // MAX_WORD_LENGTH
        dim = lines + 1

        def document(n):
            return f"dim {dim}\n" + "".join(
                f"[{i},{i}] = {word}\n" for i in range(1, n + 1))

        first = parse_matrix_document(document(lines)).entries[0][0]
        assert first.terms == {(): 1}
        with pytest.raises(ResourceLimitError) as info:
            parse_matrix_document(document(lines + 1))
        assert f"line {lines + 2}:" in str(info.value)

    def test_oversized_dimension_is_refused_before_allocation(self, capsys,
                                                              tmp_path):
        doc = tmp_path / "m.txt"
        doc.write_text("dim 3000\n[1,1] = a\n")
        code, out, err = run(capsys, "an", "--matrix", str(doc))
        assert code == 3
        assert out == ""
        assert "3000" in err and f"MAX_DIMENSION = {MAX_DIMENSION}" in err

    @pytest.mark.parametrize("name,limit", [
        ("kontsevich:100000000", f"MAX_DOCUMENT_LETTERS = {MAX_DOCUMENT_LETTERS}"),
        ("paperdxd:100000", f"MAX_DIMENSION = {MAX_DIMENSION}"),
        ("paperdxd:400", f"MAX_DOCUMENT_LETTERS = {MAX_DOCUMENT_LETTERS}")])
    def test_oversized_builtin_is_refused_before_it_is_built(self, name, limit):
        # building either of the first two ended in a MemoryError traceback
        import fgzeta
        env = dict(os.environ,
                   PYTHONPATH=str(Path(fgzeta.__file__).resolve().parent.parent))
        result = subprocess.run(
            [sys.executable, "-m", "fgzeta", "an", "--builtin", name,
             "--order", "2"],
            capture_output=True, text=True, env=env, timeout=2)
        assert result.returncode == 3
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert name in result.stderr and limit in result.stderr

    def test_largest_builtins_pass_the_size_check(self):
        check_builtin_size(f"kontsevich:{MAX_DOCUMENT_LETTERS // 2}")
        check_builtin_size("paperdxd:316")

    def test_huge_polynomial_y_degree_is_refused_up_front(self, capsys):
        poly = "1 * t^0 * y^100000000"
        code, out, err = run(capsys, "verify", "--builtin", "kontsevich:1",
                             "--order", "10", "--poly", poly)
        assert code == 3
        assert out == ""
        assert "y-degree 100000000 at order 10" in err
        assert f"MAX_POWER_WORK = {MAX_POWER_WORK}" in err
        # g has no constant term, so its powers above the order vanish
        code, out, _ = run(capsys, "verify", "--builtin", "kontsevich:1",
                           "--order", "10", "--target", "g", "--poly", poly)
        assert code == 0
        assert out == "ANNIHILATES to order 10\n"

    def test_overlong_polynomial_number_is_1(self, capsys):
        code, out, err = run(capsys, "verify", "--builtin", "kontsevich:1",
                             "--poly", "1 * t^0 * y^" + "9" * 5000)
        assert code == 1
        assert out == ""
        assert "too long" in err

    @pytest.mark.parametrize("poly", ["0", "1 * t^0 * y^0 + -1 * t^0 * y^0"])
    def test_zero_polynomial_is_2(self, capsys, poly):
        # the zero polynomial annihilates every series and certifies nothing
        code, out, err = run(capsys, "verify", "--builtin", "kontsevich:1",
                             "--poly", poly)
        assert code == 2
        assert out == ""
        assert err == ("validation error: the polynomial is zero, which "
                       "annihilates every series\n")

    def test_insufficient_guess_order_is_2(self, capsys):
        code, _, err = run(capsys, "guess", "--builtin", "paper2x2",
                           "--order", "5")
        assert code == 2
        assert "need order" in err


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        outputs = set()
        for _ in range(2):
            code, out, _ = run(capsys, "zeta", "--builtin", "kontsevich:2",
                               "--order", "6")
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1


class TestSelfcheck:
    def test_passes(self, capsys):
        code, out, err = run(capsys, "selfcheck")
        assert code == 0, err
        assert out.splitlines() == [
            "ok: free group laws",
            "ok: group algebra ring laws and trace symmetry",
            "ok: first-passage counts match the power pipeline",
            "ok: path oracle matches the power pipeline",
            "ok: cycle weights are cyclic",
            "ok: weight sums match trace counts",
            "ok: euler product matches the exp pipeline",
            "ok: series exp/log/sqrt round trips",
            "ok: zeta series of integer matrices are integral",
            "selfcheck passed",
        ]


class TestStartup:
    @pytest.mark.parametrize("module", ["dataclasses", "fgzeta.grammars"])
    def test_cli_import_skips(self, module):
        import fgzeta
        env = dict(os.environ,
                   PYTHONPATH=str(Path(fgzeta.__file__).resolve().parent.parent))
        result = subprocess.run(
            [sys.executable, "-c",
             f"import sys, fgzeta.cli; print({module!r} in sys.modules)"],
            capture_output=True, text=True, env=env, check=True)
        assert result.stdout == "False\n"
