import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from icregions.claims import ALL_CLAIMS
from icregions.cli import UsageError, _parse_alphabets, main
from icregions.dist import AlphabetSpec, Form, SpecError, save_spec, spec_to_json
from icregions.linsys import system_from_json, system_equal
from icregions.polytope import bind, fm_eliminate_numeric
from icregions.regions import build_system
from icregions.sampler import binary_alphabets, sample_spec
from icregions.terms import BASE_SYMBOLS
from test_dist import _JSON_JUNK, _json_slots, degenerate_spec


@pytest.fixture()
def hk2_path(tmp_path):
    p = tmp_path / "hk2.json"
    save_spec(sample_spec(binary_alphabets(), Form.HK2, [81, 0]), p)
    return p


class TestTerms:
    def test_emits_22_entry_map(self, hk2_path, tmp_path):
        out = tmp_path / "terms.json"
        assert main(["terms", "--spec", str(hk2_path), "--out", str(out)]) == 0
        terms = json.loads(out.read_text())
        assert len(terms) == 22
        assert terms["rho1"] <= 1e-12

    def test_invalid_spec_exit_2(self, hk2_path, tmp_path, capsys):
        data = json.loads(hk2_path.read_text())
        data["factors"]["w1_given_q"][0][0] += 0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["terms", "--spec", str(bad), "--out",
                     str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert "w1_given_q" in err and "row (0,)" in err

    def _terms_exit(self, data, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        return main(["terms", "--spec", str(bad), "--out",
                     str(tmp_path / "x.json")])

    def test_non_finite_entry_exit_2(self, hk2_path, tmp_path, capsys):
        data = json.loads(hk2_path.read_text())
        data["factors"]["q"] = [float("nan"), float("nan")]
        assert self._terms_exit(data, tmp_path) == 2
        assert "factor q: non-finite entry at (0,)" in capsys.readouterr().err

    def test_negative_entry_named_by_plain_ints(self, hk2_path, tmp_path, capsys):
        data = json.loads(hk2_path.read_text())
        data["factors"]["q"] = [1e308, -1e308]
        assert self._terms_exit(data, tmp_path) == 2
        assert "factor q: negative entry at (1,)" in capsys.readouterr().err

    @pytest.mark.parametrize("drop,message", [
        (lambda d: d["factors"].pop("w1_given_q"), "factor w1_given_q is missing"),
        (lambda d: d.pop("alphabets"), "alphabet size missing for Q"),
    ], ids=["factor", "alphabets"])
    def test_missing_factor_or_alphabet_exit_2(self, drop, message, hk2_path,
                                               tmp_path, capsys):
        data = json.loads(hk2_path.read_text())
        drop(data)
        assert self._terms_exit(data, tmp_path) == 2
        assert message in capsys.readouterr().err

    def test_unknown_alphabet_exit_2(self, hk2_path, tmp_path, capsys):
        data = json.loads(hk2_path.read_text())
        data["alphabets"]["Z9"] = 2
        assert self._terms_exit(data, tmp_path) == 2
        assert "unknown alphabet 'Z9'" in capsys.readouterr().err

    @pytest.mark.parametrize("path,value,message", [
        (("alphabets", "Q"), "two", "alphabet size for Q must be an integer"),
        (("alphabets", "Q"), 2.5, "alphabet size for Q must be an integer"),
        (("alphabets", "Q"), True, "alphabet size for Q must be an integer"),
        (("factors", "q"), ["a", "b"], "factor q: entries must be probabilities"),
        (("factors", "w1_given_q"), [[0.5, 0.5], [1.0]],
         "factor w1_given_q: nested lists do not form an array"),
        (("form",), 3, "unknown form 3"),
        (("alphabets",), [2] * 9, "alphabets must be a JSON object"),
        (("factors",), [[0.5, 0.5]], "factors must be a JSON object"),
        ((), [], "spec must be a JSON object"),
    ], ids=["size-string", "size-fraction", "size-bool", "factor-strings",
            "factor-ragged", "form-number", "alphabets-list", "factors-list",
            "top-level-list"])
    def test_malformed_json_exit_2(self, path, value, message, hk2_path,
                                   tmp_path, capsys):
        data = json.loads(hk2_path.read_text())
        if path:
            node = data
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        else:
            data = value
        assert self._terms_exit(data, tmp_path) == 2
        assert message in capsys.readouterr().err


class TestRegion:
    def test_vertex_csv(self, hk2_path, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["region", "--spec", str(hk2_path), "--which", "hk",
                     "--emit", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "R1,R2"
        assert lines[1] == "0,0"
        assert len(lines) >= 4

    def test_degenerate_single_vertex(self, tmp_path):
        p = tmp_path / "deg.json"
        save_spec(degenerate_spec(Form.HK2), p)
        out = tmp_path / "v.csv"
        assert main(["region", "--spec", str(p), "--which", "hk",
                     "--emit", str(out)]) == 0
        assert out.read_text() == "R1,R2\n0,0\n"

    def test_form_mismatch_exit_3(self, tmp_path, capsys):
        p = tmp_path / "hod.json"
        save_spec(sample_spec(binary_alphabets(), Form.HOD16, [81, 1]), p)
        assert main(["region", "--spec", str(p), "--which", "hk",
                     "--emit", str(tmp_path / "v.csv")]) == 3
        assert capsys.readouterr().err == (
            "form mismatch: region HK_R does not accept form hod16"
            " (apply independence_projection first)\n")

    @pytest.mark.parametrize("which", ["hk", "cmg", "compact"])
    def test_general1_mismatch_has_no_projection_hint(self, which, tmp_path, capsys):
        p = tmp_path / "general.json"
        save_spec(sample_spec(binary_alphabets(), Form.GENERAL1, [81, 2]), p)
        assert main(["region", "--spec", str(p), "--which", which,
                     "--emit", str(tmp_path / "v.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("form mismatch: ") and err.endswith(
            " does not accept form general1\n")


class TestDerive:
    def test_nine_inequalities(self, tmp_path):
        out = tmp_path / "sys.json"
        assert main(["derive", "--system", "hk", "--axioms", "hk-indep",
                     "--out", str(out)]) == 0
        got = system_from_json(json.loads(out.read_text()))
        eq, diff = system_equal(got, build_system("HK_R"))
        assert eq, diff

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["derive", "--system", "hk", "--bogus", "1",
                  "--out", str(tmp_path / "x.json")])


class TestVerify:
    def test_seed_required(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["verify", "--claim", "hod-extra-terms", "--samples", "2",
                  "--out", str(tmp_path / "r.json")])

    def test_single_claim_pass(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", "--claim", "hod-extra-terms", "--samples", "3",
                     "--seed", "7", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["passed"] == 3 and rep["failed"] == 0

    def test_hard_failure_nonzero_exit(self, tmp_path):
        # the known per-distribution counterexample to the containment claim
        out = tmp_path / "r.json"
        code = main(["verify", "--claim", "cmg-subset-hod", "--samples", "6",
                     "--seed", "7", "--out", str(out)])
        rep = json.loads(out.read_text())
        assert rep["failed"] >= 1
        assert code == 1

    def test_exploratory_claim_never_fails_exit(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", "--claim", "remark2-data", "--samples", "2",
                     "--seed", "7", "--out", str(out)]) == 0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["verify", "--claim", "reduction-independence", "--samples",
                  "3", "--seed", "7", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    # SHA-256 of the full claim report at 20 samples, seed 7, written when a
    # 2-D containment of an unbounded inner was still decided by the LP;
    # exit 1 is criterion 6's standing per-distribution failures.
    VERIFY_ALL_DIGEST = "a3b36066878cf48219f26e66b0834f035a0ad4d996ece0f15ec9884fc5c7f2bd"

    def test_all_claims_report_pinned(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", "--claim", "all", "--samples", "20", "--seed", "7",
                     "--out", str(out)]) == 1
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.VERIFY_ALL_DIGEST


class TestSearch:
    def test_deterministic_result_file(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["search", "--budget", "3", "--restarts", "1",
                         "--seed", "9", "--objective", "sumrate",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        res = json.loads(a.read_text())
        assert res["objective_id"] == "sumrate"
        assert len(res["trace"]) == 3

    # SHA-256 of a sum-rate search file written when the objective was two
    # LP maximisations; the vertex maximum must give the same bytes.
    SUMRATE_DIGEST = "04c7e3b64a27c5e3934f0e340c9ecc98c25bc99f1f32e54ac23bb8022fce6aaa"

    def test_sumrate_result_pinned(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["search", "--budget", "5", "--restarts", "2", "--seed", "9",
                     "--objective", "sumrate", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SUMRATE_DIGEST

    def test_alphabet_parsing(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["search", "--alphabets", "q=1,u=2,w=1,x=2,y=2",
                     "--budget", "2", "--restarts", "1", "--seed", "9",
                     "--out", str(out)]) == 0
        spec = json.loads(out.read_text())["best_spec"]
        assert spec["alphabets"]["Q"] == 1
        assert spec["alphabets"]["U1"] == 2

    def test_larger_alphabets_end_to_end(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["search", "--alphabets", "x=3,y=3,u=3", "--budget", "3",
                     "--restarts", "2", "--seed", "9", "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert len(res["trace"]) == 3
        assert res["best_spec"]["alphabets"] == {
            "Q": 2, "U1": 3, "W1": 2, "U2": 3, "W2": 2, "X1": 3, "X2": 3,
            "Y1": 3, "Y2": 3}
        spec = tmp_path / "best.json"
        spec.write_text(json.dumps(res["best_spec"]))
        terms = tmp_path / "terms.json"
        assert main(["terms", "--spec", str(spec), "--out", str(terms)]) == 0
        assert len(json.loads(terms.read_text())) == 22
        csv = tmp_path / "v.csv"
        assert main(["region", "--spec", str(spec), "--which", "hod",
                     "--emit", str(csv)]) == 0
        assert csv.read_text().splitlines()[:2] == ["R1,R2", "0,0"]


class TestUsageErrors:
    @pytest.mark.parametrize("alphabets,message", [
        ("q=two", "bad alphabet item 'q=two'"),
        ("q=2.5", "bad alphabet item 'q=2.5'"),
        ("q", "bad alphabet item 'q'"),
        ("zz=2", "unknown alphabet name 'ZZ'"),
    ])
    def test_bad_alphabets_exit_2(self, alphabets, message, tmp_path, capsys):
        assert main(["search", "--alphabets", alphabets, "--seed", "1",
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err
        assert err.count("\n") == 1

    def test_zero_size_is_an_invalid_spec(self, tmp_path, capsys):
        assert main(["search", "--alphabets", "q=0", "--seed", "1",
                     "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            "invalid spec: alphabet size for Q must be >= 1\n")

    def test_oversized_alphabets_refused_before_drawing(self, tmp_path, capsys):
        # the 1000^4-entry channel table alone would need 7.28 TiB
        assert main(["search", "--alphabets", "x=1000,y=1000", "--seed", "1",
                     "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            "invalid spec: joint tensor would exceed the 1e8 entry limit\n")

    def test_unknown_eliminated_variable_exit_2(self, tmp_path, capsys):
        from icregions.linsys import system_to_json

        sys_path, terms_path = tmp_path / "sys.json", tmp_path / "terms.json"
        sys_path.write_text(json.dumps(system_to_json(build_system("HK_Q"))))
        terms_path.write_text(json.dumps(TestProject.DYADIC_TERMS))
        assert main(["project", "--system", str(sys_path), "--terms", str(terms_path),
                     "--eliminate", "T1,Z9", "--out", str(tmp_path / "p.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: variable 'Z9' not in system dims")
        assert err.count("\n") == 1

    def test_unknown_variable_message_is_the_library_s(self, tmp_path, capsys):
        doc = {"rate_vars": ["R1", "R2"],
               "inequalities": [{"lhs": {"R1": 1, "R2": 1}, "rhs": {}, "const": 1}]}
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(json.dumps(doc))
        assert main(["project", "--system", str(sys_path), "--eliminate", "Z9",
                     "--out", str(tmp_path / "p.json")]) == 2
        with pytest.raises(ValueError) as exc:
            fm_eliminate_numeric(bind(system_from_json(doc), {}), "Z9")
        assert capsys.readouterr().err == f"usage error: {exc.value}\n"

    # The parser is fuzzed alone, not `search`, so no large alphabet is sampled.
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(max_size=30),
        st.lists(st.tuples(st.sampled_from(["q", "u", "W", "x1", "Y2", "z", ""]),
                           st.sampled_from(["=", "", "=="]),
                           st.sampled_from(["0", "1", "9", "-2", "2.5", "two", "",
                                            " 3", "1_0"])),
                 min_size=1, max_size=4)
        .map(lambda items: ",".join("".join(item) for item in items))))
    def test_alphabet_parser_parses_or_raises_usage_error(self, text):
        try:
            alphabets = _parse_alphabets(text)
        except (UsageError, SpecError):  # both exit 2 in main
            return
        assert isinstance(alphabets, AlphabetSpec)


class TestProject:
    def test_quadruple_projection_matches_pair_region(self, hk2_path, tmp_path):
        from icregions.linsys import system_to_json
        from icregions.polytope import bind, poly_equal, snap_terms
        from icregions.regions import build_system as bs
        from icregions.dist import build_joint, load_spec
        from icregions.terms import eval_terms
        from icregions.cli import _poly_json  # round-trip check below
        from fractions import Fraction

        terms_path = tmp_path / "terms.json"
        main(["terms", "--spec", str(hk2_path), "--out", str(terms_path)])
        sys_path = tmp_path / "quad.json"
        quad = bs("HK_Q")
        sys_path.write_text(json.dumps(system_to_json(quad)))
        out = tmp_path / "proj.json"
        # substitute_rate_sums is symbolic-only, so project the S/T shadow
        assert main(["project", "--system", str(sys_path), "--terms",
                     str(terms_path), "--eliminate", "T1,T2",
                     "--out", str(out)]) == 0
        proj = json.loads(out.read_text())
        assert proj["dims"] == ["S1", "S2"]
        assert len(proj["rows"]) >= 1

    # dyadic terms snap exactly on every platform, so the bytes are fixed
    DYADIC_TERMS = {
        "a1": 0.1875, "b1": 0.125, "c1": 0.0625, "d1": 0.3125, "e1": 0.25,
        "f1": 0.1875, "g1": 0.375, "rho1": 0.03125, "a2": 0.125,
        "b2": 0.1875, "c2": 0.03125, "d2": 0.3125, "e2": 0.15625,
        "f2": 0.21875, "g2": 0.34375, "rho2": 0.0625,
    }
    S1_S2_ROWS = [([16, 0], 3), ([0, 8], 1), ([16, 0], 5), ([0, 32], 5),
                  ([4, 0], 1), ([0, 16], 5), ([8, 0], 3), ([0, 32], 11)]

    @pytest.mark.parametrize("system,eliminate,dims,rows", [
        ("HK_Q", "T1,T2", ["S1", "S2"], S1_S2_ROWS),
        ("HOD_Q", "T1,T2", ["S1", "S2"], S1_S2_ROWS),
        ("HK_Q", "S1,T2", ["T1", "S2"], [
            ([0, 8], 1), ([32, 32], 5), ([8, 0], 1), ([32, 0], 1),
            ([16, 0], 5), ([32, 32], 11), ([0, 16], 5), ([16, 0], 3),
            ([32, 0], 7), ([8, 0], 3)]),
        ("HOD_Q", "S1,T2", ["T1", "S2"], [
            ([0, 8], 1), ([32, 32], 5), ([32, 0], 5), ([32, 0], 3),
            ([16, 0], 5), ([32, 32], 11), ([0, 16], 5), ([32, 0], 7),
            ([32, 0], 9), ([8, 0], 3)]),
    ])
    def test_projection_bytes_pinned(self, system, eliminate, dims, rows,
                                     tmp_path):
        from icregions.linsys import system_to_json

        sys_path, terms_path = tmp_path / "sys.json", tmp_path / "terms.json"
        sys_path.write_text(json.dumps(system_to_json(build_system(system))))
        terms_path.write_text(json.dumps(self.DYADIC_TERMS))
        out = tmp_path / "proj.json"
        assert main(["project", "--system", str(sys_path), "--terms",
                     str(terms_path), "--eliminate", eliminate,
                     "--out", str(out)]) == 0
        expected = {
            "dims": dims,
            "implicit": "all coordinates nonnegative",
            "rows": [{"coeffs": c, "rhs": r} for c, r in rows],
        }
        assert out.read_text() == json.dumps(expected, indent=2,
                                             sort_keys=True) + "\n"

    def test_derived_projection_bytes_pinned(self, tmp_path):
        """``derive`` and then ``project --eliminate R1``: the derivation's
        rows and their order reach the projected bytes."""
        sys_path, terms_path = tmp_path / "sys.json", tmp_path / "terms.json"
        assert main(["derive", "--system", "hod", "--axioms", "chain",
                     "--out", str(sys_path)]) == 0
        terms_path.write_text(json.dumps(self.DYADIC_TERMS))
        out = tmp_path / "proj.json"
        assert main(["project", "--system", str(sys_path), "--terms",
                     str(terms_path), "--eliminate", "R1", "--out", str(out)]) == 0
        rows = [(32, 7), (8, 3), (16, 5), (32, 17), (2, 1), (32, 13), (64, 23),
                (32, 23), (16, 13)]
        expected = {
            "dims": ["R2"],
            "implicit": "all coordinates nonnegative",
            "rows": [{"coeffs": [c], "rhs": r} for c, r in rows],
        }
        assert out.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def _one_usage_line(err: str, prefix: str, message: str):
    assert err.startswith(prefix) and message in err, err
    assert err.count("\n") == 1 and "Traceback" not in err


class TestBadArguments:
    @pytest.mark.parametrize("argv,message", [
        (["search", "--budget", "0", "--seed", "1"], "--budget must be >= 1"),
        (["search", "--restarts", "0", "--seed", "1"], "--restarts must be >= 1"),
        (["search", "--step", "2", "--seed", "1"], "--step must be in (0, 1)"),
        (["search", "--step", "nan", "--seed", "1"], "--step must be in (0, 1)"),
        (["verify", "--seed", "-1"], "--seed must be >= 0"),
        (["search", "--seed", "-2"], "--seed must be >= 0"),
        (["verify", "--claim", "hod-extra-terms", "--samples", "-3", "--seed", "1"],
         "--samples must be >= 0"),
    ], ids=["budget-0", "restarts-0", "step-2", "step-nan", "verify-seed",
            "search-seed", "samples-negative"])
    def test_exit_2(self, argv, message, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 2
        _one_usage_line(capsys.readouterr().err, "usage error: ", message)
        assert not out.exists()

    def test_zero_samples_is_an_empty_report(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", "--claim", "hod-extra-terms", "--samples", "0",
                     "--seed", "1", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["n"] == 0 and rep["samples"] == [] and rep["ok"]


class TestBadInputFiles:
    @pytest.mark.parametrize("content,message", [
        ("{not json", "cannot read"),
        (None, "No such file"),
    ], ids=["not-json", "missing"])
    def test_spec_file_exit_2(self, content, message, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        if content is not None:
            spec.write_text(content)
        assert main(["terms", "--spec", str(spec), "--out",
                     str(tmp_path / "t.json")]) == 2
        _one_usage_line(capsys.readouterr().err, "invalid spec: ", message)

    @pytest.fixture()
    def derived(self, tmp_path):
        path = tmp_path / "hk.json"
        assert main(["derive", "--system", "hk", "--out", str(path)]) == 0
        return path

    def _project(self, system, terms, tmp_path):
        argv = ["project", "--system", str(system), "--eliminate", "R1",
                "--out", str(tmp_path / "p.json")]
        if terms is not None:
            path = tmp_path / "terms.json"
            path.write_text(terms)
            argv += ["--terms", str(path)]
        return main(argv)

    # A string value is never snapped: before this check, snap_terms would
    # multiply the string by 2**48.
    @pytest.mark.parametrize("terms,message", [
        (None, "binding is missing term symbol 'a1'"),
        ('{"a1": 0.25}', "binding is missing term symbol"),
        ("[0.25, 0.5]", "--terms must be a JSON object"),
        ("0.25", "--terms must be a JSON object"),
        ('{"a1": null}', "value of 'a1' must be a finite number, not None"),
        ('{"a1": NaN}', "value of 'a1' must be a finite number, not nan"),
        ('{"a1": Infinity}', "value of 'a1' must be a finite number, not inf"),
        ('{"a1": "0.25"}', "value of 'a1' must be a finite number, not '0.25'"),
        ('{"a1": true}', "value of 'a1' must be a finite number, not True"),
        ('{"a1": 1e308}', "value of 'a1' is too large to snap to a multiple of "
                          "2**-48: 1e+308"),
        ('{"a1": -1e300}', "value of 'a1' is too large to snap to a multiple of "
                           "2**-48: -1e+300"),
    ], ids=["no-terms", "missing-symbol", "list", "number", "null", "nan",
            "infinity", "string", "boolean", "overflow", "negative-overflow"])
    def test_terms_file_exit_2(self, terms, message, derived, tmp_path, capsys):
        assert self._project(derived, terms, tmp_path) == 2
        _one_usage_line(capsys.readouterr().err, "usage error: ", message)

    def test_system_without_inequalities_exit_2(self, tmp_path, capsys):
        system = tmp_path / "sys.json"
        system.write_text('{"rate_vars": ["R1", "R2"]}')
        assert self._project(system, None, tmp_path) == 2
        _one_usage_line(capsys.readouterr().err, "usage error: ",
                        "--system is not a system JSON: KeyError('inequalities')")

    # linsys refuses the rate variables; the CLI relays its message.
    @pytest.mark.parametrize("rate_vars,message", [
        (["R1"], "ValueError(\"rate_vars ['R1'] do not fit the rows' ['R1', 'R2']\")"),
        (["R1", "R2", "R2"], "ValueError(\"rate_vars ['R1', 'R2', 'R2'] do not fit "
                             "the rows' ['R1', 'R2']\")"),
    ], ids=["undeclared", "repeated"])
    def test_rate_vars_exit_2(self, rate_vars, message, tmp_path, capsys):
        system = tmp_path / "sys.json"
        system.write_text(json.dumps({"rate_vars": rate_vars, "inequalities": [
            {"lhs": {"R1": 1, "R2": 1}, "rhs": {}, "const": 1}]}))
        assert self._project(system, None, tmp_path) == 2
        assert capsys.readouterr().err == (
            f"usage error: --system is not a system JSON: {message}\n")

    # A constant row 0 <= -1 read from the file is refused on loading; one
    # that only a projection produces is refused by the projection.
    @pytest.mark.parametrize("doc,message", [
        ({"inequalities": [{"lhs": {}, "rhs": {}, "const": -1}]},
         "--system is not a system JSON: ValueError('the constant term fact 0 <= -1 "
         "is infeasible')"),
        ({"inequalities": [], "term_facts": [{"coeffs": {}, "const": -1}]},
         "--system is not a system JSON: ValueError('the constant term fact 0 <= -1 "
         "is infeasible')"),
        ({"inequalities": [{"lhs": {"R1": 1}, "rhs": {}, "const": -1}]},
         "projection produced an infeasible constant row"),
    ], ids=["row", "term-fact", "projected"])
    def test_infeasible_constant_exit_2(self, doc, message, tmp_path, capsys):
        system = tmp_path / "sys.json"
        system.write_text(json.dumps({"rate_vars": ["R1", "R2"], **doc}))
        assert self._project(system, None, tmp_path) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "p.json").exists()

    # JSON true reads as the number 1, and "1/3" as a fraction, unless the
    # loader refuses them; with every term bound, such a file would
    # otherwise be projected.
    @pytest.mark.parametrize("field,value", [
        ("lhs", {"R1": True}), ("rhs", {"a1": True}), ("const", True),
        ("const", {"num": True, "den": 2}), ("lhs", {"R1": "1/3"}),
        ("const", float("nan")), ("lhs", {"R1": float("inf")}),
        ("const", {"num": 1, "den": 0}), ("const", {"num": 0.5, "den": 2}),
        ("const", {"num": 1}),
    ], ids=["lhs", "rhs", "const", "num", "string", "nan", "infinity", "zero-den",
            "float-num", "no-den"])
    def test_non_number_coefficient_exit_2(self, field, value, derived, tmp_path, capsys):
        doc = json.loads(derived.read_text())
        doc["inequalities"][0][field] = value
        system = tmp_path / "sys.json"
        system.write_text(json.dumps(doc))
        terms = json.dumps(dict.fromkeys(BASE_SYMBOLS, 0.25))
        assert self._project(system, terms, tmp_path) == 2
        _one_usage_line(capsys.readouterr().err, "usage error: --system is not a system JSON",
                        "is not a number")


def _mutated(doc, data):
    """``doc`` with one node replaced by junk or one key dropped; the
    wrapper lets the whole document be replaced too."""
    wrapper = {"doc": doc}
    parent, key = data.draw(st.sampled_from(list(_json_slots(wrapper))))
    if isinstance(key, str) and parent is not wrapper and data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(_JSON_JUNK)
    return wrapper["doc"]


def _write_document(data, path, doc):
    """``doc`` itself, a mutated copy, or raw bytes that are rarely JSON."""
    mode = data.draw(st.sampled_from(["valid", "mutated", "bytes"]))
    if mode == "bytes":
        path.write_bytes(data.draw(st.binary(max_size=12)))
    else:
        path.write_text(json.dumps(doc if mode == "valid" else _mutated(doc, data)))


# Counts, budgets and restarts stay small or invalid, so every run is short.
_COUNT = st.integers(-1, 2).map(str)
_SEED = st.integers(-3, 2**64).map(str)


def _verify_argv(data, tmp):
    return ["verify", "--claim",
            data.draw(st.sampled_from(("all", "bogus") + ALL_CLAIMS)),
            "--samples", data.draw(_COUNT), "--seed", data.draw(_SEED)]


def _search_argv(data, tmp):
    step = data.draw(st.one_of(st.floats().map(repr), st.sampled_from(["0.25", "1"])))
    return ["search", "--budget", data.draw(_COUNT), "--restarts",
            data.draw(_COUNT), f"--step={step}", "--seed", data.draw(_SEED),
            "--objective", data.draw(st.sampled_from(["area", "sumrate"]))]


def _project_argv(data, tmp):
    from icregions.linsys import system_to_json

    system, terms = tmp / "sys.json", tmp / "terms.json"
    _write_document(data, system, system_to_json(build_system("HK_Q")))
    eliminate = data.draw(st.sampled_from(["T1", "T1,T2", "S1,T2", "R1", "Z9", ""]))
    argv = ["project", "--system", str(system), "--eliminate", eliminate]
    if data.draw(st.booleans()):
        _write_document(data, terms, dict(TestProject.DYADIC_TERMS))
        argv += ["--terms", str(terms)]
    return argv


def _terms_argv(data, tmp):
    # spec_from_json is fuzzed in test_dist; here the file itself is bad
    spec = tmp / "spec.json"
    text = json.dumps(spec_to_json(sample_spec(binary_alphabets(), Form.HK2, [81, 0])))
    spec.write_bytes(data.draw(st.one_of(st.binary(max_size=12),
                                         st.integers(0, len(text)).map(
                                             lambda n: text[:n].encode()))))
    return ["terms", "--spec", str(spec)]


class TestCliFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(make_argv=st.sampled_from([_verify_argv, _search_argv, _project_argv,
                                      _terms_argv]),
           data=st.data())
    def test_exit_code_without_traceback(self, make_argv, data, tmp_path):
        argv = make_argv(data, tmp_path) + ["--out", str(tmp_path / "out.json")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusing an argument
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
