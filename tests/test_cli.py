import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nkhodge.cli import main
from nkhodge.scalars import rational


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_builtin_ok(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "builtin:torus6")
        assert code == 0
        assert "all model invariants hold" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "builtin:s3xs3-nk", "--report", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["model"] == "s3xs3-nk"
        assert len(doc["model_hash"]) == 64

    def test_broken_model_file(self, capsys, tmp_path, torus6):
        from nkhodge.models import model_to_json

        doc = json.loads(model_to_json(torus6))
        doc["structure_constants"] = [{"i": 1, "j": 2, "k": 1, "value": "1"}]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "unimodular" in out

    def test_unknown_builtin(self, capsys):
        code, _, err = run_cli(capsys, "validate", "builtin:nope")
        assert code == 2
        assert "unknown builtin" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "validate", "/does/not/exist.json")
        assert code == 2

    def test_malformed_file_exit_2(self, capsys, tmp_path, kodaira):
        from nkhodge.models import model_to_json

        doc = json.loads(model_to_json(kodaira))
        doc["structure_constants"] = 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert "structure_constants must be a list" in err


def _claim_every_flag(tmp_path, model):
    from nkhodge.models import model_to_json

    doc = json.loads(model_to_json(model))
    doc["expected"] = {"nearly_kahler": True, "strict": True, "kahler": True}
    path = tmp_path / "claims.json"
    path.write_text(json.dumps(doc))
    return str(path)


    def test_indefinite_metric_exit_1(self, capsys, tmp_path, torus6):
        from nkhodge.models import model_to_json

        doc = json.loads(model_to_json(torus6))
        doc["metric"][0][:2] = ["1", "2"]
        doc["metric"][1][:2] = ["2", "1"]
        path = tmp_path / "indefinite.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "validate", str(path), "--report", "json")
        assert code == 1
        issues = json.loads(out)["issues"]
        assert {"check": "metric_positive_definite", "witness": ["metric not positive-definite (leading minor 2)"]} in issues


class TestClaimedFlags:
    def test_validate_names_each_wrong_flag(self, capsys, tmp_path, kodaira):
        code, out, _ = run_cli(capsys, "validate", _claim_every_flag(tmp_path, kodaira))
        assert code == 1
        for flag in ("nearly_kahler", "strict", "kahler"):
            assert f"expected flag {flag} is true, re-derived false" in out

    def test_validate_json_reports_mismatch(self, capsys, tmp_path, s3xs3):
        # s3xs3-nk is strict nearly Kahler but not Kahler
        path = _claim_every_flag(tmp_path, s3xs3)
        code, out, _ = run_cli(capsys, "validate", path, "--report", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["flag_mismatches"] == ["expected flag kahler is true, re-derived false"]

    def test_suite_fails_on_wrong_flag(self, capsys, tmp_path, torus6):
        code, out, _ = run_cli(
            capsys, "suite", _claim_every_flag(tmp_path, torus6), "--checks", "SL2", "--report", "json"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] is False
        assert doc["flag_mismatches"] == ["expected flag strict is true, re-derived false"]

    def test_agreeing_flags_add_nothing(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "builtin:kodaira-thurston", "--report", "json")
        assert code == 0
        assert "flag_mismatches" not in json.loads(out)


class TestInternalInvariant:
    def test_broken_split_exits_4(self, capsys, tmp_path, monkeypatch):
        import nkhodge.bidegree
        from nkhodge.operators import GradedOperator

        # a file model, so the cached built-ins never see the broken builder
        path = tmp_path / "s.json"
        assert run_cli(capsys, "models", "show", "s3xs3-nk", "--emit", str(path))[0] == 0
        monkeypatch.setattr(
            nkhodge.bidegree, "derivation_from_one_forms",
            lambda dim, images, degree=1: GradedOperator.zero(dim, degree),
        )
        code, out, err = run_cli(capsys, "suite", str(path), "--checks", "D2_SPLIT")
        assert code == 4
        assert err.startswith("internal invariant broken: bidegree split does not reassemble d")

    def test_broken_twisted_differential_exits_4(self, capsys, tmp_path, monkeypatch):
        # J^{-1} d J negated: d_c's cross-check against the split, a term
        # list of derivations, raises, and the CLI reports it
        import nkhodge.bidegree
        from nkhodge.bidegree import d_c
        from nkhodge.models import builtin_model, model_from_json, model_to_json

        path = tmp_path / "s.json"
        assert run_cli(capsys, "models", "show", "s3xs3-nk", "--emit", str(path))[0] == 0
        original = nkhodge.bidegree.twisted_differential
        monkeypatch.setattr(nkhodge.bidegree, "twisted_differential", lambda model: -original(model))
        model = model_from_json(model_to_json(builtin_model("s3xs3-nk"))).orthogonalized()
        with pytest.raises(AssertionError, match=r"J\^\{-1\} d J disagrees with i\(mu - del \+ delbar - mubar\)"):
            d_c(model)
        code, out, err = run_cli(capsys, "suite", str(path), "--checks", "NK_MAIN")
        assert code == 4
        assert err.startswith("internal invariant broken: J^{-1} d J disagrees with i(mu - del + delbar - mubar)")


class TestSuite:
    def test_torus_two_checks(self, capsys):
        code, out, _ = run_cli(
            capsys, "suite", "builtin:torus6", "--checks", "SL2,DELTA_SUM", "--report", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert [c["id"] for c in doc["checks"]] == ["DELTA_SUM", "SL2"]
        assert doc["verdict"] is True

    def test_kodaira_expected_failures(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "builtin:kodaira-thurston")
        assert code == 0
        assert "expected failure" in out
        assert "verdict: pass" in out

    def test_unknown_check_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "suite", "builtin:torus6", "--checks", "NOPE")
        assert code == 2
        assert "unknown check id" in err

    @pytest.mark.parametrize("selection", [",", " , ,", ""])
    def test_empty_check_selection_exit_2(self, capsys, selection):
        code, out, err = run_cli(capsys, "suite", "builtin:torus6", "--checks", selection)
        assert code == 2
        assert "names no check id" in err
        assert out == ""

    def test_repeated_check_id_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "suite", "builtin:torus6", "--checks", "SL2,DELTA_SUM, SL2")
        assert code == 2
        assert "more than once: SL2" in err
        assert out == ""

    def test_json_schema_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "suite", "builtin:torus6", "--checks", "SL2", "--report", "json"
        )
        doc = json.loads(out)
        assert set(doc) == {"model", "model_hash", "version", "checks", "verdict", "total_ms"}
        entry = doc["checks"][0]
        assert entry["id"] == "SL2"
        assert entry["status"] == "pass"
        assert entry["exact_zero"] is True
        assert "ms" in entry

    def test_determinism_modulo_timing(self, capsys):
        def strip(doc):
            doc = json.loads(doc)
            doc.pop("total_ms")
            for c in doc["checks"]:
                c.pop("ms")
            return doc

        _, out1, _ = run_cli(capsys, "suite", "builtin:torus6", "--report", "json")
        _, out2, _ = run_cli(capsys, "suite", "builtin:torus6", "--report", "json")
        assert strip(out1) == strip(out2)


class TestHodge:
    def test_torus_table(self, capsys):
        code, out, _ = run_cli(capsys, "hodge", "builtin:torus6", "--report", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["hodge"]["h"][0] == [1, 3, 3, 1]
        assert doc["hodge"]["betti"] == [1, 6, 15, 20, 15, 6, 1]

    def test_s3xs3_four_entries(self, capsys):
        code, out, _ = run_cli(capsys, "hodge", "builtin:s3xs3-nk", "--report", "json")
        doc = json.loads(out)
        flat = [v for row in doc["hodge"]["h"] for v in row]
        assert sum(1 for v in flat if v) == 4
        assert sum(flat) == 4

    def test_non_nk_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "hodge", "builtin:kodaira-thurston")
        assert code == 3
        assert "witness" in err


class TestOrder:
    def test_d_order_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "order", "builtin:torus6", "--op", "d", "--max", "2", "--report", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["order_at_most"] == {"0": True, "1": True, "2": True}

    def test_dstar_order_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "order", "builtin:s3xs3-nk", "--op", "dstar", "--max", "2", "--report", "json"
        )
        doc = json.loads(out)
        assert doc["order_at_most"]["2"] is True
        assert doc["minimal_bound"] == 2

    def test_lambda_omega(self, capsys):
        code, out, _ = run_cli(
            capsys, "order", "builtin:s3xs3-nk", "--op", "lambda_omega", "--max", "2",
            "--report", "json",
        )
        doc = json.loads(out)
        assert doc["order_at_most"] == {"0": False, "1": False, "2": True}

    @pytest.mark.parametrize("bound", ["-1", "5"])
    def test_max_outside_zero_to_dimension_exit_2(self, capsys, bound):
        code, out, err = run_cli(
            capsys, "order", "builtin:kodaira-thurston", "--op", "d", "--max", bound
        )
        assert code == 2
        assert out == ""
        assert "0..4" in err  # kodaira-thurston has dimension 4


class TestModels:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "models", "list")
        assert code == 0
        for name in ("torus6", "s3xs3-nk", "su2-four", "kodaira-thurston"):
            assert name in out

    def test_show_prints_canonical_json(self, capsys, torus6):
        from nkhodge.models import model_to_json

        code, out, _ = run_cli(capsys, "models", "show", "torus6")
        assert code == 0
        assert out == model_to_json(torus6)

    def test_emit_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        code, _, _ = run_cli(capsys, "models", "show", "s3xs3-nk", "--emit", str(path))
        assert code == 0
        code, out, _ = run_cli(capsys, "validate", str(path), "--report", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        # the emitted file re-runs identically: same suite verdict
        code, out, _ = run_cli(capsys, "suite", str(path), "--checks", "NK_MAIN,SL2")
        assert code == 0

    def test_emit_to_unwritable_path_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "models", "show", "torus6", "--emit", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write")
        assert not path.exists()

    def test_show_requires_name(self, capsys):
        code, _, err = run_cli(capsys, "models", "show")
        assert code == 2

    def test_file_loaded_negative_model_exits_one(self, capsys, tmp_path):
        # file models carry no expected-failure declarations, so a non-NK
        # model reports its failures and exits 1 (documented behaviour)
        path = tmp_path / "kt.json"
        code, _, _ = run_cli(capsys, "models", "show", "kodaira-thurston", "--emit", str(path))
        assert code == 0
        code, out, _ = run_cli(capsys, "suite", str(path), "--checks", "NK_MAIN,SL2")
        assert code == 1
        assert "verdict: FAIL" in out
        assert "residual" in out

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "models", "show", "nope")
        assert code == 2


class TestModelFileLimits:
    def test_huge_extension_d_exit_2(self, capsys, tmp_path, torus6):
        # the squarefree test is trial division up to sqrt(d): refuse before it
        from nkhodge.models import model_to_json

        doc = json.loads(model_to_json(torus6))
        doc["extension_d"] = 10**30
        path = tmp_path / "huge_d.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert "extension_d" in err and "exceeds" in err

    def test_dimension_16_exit_2(self, capsys, tmp_path, torus6, kodaira):
        # a valid model apart from its size: 2^16 columns per operator
        from nkhodge.models import model_to_json, product_model

        path = tmp_path / "dim16.json"
        path.write_text(model_to_json(product_model(product_model(torus6, torus6), kodaira)))
        code, _, err = run_cli(capsys, "suite", str(path))
        assert code == 2
        assert "dimension 16 exceeds" in err


class TestInvalidFileModels:
    @pytest.mark.parametrize("dim", [6, 10])
    @pytest.mark.parametrize("command", [["suite"], ["hodge"], ["order", "--op", "d"]], ids=["suite", "hodge", "order"])
    def test_refused_before_running(self, capsys, tmp_path, s3xs3, kodaira, dim, command):
        # c^5_12 shifted by 1/2 breaks Jacobi; the metric is coupled in both
        from nkhodge.models import model_to_json, product_model
        from variants import perturbed_structure

        bad = perturbed_structure(s3xs3, 0, 1, 4, rational(1, 2))
        if dim == 10:
            bad = product_model(bad, kodaira)
        path = tmp_path / "bad.json"
        path.write_text(model_to_json(bad))
        code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
        assert code == 1
        assert out == ""
        assert "invariant failure(s)" in err and "jacobi fails at" in err


class TestVerificationScript:
    SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"

    def test_runs_from_any_directory(self, tmp_path):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, str(self.SCRIPT), "--models", "torus6,kodaira-thurston"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "overall: ok" in proc.stdout

    @pytest.mark.parametrize("models", ["nosuch", "", "torus6,nosuch", "torus6,"])
    def test_unknown_model_refused_before_any_runs(self, models):
        proc = subprocess.run(
            [sys.executable, str(self.SCRIPT), "--models", models], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "unknown built-in model" in proc.stderr and "have torus6, s3xs3-nk" in proc.stderr
        assert "Traceback" not in proc.stderr
