import json
import math

import numpy as np
import pytest

from rbffock.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKernelCommand:
    def test_complex_kernel_value(self, tmp_path, capsys):
        payload = {"kernel": "rbf-complex", "pairs": [[[0.0, 1.0], [0.0, 1.0]]]}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(["kernel", "--gamma", "1",
                                "--input", str(path)], capsys)
        assert code == 0
        value = float(out.splitlines()[1].split(",")[1])
        assert value == pytest.approx(math.exp(4.0), rel=1e-15)

    def test_quaternionic_kernel_columns(self, tmp_path, capsys):
        payload = {"kernel": "rbf-qslice", "gamma": 1.0,
                   "pairs": [[[0.0, 0.0, 1.0, 0.0], [0.5, 0.0, 0.0, 0.0]]]}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(["kernel", "--input", str(path)], capsys)
        assert code == 0
        header = out.splitlines()[0]
        assert header == "pair,value.w,value.x,value.y,value.z"

    def test_missing_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"kernel": "rbf-complex"}))
        code, _, err = run_cli(["kernel", "--gamma", "1",
                                "--input", str(path)], capsys)
        assert code == 2
        assert "pairs" in err

    def test_bad_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text("{not json")
        code, _, err = run_cli(["kernel", "--gamma", "1",
                                "--input", str(path)], capsys)
        assert code == 2
        assert "line" in err

    def test_overflow_names_pair(self, tmp_path, capsys):
        payload = {"kernel": "rbf-qslice", "gamma": 1.0,
                   "pairs": [[[0, 0, 0, 0], [1, 0, 0, 0]],
                             [[0, 20, 0, 0], [1, 0, 20, 0]]]}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(["kernel", "--input", str(path)], capsys)
        assert code == 2
        assert "pairs[1]" in err and "overflow" in err
        assert "nan" not in out

    def test_empty_pairs_exit_2(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"kernel": "rbf-complex", "pairs": []}))
        code, out, err = run_cli(["kernel", "--gamma", "1",
                                  "--input", str(path)], capsys)
        assert code == 2
        assert "'pairs'" in err and out == ""


class TestGramCommand:
    def test_real_gram_csv_matches_oracle(self, tmp_path, capsys):
        rng = np.random.default_rng(51)
        pts = rng.uniform(-2, 2, (8, 1))
        payload = {"kernel": "rbf-real", "gamma": 1.0,
                   "points": [list(p) for p in pts]}
        inp = tmp_path / "g.json"
        inp.write_text(json.dumps(payload))
        out_csv = tmp_path / "g.csv"
        report = tmp_path / "r.json"
        code, _, _ = run_cli(["gram", "--input", str(inp),
                              "--output", str(out_csv),
                              "--report", str(report)], capsys)
        assert code == 0
        rows = out_csv.read_text().strip().splitlines()[1:]
        for a, row in enumerate(rows):
            values = [float(v) for v in row.split(",")][0::2]
            for b, value in enumerate(values):
                want = math.exp(-(pts[a, 0] - pts[b, 0]) ** 2)
                assert value == pytest.approx(want, rel=1e-15)
        rep = json.loads(report.read_text())
        assert rep["psd"] is True
        assert rep["min_eig"] >= -1e-10

    def test_deterministic_output(self, tmp_path, capsys):
        payload = {"kernel": "rbf-real", "gamma": 1.0,
                   "points": [[0.0], [0.7], [-1.3]]}
        inp = tmp_path / "g.json"
        inp.write_text(json.dumps(payload))
        outputs = []
        for run in range(2):
            out_csv = tmp_path / f"g{run}.csv"
            code, _, _ = run_cli(["gram", "--input", str(inp),
                                  "--output", str(out_csv)], capsys)
            assert code == 0
            outputs.append(out_csv.read_bytes())
        assert outputs[0] == outputs[1]

    def test_overflow_exits_2(self, tmp_path, capsys):
        payload = {"kernel": "rbf-qslice", "gamma": 1.0,
                   "points": [[0, 20, 0, 0], [1, 0, 20, 0]]}
        inp = tmp_path / "g.json"
        inp.write_text(json.dumps(payload))
        code, out, err = run_cli(["gram", "--input", str(inp)], capsys)
        assert code == 2
        assert "overflow" in err and "nu=2" in err
        assert out == ""

    @pytest.mark.parametrize("text, constant", [
        ('{"kernel": "rbf-real", "gamma": NaN, "points": [[0.0], [1.0]]}',
         "NaN"),
        ('{"kernel": "rbf-real", "gamma": 1.0, "points": [[0.0], [Infinity]]}',
         "Infinity"),
        ('{"kernel": "rbf-real", "gamma": 1.0, "points": [[-Infinity], [1.0]]}',
         "-Infinity"),
    ], ids=["nan", "inf", "neg-inf"])
    def test_non_finite_json_exits_2(self, tmp_path, capsys, text, constant):
        path = tmp_path / "in.json"
        path.write_text(text)
        code, out, err = run_cli(["gram", "--input", str(path)], capsys)
        assert code == 2
        assert str(path) in err and f"number {constant} " in err
        assert out == ""

    @pytest.mark.parametrize("kernel", ["rbf-complex", "rbf-qslice"])
    def test_empty_points_exit_2(self, tmp_path, capsys, kernel):
        inp = tmp_path / "g.json"
        inp.write_text(json.dumps({"kernel": kernel, "gamma": 1.0,
                                   "points": []}))
        code, out, err = run_cli(["gram", "--input", str(inp)], capsys)
        assert code == 2
        assert "'points'" in err and out == ""


class TestTransformCommand:
    def test_rbf_transform_of_basis(self, tmp_path, capsys):
        payload = {
            "hermite": {"nu": 2.0, "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]]},
            "grid": {"points": [[0.5, 0.0, 0.0, 0.0]]},
        }
        inp = tmp_path / "t.json"
        inp.write_text(json.dumps(payload))
        code, out, _ = run_cli(["transform", "--gamma", "1",
                                "--input", str(inp)], capsys)
        assert code == 0
        row = out.splitlines()[1].split(",")
        from rbffock import Quaternion, rbf_basis_q
        want = rbf_basis_q(1.0, 1, Quaternion.from_real(0.5))
        assert float(row[4]) == pytest.approx(want.w, rel=1e-12)

    def test_sampled_csv_rejected(self, tmp_path, capsys):
        inp = tmp_path / "t.json"
        inp.write_text(json.dumps({"samples": [[0.0, 1.0]],
                                   "grid": {"points": []}}))
        code, _, err = run_cli(["transform", "--gamma", "1",
                                "--input", str(inp)], capsys)
        assert code == 2
        assert "decay certificate" in err

    def test_requires_target(self, tmp_path, capsys):
        payload = {"hermite": {"nu": 2.0, "coeffs": [[1, 0, 0, 0]]},
                   "grid": {"points": [[0, 0, 0, 0]]}}
        inp = tmp_path / "t.json"
        inp.write_text(json.dumps(payload))
        code, _, err = run_cli(["transform", "--input", str(inp)], capsys)
        assert code == 2
        assert "--gamma" in err

    def test_d2_transform_of_multiindex_basis(self, tmp_path, capsys):
        payload = {"hermite": {"nu": 2.0, "terms": [[[1, 0], [1.0, 0.0]]]},
                   "grid": {"points": [[[0.3, 0.2], [-0.1, 0.4]]]}}
        inp = tmp_path / "t.json"
        inp.write_text(json.dumps(payload))
        code, out, _ = run_cli(["transform", "--gamma", "1", "--dim", "2",
                                "--input", str(inp)], capsys)
        assert code == 0
        row = [float(v) for v in out.splitlines()[1].split(",")]
        from rbffock import rbf_basis_series_d
        want = rbf_basis_series_d(1.0, (1, 0)).eval((0.3 + 0.2j, -0.1 + 0.4j))
        assert row[4] == pytest.approx(want.real, rel=1e-12)
        assert row[5] == pytest.approx(want.imag, rel=1e-12)

    def test_parameter_range_validation(self, tmp_path, capsys):
        inp = tmp_path / "t.json"
        inp.write_text("{}")
        assert run_cli(["verify", "--gamma", "-1"], capsys)[0] == 2
        assert run_cli(["verify", "--quad-order", "4"], capsys)[0] == 2
        assert run_cli(["transform", "--gamma", "1", "--dim", "5",
                        "--input", str(inp)], capsys)[0] == 2


class TestBasisCommand:
    def test_hermite_table(self, tmp_path, capsys):
        code, out, _ = run_cli(["basis", "--family", "hermite-psi",
                                "--nu", "2.0", "--n-max", "3",
                                "--grid=-1:1:5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,n0,n1,n2,n3"
        assert len(lines) == 6
        from rbffock import hermite_psi
        first = [float(v) for v in lines[1].split(",")]
        assert first[1] == pytest.approx(hermite_psi(2.0, 0, -1.0), rel=1e-14)

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(["basis", "--family", "hermite-psi",
                                "--nu", "1.0", "--grid", "oops"], capsys)
        assert code == 2
        assert "start:stop:count" in err


class TestVerifyCommand:
    def test_subset_passes_and_reports(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, out, _ = run_cli(["verify", "--only", "psd,factorizations",
                                "--report", str(report)], capsys)
        assert code == 0
        assert "all checks passed" in out
        data = json.loads(report.read_text())
        assert data["passed"] is True
        assert all(c["pass"] for c in data["checks"])
        for check in data["checks"]:
            assert set(check) >= {"check", "params", "value", "bound", "pass"}

    def test_unknown_criterion_exits_2(self, capsys):
        code, _, err = run_cli(["verify", "--only", "nope"], capsys)
        assert code == 2
        assert "nope" in err

    def test_failure_exit_code(self, capsys):
        # an impossibly small tolerance multiplier forces a failure
        code, out, _ = run_cli(["verify", "--only", "factorizations",
                                "--tol", "1e-30"], capsys)
        assert code == 1
        assert "FAIL" in out
