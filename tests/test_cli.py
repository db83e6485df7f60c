import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbffock import Quaternion
from rbffock.cli import main
from rbffock.gram import GRAM_KERNELS
from rbffock.kernels import KERNELS


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

    @pytest.mark.parametrize("payload, field", [
        ({"kernel": "rbf-qslice", "gamma": 1.0,
          "pairs": [[[0, 0, 0, 0], [1, 0, 0, 0]],
                    [[0, 20, 0, 0], [1, 0, 20, 0]]]}, "pairs[1]"),
        # finite star exponential, overflowing envelope product
        ({"kernel": "rbf-qslice", "gamma": 1.0,
          "pairs": [[[0, 18, 0, 0], [0, 18, 0, 0]]]}, "pairs[0]"),
        ({"kernel": "rbf-complex", "gamma": 1.0,
          "pairs": [[[0, 30], [0, 30]]]}, "pairs[0]"),
        ({"kernel": "fock", "alpha": 1.0, "pairs": [[[0, 30], [0, 30]]]},
         "pairs[0]"),
        ({"kernel": "exponential", "pairs": [[[1], [1]], [[30], [30]]]},
         "pairs[1]"),
    ], ids=["qslice-star-exp", "qslice-envelope", "rbf-complex", "fock",
            "exponential"])
    def test_overflow_names_pair(self, tmp_path, capsys, payload, field):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(["kernel", "--input", str(path)], capsys)
        assert code == 2
        assert field in err and "overflow" in err
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

    @pytest.mark.parametrize("payload, named", [
        ({"kernel": "rbf-qslice", "gamma": 1.0,
          "points": [[0, 20, 0, 0], [1, 0, 20, 0]]}, "nu=2"),
        # finite star exponential, overflowing envelope product
        ({"kernel": "rbf-qslice", "gamma": 1.0,
          "points": [[0, 18, 0, 0], [0, 0, 18, 0]]}, "gamma=1.0"),
        ({"kernel": "rbf-complex", "gamma": 1.0, "points": [[0, 30], [1, 0]]},
         "rbf kernel"),
        ({"kernel": "fock", "alpha": 1.0, "points": [[0, 30], [1, 0]]},
         "fock kernel"),
        ({"kernel": "exponential", "points": [[30], [1]]},
         "exponential kernel"),
    ], ids=["qslice-star-exp", "qslice-envelope", "rbf-complex", "fock",
            "exponential"])
    def test_overflow_exits_2(self, tmp_path, capsys, payload, named):
        inp = tmp_path / "g.json"
        inp.write_text(json.dumps(payload))
        code, out, err = run_cli(["gram", "--input", str(inp)], capsys)
        assert code == 2
        assert "overflow" in err and named in err
        assert out == ""

    @pytest.mark.parametrize("text, constant", [
        ('{"kernel": "rbf-real", "gamma": NaN, "points": [[0.0], [1.0]]}',
         "NaN"),
        ('{"kernel": "rbf-real", "gamma": 1.0, "points": [[0.0], [Infinity]]}',
         "Infinity"),
        ('{"kernel": "rbf-real", "gamma": 1.0, "points": [[-Infinity], [1.0]]}',
         "-Infinity"),
        ('{"kernel": "rbf-real", "gamma": 1e400, "points": [[0.0], [1.0]]}',
         "1e400"),
        ('{"kernel": "rbf-real", "gamma": 1, "points": [[0], [1%s]]}'
         % ("0" * 400), "1" + "0" * 400),
    ], ids=["nan", "inf", "neg-inf", "float-literal-overflow",
            "integer-overflow"])
    def test_non_finite_json_exits_2(self, tmp_path, capsys, text, constant):
        path = tmp_path / "in.json"
        path.write_text(text)
        code, out, err = run_cli(["gram", "--input", str(path)], capsys)
        assert code == 2
        assert str(path) in err and f"number {constant} " in err
        assert out == ""

    @pytest.mark.parametrize("kernel", GRAM_KERNELS)
    def test_empty_points_exit_2(self, tmp_path, capsys, kernel):
        inp = tmp_path / "g.json"
        inp.write_text(json.dumps({"kernel": kernel, "gamma": 1.0,
                                   "degree": 2, "points": []}))
        code, out, err = run_cli(["gram", "--input", str(inp)], capsys)
        assert code == 2
        assert "'points'" in err and out == ""


def run_input(tmp_path, capsys, command, payload, *flags):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    return run_cli([command, "--input", str(path), *flags], capsys)


class TestKernelAndGramAgree:
    """Both commands read parameters and points through one path, so a bad
    one exits 2 from both, naming the field."""

    @pytest.mark.parametrize("command", ["kernel", "gram"])
    @pytest.mark.parametrize("kernel, params, field", [
        ("rbf-real", {"gamma": "a"}, "gamma"),
        ("rbf-qslice", {"gamma": [1.0]}, "gamma"),
        ("fock", {"alpha": "a"}, "alpha"),
        ("fock", {"gamma": True}, "gamma"),
        ("polynomial", {"degree": "a"}, "degree"),
        ("polynomial", {"degree": 0}, "degree"),
        ("polynomial", {"degree": 1.5}, "degree"),
    ], ids=["gamma-text", "gamma-list", "alpha-text", "gamma-bool",
            "degree-text", "degree-0", "degree-fraction"])
    def test_bad_parameter_exits_2(self, tmp_path, capsys, command, kernel,
                                   params, field):
        point = [0.5, 0.0, 0.0, 0.0] if kernel == "rbf-qslice" else [0.5]
        payload = {"kernel": kernel, **params, "pairs": [[point, point]],
                   "points": [point, point]}
        code, out, err = run_input(tmp_path, capsys, command, payload)
        assert code == 2 and out == ""
        assert f"{command}: {field} must be" in err

    @pytest.mark.parametrize("command, kernel, items, field", [
        ("kernel", "rbf-real", [[[1, 2], [2]]], "pairs[0]"),
        ("kernel", "rbf-complex",
         [[[0, 1], [0, 1]], [[[0, 1], [1, 0]], [[0, 1]]]], "pairs[1]"),
        ("kernel", "rbf-qslice", [[[1, 0, 0], [1, 0, 0, 0]]], "pairs[0][0]"),
        ("gram", "rbf-real", [[1, 2], [2]], "points[1]"),
        ("gram", "rbf-complex", [[[0, 1]], [[0, 1], [1, 0]]], "points[1]"),
        ("gram", "rbf-qslice", [[1, 0, 0, 0], [1, 0, "a", 0]], "points[1]"),
    ], ids=["pair-dims", "complex-pair-dims", "quaternion-length",
            "ragged-points", "ragged-complex-points", "quaternion-text"])
    def test_bad_shape_exits_2(self, tmp_path, capsys, command, kernel, items,
                               field):
        payload = {"kernel": kernel, "gamma": 1.0,
                   "pairs" if command == "kernel" else "points": items}
        code, out, err = run_input(tmp_path, capsys, command, payload)
        assert code == 2 and out == ""
        assert f"error: {field}:" in err


def _reject_constant(name):
    raise ValueError(f"report holds the non-finite constant {name}")


numbers = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0),
                    st.sampled_from([30.0, 800.0, -1e300, 1e300]))
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=2), st.just([]))
odd_points = st.one_of(numbers, junk, st.lists(st.one_of(numbers, junk),
                                               max_size=5))


@st.composite
def kernel_inputs(draw):
    """A well-formed kernel and gram input for a random kernel, or one with
    one field broken: the kernel id, a parameter, a point, a pair or a list."""
    kernel = draw(st.sampled_from(GRAM_KERNELS))
    layout = KERNELS[kernel].layout
    if layout is Quaternion:
        point = st.lists(numbers, min_size=4, max_size=4)
    else:
        coordinate = (st.lists(numbers, min_size=2, max_size=2)
                      if layout is complex else numbers)
        dim = draw(st.integers(1, 3))
        point = st.lists(coordinate, min_size=dim, max_size=dim)
    payload = {"kernel": kernel,
               "points": draw(st.lists(point, min_size=1, max_size=4)),
               "pairs": draw(st.lists(st.lists(point, min_size=2, max_size=2),
                                      min_size=1, max_size=3)),
               "gamma": draw(st.floats(0.2, 5.0)),
               "alpha": draw(st.floats(0.2, 5.0)),
               "degree": draw(st.integers(1, 3))}
    broken = draw(st.sampled_from([None, None, None, "kernel", "gamma",
                                   "alpha", "degree", "point", "pair", "list"]))
    if broken in ("kernel", "gamma", "alpha", "degree"):
        payload[broken] = draw(st.one_of(numbers, junk))
    elif broken == "point":
        payload["points"].append(draw(odd_points))
        payload["pairs"][0][1] = draw(odd_points)
    elif broken == "pair":
        payload["pairs"].append(draw(odd_points))
    elif broken == "list":
        payload[draw(st.sampled_from(["points", "pairs"]))] = draw(junk)
    return payload


class TestFuzzKernelAndGram:
    @given(command=st.sampled_from(["kernel", "gram"]), payload=kernel_inputs())
    @settings(max_examples=200, deadline=None)
    def test_exit_0_or_2_and_finite_output(self, command, payload):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "in.json").write_text(json.dumps(payload))
            argv = [command, "--input", str(tmp / "in.json"),
                    "--output", str(tmp / "out.csv")]
            if command == "gram":
                argv += ["--report", str(tmp / "report.json")]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2)
            assert "Traceback" not in err.getvalue()
            if code == 0:
                csv = (tmp / "out.csv").read_text().lower()
                assert "nan" not in csv and "inf" not in csv
                if command == "gram":
                    json.loads((tmp / "report.json").read_text(),
                               parse_constant=_reject_constant)


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


class TestFlagValidation:
    @pytest.mark.parametrize("argv, flag", [
        (["kernel", "--gamma", "nan"], "--gamma"),
        (["gram", "--gamma", "inf"], "--gamma"),
        (["gram", "--tol", "nan"], "--tol"),
        (["transform", "--nu", "inf"], "--nu"),
        (["verify", "--gamma", "nan"], "--gamma"),
        (["verify", "--tol", "nan"], "--tol"),
        (["verify", "--tol", "0"], "--tol"),
        (["verify", "--tol", "-1"], "--tol"),
    ], ids=["kernel-gamma-nan", "gram-gamma-inf", "gram-tol-nan",
            "transform-nu-inf", "verify-gamma-nan", "verify-tol-nan",
            "verify-tol-0", "verify-tol-negative"])
    def test_bad_flag_exits_2(self, tmp_path, capsys, argv, flag):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"kernel": "rbf-real",
                                    "pairs": [[[0.0], [1.0]]]}))
        if argv[0] != "verify":
            argv = argv + ["--input", str(path)]
        code, out, err = run_cli(argv + ["--only", "psd"] * (argv[0] == "verify"),
                                 capsys)
        assert code == 2 and out == ""
        assert f"error: {flag} must be" in err


class TestVerifyCommand:
    def test_nan_deviation_fails(self, capsys, monkeypatch):
        from rbffock import verify
        nan = Quaternion(math.nan, 0.0, 0.0, 0.0)
        monkeypatch.setattr(verify, "kernel_sum_truncated", lambda *_: nan)
        code, out, _ = run_cli(["verify", "--only", "kernel-sum"], capsys)
        assert code == 1
        assert "[FAIL] kernel-sum-truncation" in out


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
