import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbffock import GramMatrix, Quaternion, build_gram
from rbffock import cli
from rbffock.cli import main
from rbffock.gram import GRAM_KERNELS
from rbffock.kernels import KERNELS, NORMALIZATIONS
from rbffock.verify import CRITERIA, reads


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

    @pytest.mark.parametrize("payload, field, named", [
        ({"kernel": "rbf-qslice", "gamma": 1.0,
          "pairs": [[[0, 0, 0, 0], [1, 0, 0, 0]],
                    [[0, 20, 0, 0], [1, 0, 20, 0]]]}, "pairs[1]", "nu=2"),
        # finite star exponential, overflowing envelope product
        ({"kernel": "rbf-qslice", "gamma": 1.0,
          "pairs": [[[0, 18, 0, 0], [0, 18, 0, 0]]]}, "pairs[0]",
         "gamma=1.0"),
        # one envelope factor overflows on its own
        ({"kernel": "rbf-qslice", "gamma": 1.0,
          "pairs": [[[0, 30, 0, 0], [1, 0, 0, 0]]]}, "pairs[0]",
         "gamma=1.0"),
        # the star exponential's exponent is not finite
        ({"kernel": "rbf-qslice", "gamma": 1.0,
          "pairs": [[[1e300, 0, 0, 0], [0, 1e10, 0, 0]]]}, "pairs[0]",
         "nu=2"),
        ({"kernel": "rbf-complex", "gamma": 1.0,
          "pairs": [[[0, 30], [0, 30]]]}, "pairs[0]", "rbf kernel"),
        ({"kernel": "fock", "alpha": 1.0, "pairs": [[[0, 30], [0, 30]]]},
         "pairs[0]", "fock kernel"),
        ({"kernel": "exponential", "pairs": [[[1], [1]], [[30], [30]]]},
         "pairs[1]", "exponential kernel"),
    ], ids=["qslice-star-exp", "qslice-envelope", "qslice-envelope-factor",
            "qslice-star-exp-non-finite", "rbf-complex", "fock",
            "exponential"])
    @pytest.mark.filterwarnings("error")
    def test_overflow_names_pair(self, tmp_path, capsys, payload, field,
                                 named):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(["kernel", "--input", str(path)], capsys)
        assert code == 2
        assert field in err and "overflow" in err and named in err
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
        assert re.fullmatch("[0-9a-f]{16}", rep["points_hash"])

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
        # one envelope factor overflows on its own
        ({"kernel": "rbf-qslice", "gamma": 1.0,
          "points": [[0, 30, 0, 0], [1, 0, 0, 0]]}, "gamma=1.0"),
        # the star exponential's exponent is not finite
        ({"kernel": "rbf-qslice", "gamma": 1.0,
          "points": [[1e300, 0, 0, 0], [0, 1e10, 0, 0]]}, "nu=2"),
        ({"kernel": "rbf-complex", "gamma": 1.0, "points": [[0, 30], [1, 0]]},
         "rbf kernel"),
        ({"kernel": "fock", "alpha": 1.0, "points": [[0, 30], [1, 0]]},
         "fock kernel"),
        ({"kernel": "exponential", "points": [[30], [1]]},
         "exponential kernel"),
    ], ids=["qslice-star-exp", "qslice-envelope", "qslice-envelope-factor",
            "qslice-star-exp-non-finite", "rbf-complex", "fock",
            "exponential"])
    @pytest.mark.filterwarnings("error")
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


def reference_gram_csv(gram: GramMatrix) -> str:
    """The Gram CSV written one f"{float(v):.17g}" call per number, as the
    writer did before it formatted each row with one %-template."""
    columns = ("w", "x", "y", "z") if gram.is_quaternionic else ("re", "im")
    lines = [",".join(f"g{b}.{c}" for b in range(gram.size) for c in columns)]
    for row in gram.entries:
        if not gram.is_quaternionic:
            row = np.stack([row.real, row.imag], axis=-1)
        lines.append(",".join(f"{float(v):.17g}" for v in row.ravel().tolist()))
    return "\n".join(lines) + "\n"


_rng = np.random.default_rng(52)
GRAM_PAYLOADS = {
    "rbf-real": {"gamma": 1.3, "points": _rng.uniform(-2, 2, (7, 2)).tolist()},
    "rbf-complex": {"gamma": 0.8,
                    "points": _rng.uniform(-1, 1, (7, 2, 2)).tolist()},
    "fock": {"alpha": 0.7, "points": _rng.uniform(-1, 1, (7, 2)).tolist()},
    "polynomial": {"degree": 3,
                   "points": _rng.uniform(-1, 1, (7, 3)).tolist()},
    "rbf-qslice": {"gamma": 1.0,
                   "points": _rng.uniform(-0.8, 0.8, (7, 4)).tolist()},
}

# Hermitian Grams with -0.0, +0.0, subnormal and integer-valued entries
_TINY = 5e-324
EDGE_GRAMS = {
    "rbf-real": np.array([[3.0, -0.0, _TINY],
                          [-0.0, 0.0, 1e22],
                          [_TINY, 1e22, 2.0 ** 60]]),
    "rbf-complex": np.array([[2.0, complex(-0.0, _TINY)],
                             [complex(-0.0, -_TINY), complex(7.0, -0.0)]]),
    "rbf-qslice": np.array([[[1.0, 0.0, 0.0, 0.0], [-0.0, _TINY, 3.0, -0.0]],
                            [[-0.0, -_TINY, -3.0, 0.0],
                             [2.0 ** 53, -0.0, 0.0, -0.0]]]),
}


def run_gram_csv(tmp_path, capsys, payload, to_stdout):
    """Run gram on ``payload``; return the CSV bytes from --output or stdout."""
    inp = tmp_path / "g.json"
    inp.write_text(json.dumps(payload))
    out_csv = tmp_path / "g.csv"
    argv = ["gram", "--input", str(inp), "--report", str(tmp_path / "r.json")]
    code, out, _ = run_cli(argv + ([] if to_stdout else
                                   ["--output", str(out_csv)]), capsys)
    assert code == 0
    return out.encode() if to_stdout else out_csv.read_bytes()


class TestGramCsvBytes:
    """The gram CSV is byte-identical to the per-entry writer's."""

    @pytest.mark.parametrize("to_stdout", [False, True], ids=["file", "stdout"])
    @pytest.mark.parametrize("kernel", GRAM_PAYLOADS)
    def test_matches_per_entry_writer(self, tmp_path, capsys, monkeypatch,
                                      kernel, to_stdout):
        built = []
        monkeypatch.setattr(cli, "build_gram",
                            lambda *a: built.append(build_gram(*a)) or built[0])
        payload = {"kernel": kernel, **GRAM_PAYLOADS[kernel]}
        data = run_gram_csv(tmp_path, capsys, payload, to_stdout)
        assert data == reference_gram_csv(built[0]).encode()

    @pytest.mark.parametrize("to_stdout", [False, True], ids=["file", "stdout"])
    @pytest.mark.parametrize("kernel", EDGE_GRAMS)
    def test_signed_zero_subnormal_and_integer_entries(
            self, tmp_path, capsys, monkeypatch, kernel, to_stdout):
        gram = GramMatrix(EDGE_GRAMS[kernel], kernel)
        monkeypatch.setattr(cli, "build_gram", lambda *_: gram)
        point = {"rbf-real": [0.5], "rbf-complex": [0.5, 0.0],
                 "rbf-qslice": [0.5, 0.0, 0.0, 0.0]}[kernel]
        payload = {"kernel": kernel, "gamma": 1.0, "points": [point] * gram.size}
        data = run_gram_csv(tmp_path, capsys, payload, to_stdout)
        want = reference_gram_csv(gram)
        assert "-0," in want and "4.9406564584124654e-324" in want
        assert data == want.encode()


BLOCK = cli._GRAM_BLOCK
CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def writer_points(kernel, n, case):
    """n points in ``kernel``'s layout: random ones, ones on the real line
    (every imaginary part zero), or three points repeated."""
    pts = np.random.default_rng(n).uniform(-0.8, 0.8, (n, 4))
    if case == "real-line":
        pts[:, 1:] = 0.0
    elif case == "duplicates":
        pts = pts[np.arange(n) % 3]
    layout = KERNELS[kernel].layout
    if layout is Quaternion:
        return [Quaternion(*p) for p in pts.tolist()]
    return pts[:, :2] if layout is float else pts[:, :1] + 1j * pts[:, 1:2]


def reference_rows(gram: GramMatrix) -> list:
    return reference_gram_csv(gram).splitlines()[1:]


def signed_zero_gram(components: int) -> np.ndarray:
    """An exactly Hermitian Gram larger than two blocks whose zero entries
    take either sign on either side of the diagonal, except that a real
    part and its mirror are the same float."""
    n = 2 * BLOCK + 1
    rng = np.random.default_rng(components)
    g = rng.uniform(-1.0, 1.0, (n, n, components))
    g[rng.random(g.shape) < 0.4] = 0.0
    upper = np.triu(np.ones((n, n), dtype=bool))[..., None]
    g = np.where(upper, g, g.transpose(1, 0, 2) * CONJ[:components])
    g[g == 0.0] = np.copysign(0.0, rng.uniform(-1.0, 1.0, (g == 0.0).sum()))
    g[..., 0] = np.where(upper[..., 0], g[..., 0], g[..., 0].T)
    return g.view(complex)[..., 0] if components == 2 else g


class TestGramRowsWriter:
    """The writer that formats each unordered pair once writes the bytes of
    formatting every number by itself, across block edges."""

    @pytest.mark.parametrize("case", ["random", "real-line", "duplicates"])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                   2 * BLOCK + 1])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_matches_per_entry_writer(self, kernel, n, case):
        params = {name: 3 if kind is int else 0.9
                  for name, kind in KERNELS[kernel].params}
        gram = build_gram(kernel, params, writer_points(kernel, n, case))
        assert list(cli._gram_rows(gram.entries)) == reference_rows(gram)

    @pytest.mark.parametrize("components", [2, 4], ids=["complex", "quaternion"])
    def test_each_zero_keeps_its_own_sign(self, components):
        g = signed_zero_gram(components)
        gram = GramMatrix(g, "rbf-complex" if components == 2 else "rbf-qslice")
        rows = reference_rows(gram)
        assert any("-0," in row for row in rows[BLOCK + 1:])
        assert list(cli._gram_rows(g)) == rows

    def test_holds_about_a_quarter_of_the_text(self):
        n = 400
        points = writer_points("rbf-complex", n, "random")
        g = build_gram("rbf-complex", {"gamma": 1.0}, points).entries
        tracemalloc.start()
        try:
            text = sum(len(row) + 1 for row in cli._gram_rows(g))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # rows below a block hold their cells of the rows above it, at most
        # n^2/4 cells, a quarter of the text; on top come one block's cells
        # as separate strings and its arrays, under 200 bytes a cell
        assert peak <= text / 4 + BLOCK * n * 200

    def test_stdout_and_output_are_the_same_bytes(self, tmp_path, capsys):
        points = np.random.default_rng(5).uniform(-1, 1, (BLOCK + 7, 3))
        payload = {"kernel": "rbf-real", "gamma": 1.0, "points": points.tolist()}
        to_file = run_gram_csv(tmp_path, capsys, payload, to_stdout=False)
        assert to_file.count(b"\n") == BLOCK + 8
        assert run_gram_csv(tmp_path, capsys, payload, to_stdout=True) == to_file


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

    @pytest.mark.parametrize("command", ["kernel", "gram"])
    @pytest.mark.parametrize("gamma", [1e-200, 1e200])
    def test_derived_alpha_out_of_range_names_gamma(self, tmp_path, capsys,
                                                    command, gamma):
        payload = {"kernel": "fock", "gamma": gamma,
                   "pairs": [[[0.5], [0.5]]], "points": [[0.5], [0.5]]}
        code, out, err = run_input(tmp_path, capsys, command, payload)
        assert code == 2 and out == ""
        assert f"{command}: gamma must give a positive finite nu" in err

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


@st.composite
def transform_inputs(draw):
    """Flags and input of a transform on H (the quaternions, --gamma or
    --nu) or on C^2, by the exact route (Hermite scale 2, matched by
    --gamma 1 and --nu 2) or the quadrature route (scale 1), at points
    drawn from ``numbers``, with possibly no coefficients, terms or points;
    or with one field broken.  Only the quadrature route reads --quad-order,
    so only its inputs may draw one."""
    dim = draw(st.sampled_from([1, 2]))
    target = draw(st.sampled_from(["--gamma", "--nu"])) if dim == 1 else "--gamma"
    argv = ["transform", target, "1" if target == "--gamma" else "2"]
    nu = draw(st.sampled_from([1.0, 2.0]))
    if nu == 1.0 and draw(st.booleans()):
        argv += ["--quad-order", str(draw(st.integers(8, 512)))]
    coefficient = st.floats(-1.0, 1.0)
    if dim == 1:
        argv += ["--normalization", draw(st.sampled_from(NORMALIZATIONS))]
        key = "coeffs"
        hermite = {"nu": nu, key: draw(st.lists(
            st.lists(coefficient, min_size=4, max_size=4),
            min_size=0, max_size=4))}
        point = st.lists(numbers, min_size=4, max_size=4)
    else:
        argv += ["--dim", "2"]
        key = "terms"
        index = st.lists(st.integers(0, 3), min_size=2, max_size=2)
        hermite = {"nu": nu, key: draw(st.lists(
            st.tuples(index, st.lists(coefficient, min_size=2, max_size=2))
            .map(list), min_size=0, max_size=3))}
        point = st.lists(st.lists(numbers, min_size=2, max_size=2),
                         min_size=2, max_size=2)
    points = draw(st.lists(point, min_size=0, max_size=4))
    broken = draw(st.sampled_from([None, None, None, "nu", "function",
                                   "point", "points"]))
    if broken == "nu":
        hermite["nu"] = draw(st.one_of(numbers, junk))
    elif broken == "function":
        hermite[key].append(draw(odd_points))
    elif broken == "point":
        points.append(draw(odd_points))
    elif broken == "points":
        points = draw(junk)
    return argv, {"hermite": hermite, "grid": {"points": points}}


class TestFuzzTransform:
    @given(case=transform_inputs())
    @settings(max_examples=200, deadline=None)
    def test_exit_0_or_2_and_finite_output(self, case):
        argv, payload = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "in.json").write_text(json.dumps(payload))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv + ["--input", str(tmp / "in.json"),
                                    "--output", str(tmp / "out.csv")])
            assert code in (0, 2)
            assert "Traceback" not in err.getvalue()
            if code == 0:
                csv = (tmp / "out.csv").read_text().lower()
                assert "nan" not in csv and "inf" not in csv


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

    @pytest.mark.parametrize("points", [[[0.1, 0.2, 0, 0]], []],
                             ids=["point", "no-points"])
    @pytest.mark.parametrize("flags", [["--gamma", "1"], ["--nu", "2"]],
                             ids=["gamma", "nu"])
    def test_no_coefficients_give_the_exact_routes_zeros(self, tmp_path, capsys,
                                                         flags, points):
        outputs = []
        for nu in (1.0, 2.0):  # the quadrature route, then the exact one
            payload = {"hermite": {"nu": nu, "coeffs": []},
                       "grid": {"points": points}}
            code, out, err = run_input(tmp_path, capsys, "transform", payload,
                                       *flags)
            assert code == 0 and err == ""
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 1 + len(points)
        assert all(line.endswith(",0,0,0,0")
                   for line in outputs[0].splitlines()[1:])

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("order", ["400", "512"])
    @pytest.mark.parametrize("flags", [["--gamma", "1"], ["--nu", "2"],
                                       ["--gamma", "1", "--dim", "2"]],
                             ids=["gamma", "nu", "dim-2"])
    def test_quadrature_at_high_orders_matches_order_80(self, tmp_path, capsys,
                                                        flags, order):
        rng = np.random.default_rng(9)
        grid = rng.uniform(-0.6, 0.6, (25, 4))  # |q| <= 1.2
        if "--dim" in flags:
            hermite = {"nu": 1.0, "terms": [[[a, b], rng.uniform(-1, 1, 2).tolist()]
                                            for a in range(4) for b in range(4 - a)]}
            grid = grid.reshape(25, 2, 2)
        else:
            hermite = {"nu": 1.0, "coeffs": rng.uniform(-1, 1, (10, 4)).tolist()}
        inp = tmp_path / "t.json"
        inp.write_text(json.dumps({"hermite": hermite,
                                   "grid": {"points": grid.tolist()}}))
        outputs = []
        for quad_order in (order, "80"):
            code, out, err = run_cli(["transform", *flags, "--quad-order",
                                      quad_order, "--input", str(inp)], capsys)
            assert code == 0 and err == ""
            rows = np.array([[float(v) for v in line.split(",")]
                             for line in out.splitlines()[1:]])
            outputs.append(rows[:, -2:] if "--dim" in flags else rows[:, 4:])
        got, want = outputs
        assert np.all(np.abs(got - want)
                      <= 1e-13 * (1 + np.linalg.norm(want, axis=1))[:, None])

    def test_parameter_range_validation(self, tmp_path, capsys):
        inp = tmp_path / "t.json"
        inp.write_text("{}")
        assert run_cli(["verify", "--gamma", "-1"], capsys)[0] == 2
        assert run_cli(["verify", "--quad-order", "4"], capsys)[0] == 2
        assert run_cli(["transform", "--gamma", "1", "--dim", "5",
                        "--input", str(inp)], capsys)[0] == 2

    @pytest.mark.parametrize("flags, hermite, point, field", [
        (["--gamma", "1"], {"nu": 2.0, "coeffs": [[1, 0, 0, 0]]},
         [0, 30, 0, 0], "grid.points[1]: the transform value"),
        (["--nu", "2"], {"nu": 1.0, "coeffs": [[1, 0, 0, 0], [0, 1, 0, 0]]},
         [0, 0, 27, 0], "grid.points[1]: the transform value"),
        (["--gamma", "1", "--dim", "2"],
         {"nu": 2.0, "terms": [[[1, 0], [1.0, 0.0]]]},
         [[0, 300], [0, 0]], "grid.points[1]: the transform value"),
        (["--gamma", "1", "--dim", "2"],
         {"nu": 1.0, "terms": [[[1, 0], [1.0, 0.0]]]},
         [[0, 300], [0, 0]], "grid.points[1]: the transform value"),
        (["--gamma", "1"], {"nu": 2.0, "coeffs": [[1, 0, 0, 0]]},
         ["a", 0, 0, 0], "grid.points[1]: quaternion points"),
        (["--gamma", "1"], {"nu": 2.0, "coeffs": [[1, 0, 0, 0]]},
         [True, 0, 0, 0], "grid.points[1]: quaternion points"),
        (["--gamma", "1"], {"nu": 2.0, "coeffs": [[1, 0, 0, 0]]},
         [0, 1.7e308, 1.7e308, 0], "grid.points[1]: the vector part"),
        (["--nu", "2"], {"nu": 2.0, "coeffs": [[1, 0, 0, 0]]},
         [0, 1.5e308, 1.5e308, 0], "grid.points[1]: the vector part"),
        (["--gamma", "1"], {"nu": "x", "coeffs": [[1, 0, 0, 0]]},
         [0, 0, 0, 0], "transform input.hermite: nu must be"),
        (["--gamma", "1", "--dim", "2"], {"nu": 2.0, "terms": [[[1, "a"], 1]]},
         [[0, 0], [0, 0]], "transform input.hermite.terms[0]: multi-index"),
    ], ids=["rbf-exact-overflow", "fock-quadrature-overflow",
            "c2-exact-overflow", "c2-quadrature-overflow", "text-point",
            "boolean-point", "huge-vector-part", "fock-exact-huge-vector-part",
            "text-nu", "text-index"])
    def test_refusal_exits_2_naming_the_field(self, tmp_path, capsys, flags,
                                              hermite, point, field):
        first = [[0.1, 0.2], [0, 0]] if "--dim" in flags else [0.1, 0, 0, 0]
        inp = tmp_path / "t.json"
        inp.write_text(json.dumps({"hermite": hermite,
                                   "grid": {"points": [first, point]}}))
        code, out, err = run_cli(["transform", *flags, "--input", str(inp)],
                                 capsys)
        assert code == 2 and out == ""
        assert f"error: {field}" in err

    @pytest.mark.parametrize("gamma", ["1e-200", "1e200"])
    def test_gamma_with_nu_out_of_range_exits_2(self, tmp_path, capsys,
                                                gamma):
        payload = {"hermite": {"nu": 2.0, "coeffs": [[1, 0, 0, 0]]},
                   "grid": {"points": [[0.5, 0, 0, 0]]}}
        inp = tmp_path / "t.json"
        inp.write_text(json.dumps(payload))
        code, out, err = run_cli(["transform", "--gamma", gamma,
                                  "--input", str(inp)], capsys)
        assert code == 2 and out == ""
        assert "error: transform: gamma must give a positive finite nu" in err


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

    @pytest.mark.parametrize("flags, field", [
        (["--family", "rbf-c", "--gamma", "1", "--imag", "30"],
         "basis: the rbf basis value at point [(-2+30j)]"),
        (["--family", "rbf-q", "--gamma", "1", "--imag", "30"],
         "basis: the rbf basis value at point [(-2+30j)]"),
        (["--family", "hermite-psi", "--nu", "1", "--grid", "nan:1:3"],
         "--grid start and stop must be finite"),
        (["--family", "hermite-psi", "--nu", "1", "--grid=-1e308:1e308:3"],
         "--grid start and stop must be finite and less than double range"),
        (["--family", "rbf-q", "--gamma", "1", "--imag", "nan"],
         "--imag must be finite"),
        (["--family", "hermite-psi", "--nu", "1", "--n-max", "70"],
         "--n-max must be at least 0, and at most 64"),
        (["--family", "hermite-psi", "--nu", "1", "--n-max", "-1"],
         "--n-max must be at least 0"),
        (["--family", "hermite-h", "--nu", "1", "--n-max", "60",
          "--grid", "0:1e200:2"], "basis: h_n(x) with nu=1.0, n=2 at point"),
    ], ids=["rbf-c-overflow", "rbf-q-overflow", "nan-grid", "grid-overflow",
            "nan-imag", "n-max-above-64", "negative-n-max",
            "hermite-h-overflow"])
    @pytest.mark.filterwarnings("error")
    def test_refusal_exits_2_naming_the_field(self, capsys, flags, field):
        code, out, err = run_cli(["basis", *flags], capsys)
        assert code == 2 and out == ""
        assert f"error: {field}" in err


@st.composite
def basis_inputs(draw):
    """basis flags for a random family: widths and offsets from ``numbers``
    or non-finite, orders from -1 to 70, and grids with any such ends; an
    offset only for the rbf families, the only ones that read --imag."""
    wide = st.one_of(numbers, st.sampled_from(["nan", "inf", "-inf", "1e-300"]))
    family = draw(st.sampled_from(["rbf-q", "rbf-c", "hermite-h",
                                   "hermite-psi"]))
    width = "--nu" if family.startswith("hermite") else "--gamma"
    start, stop = draw(wide), draw(wide)
    argv = ["basis", "--family", family, f"{width}={draw(wide)}",
            f"--n-max={draw(st.integers(-1, 70))}",
            f"--grid={start}:{stop}:{draw(st.integers(-1, 4))}"]
    if width == "--gamma" and draw(st.booleans()):
        argv.append(f"--imag={draw(wide)}")
    return argv


class TestFuzzBasis:
    @given(argv=basis_inputs())
    @settings(max_examples=200, deadline=None)
    def test_exit_0_or_2_and_finite_output(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.csv"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv + ["--output", str(out)])
            assert code in (0, 2)
            assert "Traceback" not in err.getvalue()
            if code == 0:
                csv = out.read_text().lower()
                assert "nan" not in csv and "inf" not in csv


class TestFlagValidation:
    @pytest.mark.parametrize("argv, flag", [
        (["kernel", "--gamma", "nan"], "--gamma"),
        (["gram", "--gamma", "inf"], "--gamma"),
        (["gram", "--tol", "nan"], "--tol"),
        (["transform", "--nu", "inf"], "--nu"),
        (["verify", "--gamma", "nan"], "--gamma"),
        (["verify", "--seed", "-1"], "--seed"),
        (["verify", "--seed", "1.5"], "--seed"),
        (["verify", "--quad-order", "4"], "--quad-order"),
        (["transform", "--gamma", "1", "--quad-order", "513"], "--quad-order"),
        (["transform", "--gamma", "1", "--dim", "0"], "--dim"),
    ], ids=["kernel-gamma-nan", "gram-gamma-inf", "gram-tol-nan",
            "transform-nu-inf", "verify-gamma-nan", "verify-seed-negative",
            "verify-seed-fraction", "verify-quad-order-4",
            "transform-quad-order-513", "transform-dim-0"])
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


# the flags of each subcommand: the ones that its routes read
SUBCOMMAND_FLAGS = {
    "kernel": {"--gamma", "--input", "--output"},
    "gram": {"--gamma", "--input", "--output", "--report", "--tol"},
    "transform": {"--gamma", "--nu", "--input", "--output", "--quad-order",
                  "--dim", "--normalization"},
    "basis": {"--gamma", "--nu", "--family", "--n-max", "--grid", "--imag",
              "--output"},
    "verify": {"--gamma", "--quad-order", "--seed", "--report", "--only"},
}

KERNEL_INPUT = {"kernel": "rbf-real", "gamma": 1.0, "pairs": [[[0.0], [1.0]]],
                "points": [[0.0], [1.0]]}
SLICE_INPUT = {"hermite": {"nu": 1.0, "coeffs": [[1, 0, 0, 0]]},
               "grid": {"points": [[0.1, 0.2, 0, 0]]}}
C2_INPUT = {"hermite": {"nu": 1.0, "terms": [[[1, 0], [1.0, 0.0]]]},
            "grid": {"points": [[[0.1, 0.2], [0, 0]]]}}
# Hermite scale 2 = 2/gamma^2 at --gamma 1: the exact routes
EXACT_SLICE_INPUT = {"hermite": {"nu": 2.0, "coeffs": [[1, 0, 0, 0]]},
                     "grid": {"points": [[0.1, 0.2, 0, 0]]}}
EXACT_C2_INPUT = {"hermite": {"nu": 2.0, "terms": [[[1, 0], [1.0, 0.0]]]},
                  "grid": {"points": [[[0.1, 0.2], [0, 0]]]}}


def command_argv(tmp_path, command, payload=None):
    """A working invocation of ``command`` that writes its CSV, and its
    report if it takes one, into tmp_path; payload is the --input JSON."""
    argv = {"kernel": ["kernel"], "gram": ["gram", "--report", "report.json"],
            "transform": ["transform", "--gamma", "1"],
            "basis": ["basis", "--family", "hermite-psi", "--nu", "2"],
            "verify": ["verify", "--only", "psd", "--report", "report.json"]}[command]
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    if payload is not None:
        (tmp_path / "in.json").write_text(json.dumps(payload))
        argv += ["--input", str(tmp_path / "in.json")]
    return argv + ["--output", str(tmp_path / "out.csv")] * (command != "verify")


def outputs(tmp_path) -> list:
    return sorted(p.name for p in tmp_path.iterdir() if p.name != "in.json")


class TestFlagSurface:
    """Each subcommand takes only the flags that its routes read; a flag
    that it takes but the chosen route does not read exits 2 naming it."""

    def test_each_subcommand_takes_the_flags_its_routes_read(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        taken = {name: {flag for a in p._actions for flag in a.option_strings}
                 - {"-h", "--help"} for name, p in sub.choices.items()}
        assert taken == SUBCOMMAND_FLAGS
        assert sum(map(len, taken.values())) == 27

    @pytest.mark.parametrize("command, payload, flag, value", [
        ("kernel", KERNEL_INPUT, "--quad-order", "80"),
        ("kernel", KERNEL_INPUT, "--dim", "1"),
        ("gram", KERNEL_INPUT, "--quad-order", "80"),
        ("gram", KERNEL_INPUT, "--dim", "1"),
        ("basis", None, "--quad-order", "80"),
        ("basis", None, "--dim", "1"),
        ("verify", None, "--dim", "1"),
        ("verify", None, "--output", "out.csv"),
        ("verify", None, "--normalization", "literal"),
        ("verify", None, "--tol", "2"),
        ("transform", SLICE_INPUT, "--nu", "2"),
        ("basis", None, "--gamma", "1"),
    ], ids=["kernel-quad-order", "kernel-dim", "gram-quad-order", "gram-dim",
            "basis-quad-order", "basis-dim", "verify-dim", "verify-output",
            "verify-normalization", "verify-tol", "transform-gamma-and-nu",
            "basis-gamma-and-nu"])
    def test_flag_not_taken_exits_2(self, tmp_path, capsys, command, payload,
                                    flag, value):
        argv = command_argv(tmp_path, command, payload)
        code, _, _ = run_cli(argv, capsys)
        assert code == 0 and outputs(tmp_path)
        for name in outputs(tmp_path):
            (tmp_path / name).unlink()
        if value.endswith(".csv"):
            value = str(tmp_path / value)
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert outputs(tmp_path) == []

    @pytest.mark.parametrize("command, payload, route, flag", [
        ("transform", C2_INPUT, ["--dim", "2"], "--normalization=literal"),
        ("transform", C2_INPUT, ["--dim", "2"], "--normalization=unitary"),
        ("basis", None, [], "--imag=0"),
        ("basis", None, ["--family", "hermite-h"], "--imag=0.5"),
        ("kernel", KERNEL_INPUT, [], "--gamma=2"),
        ("gram", KERNEL_INPUT, [], "--gamma=2"),
        ("kernel", {"kernel": "polynomial", "degree": 2,
                    "pairs": [[[0.5], [1.0]]]}, [], "--gamma=1"),
        ("gram", {"kernel": "exponential", "points": [[0.5], [1.0]]}, [],
         "--gamma=1"),
        ("gram", {"kernel": "fock", "alpha": 2.0, "points": [[[0.5, 0]]]}, [],
         "--gamma=1"),
        ("transform", EXACT_SLICE_INPUT, [], "--quad-order=80"),
        ("transform", EXACT_C2_INPUT, ["--dim", "2"], "--quad-order=80"),
        ("verify", None, [], "--gamma=3"),
        ("verify", None, [], "--quad-order=9"),
        ("verify", None, [], "--seed=-5"),
        ("verify", None, ["--only", "fock-orthogonality"], "--seed=3"),
        ("verify", None, ["--only", "rbf-orthonormality"], "--gamma=1"),
    ], ids=["c2-literal", "c2-unitary", "hermite-psi-imag", "hermite-h-imag",
            "kernel-input-gamma", "gram-input-gamma", "kernel-polynomial",
            "gram-exponential", "gram-fock-alpha", "exact-quad-order",
            "c2-exact-quad-order", "psd-gamma", "psd-quad-order",
            "psd-negative-seed", "orthogonality-seed", "orthonormality-gamma"])
    def test_flag_the_route_does_not_read_exits_2(self, tmp_path, capsys,
                                                  command, payload, route,
                                                  flag):
        argv = command_argv(tmp_path, command, payload) + route
        assert run_cli(argv, capsys)[0] == 0
        for name in outputs(tmp_path):
            (tmp_path / name).unlink()
        code, out, err = run_cli(argv + [flag], capsys)
        assert code == 2 and out == "" and outputs(tmp_path) == []
        assert err.startswith("error: ") and flag.split("=")[0] in err

    def test_fock_without_alpha_reads_gamma(self, tmp_path, capsys):
        payload = {"kernel": "fock", "pairs": [[[0.5, 0], [1.0, 0]]]}
        code, out, _ = run_input(tmp_path, capsys, "kernel", payload,
                                 "--gamma", "1")
        assert code == 0
        assert float(out.splitlines()[1].split(",")[1]) == math.exp(2 * 0.5)

    def test_repeated_criterion_exits_2(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, out, err = run_cli(["verify", "--only", "psd,psd", "--report",
                                  str(report)], capsys)
        assert code == 2 and out == "" and not report.exists()
        assert err == "error: verify: --only names 'psd' more than once\n"


class TestVerifyCommand:
    def test_nan_deviation_fails(self, capsys, monkeypatch):
        from rbffock import verify
        nan = Quaternion(math.nan, 0.0, 0.0, 0.0)
        monkeypatch.setattr(verify, "kernel_sum_truncated", lambda *_: nan)
        code, out, _ = run_cli(["verify", "--only", "kernel-sum"], capsys)
        assert code == 1
        assert "[FAIL] kernel-sum-truncation" in out

    def test_nan_value_reported_as_null(self, tmp_path, capsys, monkeypatch):
        from rbffock import verify
        nan = Quaternion(math.nan, 0.0, 0.0, 0.0)
        monkeypatch.setattr(verify, "kernel_sum_truncated", lambda *_: nan)
        report = tmp_path / "report.json"
        code, _, _ = run_cli(["verify", "--only", "kernel-sum",
                              "--report", str(report)], capsys)
        assert code == 1
        data = json.loads(report.read_text(), parse_constant=_reject_constant)
        assert data["passed"] is False
        assert [c["value"] for c in data["checks"]] == [None, None]
        assert not any(c["pass"] for c in data["checks"])

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

    @pytest.mark.parametrize("gamma", ["1e-200", "1e200"])
    def test_gamma_with_nu_out_of_range_exits_2(self, capsys, gamma):
        code, out, err = run_cli(["verify", "--gamma", gamma,
                                  "--only", "reproduce"], capsys)
        assert code == 2 and out == ""
        assert "error: verify: gamma must give a positive finite nu" in err

    @pytest.mark.parametrize("flags, named", [
        (["--quad-order", "24"], "exceeds quadrature exactness 47; raise quad_order"),
        (["--only", "fock-orthogonality", "--quad-order", "8"], "raise quad_order"),
        (["--only", "reproduce", "--gamma", "0.05"], "overflows double range"),
    ], ids=["quad-order-24", "quad-order-8", "gamma-0.05"])
    def test_refused_check_exits_2_with_one_error_line(self, capsys, flags,
                                                       named):
        code, out, err = run_cli(["verify", *flags], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: verify: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("flags", [
        ["--quad-order", "25"],
        ["--only", "fock-orthogonality", "--quad-order", "13"],
    ], ids=["quad-order-25", "orthogonality-quad-order-13"])
    def test_smallest_exact_orders_pass(self, capsys, flags):
        code, out, _ = run_cli(["verify", *flags], capsys)
        assert code == 0 and "all checks passed" in out

    def test_unitarity_passes_at_the_largest_order(self, capsys):
        code, out, err = run_cli(["verify", "--quad-order", "512",
                                  "--only", "sb-unitarity"], capsys)
        assert code == 0 and err == "" and "all checks passed" in out

    def test_report_config_holds_the_settings_read(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, _, _ = run_cli(["verify", "--only", "psd", "--seed", "3",
                              "--report", str(report)], capsys)
        assert code == 0
        assert json.loads(report.read_text())["config"] == {"seed": 3}

    def test_default_report_checks_both_conventions(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, _, _ = run_cli(["verify", "--report", str(report)], capsys)
        data = json.loads(report.read_text())
        assert code == 0 and data["passed"] is True
        assert list(data["config"]) == ["gamma", "quad_order", "seed"]
        for check in ("sb-unitarity", "sb-quadrature-vs-exact",
                      "rbf-sb-kernel-envelope-match"):
            conventions = [c["params"]["normalization"] for c in data["checks"]
                           if c["check"] == check and "normalization" in c["params"]]
            assert conventions == list(NORMALIZATIONS), check

    @pytest.mark.parametrize("name", sorted(CRITERIA))
    def test_every_setting_the_criterion_does_not_read_is_refused(
            self, tmp_path, capsys, name):
        report = tmp_path / "report.json"
        unread = [flag for setting, flag in (("gamma", "--gamma"),
                                             ("quad_order", "--quad-order"),
                                             ("seed", "--seed"))
                  if setting not in reads([name])]
        for flag in unread:
            code, out, err = run_cli(["verify", "--only", name, flag, "80",
                                      "--report", str(report)], capsys)
            assert code == 2 and out == "" and not report.exists()
            assert err == f"error: verify: no selected criterion reads {flag}\n"

    def test_unknown_criterion_exits_2(self, capsys):
        code, _, err = run_cli(["verify", "--only", "nope"], capsys)
        assert code == 2
        assert "nope" in err

    def test_empty_criterion_names_exit_2(self, tmp_path, capsys):
        # an empty --only selects nothing, as an empty name in a list does
        report = tmp_path / "report.json"
        for only in ("", " ", "isometry,"):
            code, out, err = run_cli(["verify", f"--only={only}", "--report",
                                      str(report)], capsys)
            assert code == 2 and out == "" and not report.exists()
            assert "unknown criteria ['']" in err

    def test_failure_exit_code(self, capsys, monkeypatch):
        # one route of the product factorization off by 1e-6 fails its row
        from rbffock import verify
        kernel = verify.rbf_kernel_c
        monkeypatch.setattr(verify, "rbf_kernel_c",
                            lambda *args: kernel(*args) * (1.0 + 1e-6))
        code, out, _ = run_cli(["verify", "--only", "factorizations"], capsys)
        assert code == 1
        assert "[FAIL] kernel-product-factorization" in out


def test_importing_the_cli_builds_nothing():
    """Starting the CLI builds no rule, grid, Fock weights or slice frame;
    perfbench's ``setup_s`` times this import in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = ("import rbffock.cli\n"
            "from rbffock import _quatarray, quadrature, spaces\n"
            "print([f.cache_info().currsize for f in (quadrature.gauss_hermite,"
            " spaces._grid, spaces._weights, _quatarray._frame)])")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert run.stdout == "[0, 0, 0, 0]\n"
