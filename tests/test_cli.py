"""CLI surface: exit codes, formats, determinism."""

import argparse
import importlib
import importlib.util
import json
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from metricembed import __version__, embeddability, metric, validate_metric
from metricembed.cli import main
from metricembed.determinants import DEFAULT_TOL_DET
from metricembed.errors import TriangleViolationError

from conftest import line_with_triangle, part_psd_flags, plane_with_star, square_with_star, square_with_tetrahedron

EQ = {"labels": ["a", "b", "c"], "distances": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}
STAR = [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]]
#: a JSON integer too large for a float
HUGE = "9" * 401


@pytest.fixture
def eq_file(tmp_path):
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(EQ))
    return str(path)


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.csv"
    path.write_text("\n".join(",".join(str(v) for v in row) for row in STAR))
    return str(path)


@pytest.fixture
def circle_cfg(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"type": "euclidean", "dim": 2,
                                "region": {"kind": "sphere-surface", "center": [0, 0], "radius": 1.0},
                                "p": [1, 0]}))
    return str(path)


class TestValidate:
    def test_valid(self, eq_file, capsys):
        assert main(["validate", eq_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] and out["n_points"] == 3

    def test_huge_distances_validate_without_warning(self, tmp_path, capsys):
        # symmetrizing and the triangle check both summed past the largest
        # float, and each wrote a RuntimeWarning to stderr
        path = tmp_path / "huge.json"
        path.write_text(json.dumps([[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_triangle_violation_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,3\n1,0,1\n3,1,0\n")
        assert main(["validate", str(path)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert "(0, 2, 1)" in out["error"]

    def test_malformed_json_exit_3(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 3

    def test_missing_file_exit_3(self, capsys):
        assert main(["validate", "/nonexistent/sp.json"]) == 3

    @pytest.mark.parametrize("labels", [5, "abc", {"a": 1, "b": 2, "c": 3}], ids=["number", "string", "object"])
    def test_labels_not_a_list_exit_3(self, labels, tmp_path, capsys):
        # a string or an object of the right size once gave its characters
        # or its keys as labels
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"labels": labels, "distances": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}))
        assert main(["validate", str(path)]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["exit_code"] == 3 and out["error"].startswith("cannot read space: labels must be a list")


    def test_deeply_nested_document_exit_3(self, tmp_path, capsys):
        # json's RecursionError escaped the reader's handler: a traceback with exit 1
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000)
        assert main(["validate", str(path)]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["exit_code"] == 3 and out["error"].startswith("cannot read space: maximum recursion depth")


class TestCheckEmbed:
    def test_yes_exit_0(self, eq_file, capsys):
        assert main(["check-embed", eq_file, "--dim", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["verdict"] == "yes"

    def test_no_with_witness_exit_1(self, eq_file, capsys):
        assert main(["check-embed", eq_file, "--dim", "1"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["witness_tuple"] == [0, 1, 2]

    def test_star_rejected_all_criteria(self, star_file, capsys):
        for crit in ("menger", "schoenberg", "blumenthal", "all"):
            assert main(["check-embed", star_file, "--dim", "3", "--criterion", crit]) == 1
            capsys.readouterr()

    def test_realize(self, eq_file, capsys):
        assert main(["check-embed", eq_file, "--dim", "2", "--realize"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["residual"] < 1e-9
        assert len(out["result"]["coordinates"]) == 3

    def test_blumenthal_realize(self, eq_file, capsys):
        assert main(["check-embed", eq_file, "--dim", "2", "--criterion", "blumenthal", "--realize"]) == 0
        out = json.loads(capsys.readouterr().out)["result"]
        assert out["verdict"] == "yes" and out["witness_tuple"] == [0, 1, 2]
        assert out["achieved_dim"] == 2 and len(out["coordinates"]) == 3
        assert out["residual"] < 1e-9
        # no coordinates on a no
        assert main(["check-embed", eq_file, "--dim", "1", "--criterion", "blumenthal", "--realize"]) == 1
        out = json.loads(capsys.readouterr().out)["result"]
        assert "coordinates" not in out and out["residual"] is None

    @pytest.mark.parametrize("criterion", ["menger", "schoenberg", "all"])
    def test_engine_result_fields(self, criterion, eq_file, star_file, capsys):
        # cli renders an engine verdict's result from its fields: no
        # witness, an order n+1 witness that fails to vanish, a sign witness
        keys = {"criterion", "n", "verdict", "witness_tuple", "witness_value", "witness_kind", "borderline_count",
                "residual"}
        for path, dim, kind in ((eq_file, 2, None), (eq_file, 1, "vanishing(order 2)"), (star_file, 3, "sign(k=3)")):
            main(["check-embed", path, "--dim", str(dim), "--criterion", criterion])
            result = json.loads(capsys.readouterr().out)["result"]
            assert set(result) == keys and result["n"] == dim and result["witness_kind"] == kind, (path, dim)

    def test_text_format(self, eq_file, capsys):
        assert main(["check-embed", eq_file, "--dim", "2", "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert "verdict: yes" in text

    def test_dim_below_one_rejected(self, eq_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check-embed", eq_file, "--dim", "0"])
        assert exc.value.code == 2
        assert "argument --dim" in capsys.readouterr().err


class TestMinDim:
    def test_equilateral(self, eq_file, capsys):
        assert main(["min-dim", eq_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["m"] == 2

    def test_star_infeasible(self, star_file, capsys):
        assert main(["min-dim", star_file]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["feasible"] is False
        assert out["result"]["psd"]["witness_subset"] is not None

    def test_tiny_star_infeasible(self, tmp_path, capsys):
        # a unit square with a K_{1,3} of scale 1e-6 at its centre embeds in
        # no E^n, as check-embed says at every n
        path = tmp_path / "square_star.json"
        path.write_text(json.dumps({"labels": [f"x{i}" for i in range(8)],
                                    "distances": square_with_star(1e-6).dist.tolist()}))
        assert main(["min-dim", str(path), "--realize"]) == 1
        out = json.loads(capsys.readouterr().out)["result"]
        assert out["feasible"] is False and "coordinates" not in out
        assert out["psd"]["witness_subset"] == [4, 5, 6, 7] and out["base_point"] == 4
        assert main(["check-embed", str(path), "--dim", "3"]) == 1
        assert json.loads(capsys.readouterr().out)["result"]["witness_tuple"] == [4, 5, 6, 7]

    def test_near_euclidean_at_large_rank_is_infeasible(self, tmp_path, monkeypatch, capsys):
        # tools/accuracy.py's near-Euclidean space of rank 200: 203 points
        # whose tau is 2 X X^T less one eigenvalue of 4e-4 max|x_i|^2. A
        # band on the product of up to 200 heights read it feasible, m = 59
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
        from accuracy import near_euclidean

        path = tmp_path / "near.json"
        path.write_text(json.dumps({"distances": near_euclidean(200, 1e-4, 0)[0].tolist()}))
        assert main(["min-dim", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["result"]["feasible"] is False

    @pytest.mark.parametrize("scale", [0.01, 1.0, 30.0])
    def test_snowflake_reads_full_rank(self, tmp_path, scale, capsys):
        # d^(1/2) of 400 distinct points has positive definite tau
        # (Schoenberg 1938), so its rank is 399. A band on the product of k
        # heights read m = 25, realized with a residual of 0.25 D
        path = tmp_path / "snowflake.json"
        d = metric.euclidean_matrix(np.random.default_rng(0).normal(size=(400, 4))) ** 0.5
        path.write_text(json.dumps({"distances": (scale * d).tolist()}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["min-dim", str(path)]) == 0
            assert json.loads(capsys.readouterr().out)["result"]["m"] == 399
            for n, code, verdict in ((398, 1, "no"), (399, 0, "yes")):
                assert main(["check-embed", str(path), "--dim", str(n)]) == code
                assert json.loads(capsys.readouterr().out)["result"]["verdict"] == verdict

    @pytest.mark.parametrize("dist", [STAR, [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]],
                             ids=["star", "4-cycle"])
    def test_unit_free_at_extreme_scales(self, tmp_path, dist, capsys):
        # every verdict, exit code and witness value is the same at 1e-60,
        # 1 and 1e60, and finite. Every facet of the 4-cycle is flat, so its
        # relative height is read on its pairs. The determinants and their
        # powers of the scale under- and overflowed here
        readings = []
        for scale in (1e-60, 1.0, 1e60):
            path = tmp_path / f"{scale:g}.json"
            path.write_text(json.dumps({"distances": (scale * np.array(dist, dtype=float)).tolist()}))
            reading = []
            for argv in (["min-dim"], *(["check-embed", "--dim", str(n)] for n in (1, 2, 3))):
                code = main([argv[0], str(path), *argv[1:]])
                out = capsys.readouterr().out
                assert "Infinity" not in out and "NaN" not in out
                reading.append((code, json.loads(out)["result"]))
            readings.append(reading)
        assert readings[0] == readings[1] == readings[2]
        assert {code for code, _ in readings[0]} == {1}

    def test_pair(self, tmp_path, capsys):
        path = tmp_path / "pair.csv"
        path.write_text("0,5\n5,0\n")
        assert main(["min-dim", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["m"] == 1

    def test_tol_det_reaches_factorization(self, tmp_path, capsys):
        # a tetrahedron of height 1e-3: its volume is outside the default
        # band and inside a band of 1e-3, for min-dim and for realization
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.3, 1e-3]])
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"labels": list("abcd"),
                                    "distances": np.linalg.norm(pts[:, None] - pts[None], axis=-1).tolist()}))
        for tol, m in (("1e-8", 3), ("1e-3", 2)):
            assert main(["min-dim", str(path), "--realize", "--tol-det", tol]) == 0
            out = json.loads(capsys.readouterr().out)["result"]
            assert out["m"] == m and len(out["coordinates"][0]) == m, tol
            assert main(["check-embed", str(path), "--dim", "3", "--realize", "--tol-det", tol]) == 0
            assert json.loads(capsys.readouterr().out)["result"]["achieved_dim"] == m, tol

    def test_wide_zero_band_says_no_wrong_yes(self, star_file, capsys):
        # K_{1,3} is in no E^n. Under a band of 0.5 on the degree-k product
        # of heights check-embed --dim 1 answered yes with coordinates that
        # missed a distance by 2.0, and min-dim read m = 1
        code = main(["check-embed", star_file, "--dim", "1", "--tol-det", "0.5", "--realize"])
        result = json.loads(capsys.readouterr().out)["result"]
        assert code != 0 and result["verdict"] != "yes", result.get("residual")
        assert main(["min-dim", star_file, "--tol-det", "0.5"]) != 0
        assert json.loads(capsys.readouterr().out)["result"]["m"] != 1

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 17")
    def test_wide_zero_band_one_exit_code(self, star_file, capsys):
        # at --tol-det 0.5 min-dim reads the star infeasible (exit 1) on the
        # height of the last point its factorization took, while check-embed
        # reads undetermined (exit 4) on the tuple's smallest height
        assert main(["min-dim", star_file, "--tol-det", "0.5"]) == main(
            ["check-embed", star_file, "--dim", "1", "--tol-det", "0.5"])

    def test_tol_det_below_one(self, star_file, capsys):
        # a relative squared height never exceeds 2. From --tol-det 1 on the
        # star answered yes at --dim 1 with residual 2.0 and min-dim read
        # m = 1, and from 2 on m = 0; just below 1 it is no Euclidean space
        for tol in ("1", "1.5", "1.99", "10"):
            for argv in (["check-embed", star_file, "--dim", "1", "--realize"], ["min-dim", star_file],
                         ["scan", star_file, "--dim", "1"]):
                with pytest.raises(SystemExit) as exc:
                    main(argv + ["--tol-det", tol])
                assert exc.value.code == 2
                err = capsys.readouterr().err
                assert err.endswith(f"metricembed {argv[0]}: error: argument --tol-det: must be in (0, 1), got {tol}\n")
        assert main(["check-embed", star_file, "--dim", "1", "--realize", "--tol-det", "0.99"]) == 4
        assert json.loads(capsys.readouterr().out)["result"]["verdict"] == "undetermined"
        assert main(["min-dim", star_file, "--tol-det", "0.99"]) == 1
        assert json.loads(capsys.readouterr().out)["result"]["feasible"] is False


class TestOneDecision:
    """Every finite command factors each part of the space it reads exactly
    once, through the first that is not PSD, whichever engines, basis and
    realization it reads."""

    SPACES = [pytest.param(lambda: validate_metric(EQ["distances"]), 2, id="triangle"),
              pytest.param(lambda: square_with_tetrahedron(1e-5), 3, id="tetrahedron-1e-05"),
              pytest.param(lambda: square_with_star(1e-6), 3, id="star-1e-06"),
              # 6 parts, the 4th not PSD
              pytest.param(lambda: plane_with_star(300), 3, id="plane-with-star-300")]
    COMMANDS = ([["check-embed", "--criterion", c] + r
                 for c in ("menger", "schoenberg", "blumenthal", "all") for r in ([], ["--realize"])]
                + [["min-dim"], ["min-dim", "--realize"]])

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("build,n", SPACES)
    def test_one_factorization_per_part(self, build, n, argv, tmp_path, monkeypatch, capsys):
        space = build()
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"labels": list(space.labels), "distances": space.dist.tolist()}))
        psd = part_psd_flags(space)
        parts = psd.index(False) + 1 if False in psd else len(psd)
        calls = []
        factor = embeddability.psd_check
        monkeypatch.setattr(embeddability, "psd_check", lambda *a, **k: calls.append(1) or factor(*a, **k))
        dim = ["--dim", str(n)] if argv[0] == "check-embed" else []
        code = main([argv[0], str(path)] + dim + argv[1:])
        assert code in (0, 1)
        assert len(calls) == parts
        assert json.loads(capsys.readouterr().out)["exit_code"] == code


@pytest.mark.parametrize("build,m", [pytest.param(square_with_tetrahedron, 3, id="tetrahedron-1e-05"),
                                     pytest.param(line_with_triangle, 2, id="triangle-1e-05")])
def test_realize_continues_below_the_band(build, m, tmp_path, capsys):
    # the factor over all points reads a feature of edge 1e-5 as flat; the
    # coordinates the commands print have the feature's m columns
    edge = 1e-5
    space = build(edge)
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"distances": space.dist.tolist()}))
    assert main(["validate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    for argv in (["min-dim", "--realize"], ["check-embed", "--dim", str(m), "--realize"]):
        assert main([argv[0], str(path)] + argv[1:]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result.get("m", result.get("achieved_dim")) == m
        coords = np.array(result["coordinates"])
        assert coords.shape == (space.n_points, m)
        assert result["residual"] <= 1e-3 * edge
        assert np.max(np.abs(metric.euclidean_matrix(coords) - space.dist)) <= 1e-3 * edge


class TestUndetermined:
    def test_borderline_space_exit_4(self, tmp_path, star_file, monkeypatch, capsys):
        # triangle slack of 1e-13: valid as a metric, and its minutely
        # negative signed determinant lies inside the zero band, so it is
        # zero and the triangle embeds
        eps = 1e-13
        path = tmp_path / "border.json"
        path.write_text(json.dumps({"labels": ["a", "b", "c"],
                                    "distances": [[0, 1, 2 + eps], [1, 0, 1], [2 + eps, 1, 0]]}))
        assert main(["check-embed", str(path), "--dim", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["borderline_count"] == 0

        # engines whose determinant on the factorization's witness lands in
        # the band do not confirm it: undetermined, exit 4
        monkeypatch.setattr(embeddability, "tuple_heights", lambda dm: (0.0, 0.0))
        assert main(["check-embed", star_file, "--dim", "3"]) == 4
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["verdict"] == "undetermined"
        assert out["result"]["borderline_count"] == 1
        assert out["result"]["witness_tuple"] == [0, 1, 2, 3]

    def test_seed_only_on_scan(self, eq_file, capsys):
        # nothing in the finite path is random
        with pytest.raises(SystemExit) as exc:
            main(["check-embed", eq_file, "--dim", "2", "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


def _cli_process(argv: list[str], stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=None,
                 timeout=120, **env) -> subprocess.CompletedProcess:
    """Run ``python -m metricembed.cli`` in a child process, as the
    ``metricembed`` script runs. PYTHONUNBUFFERED is unset there, so output
    the process never flushes is lost, as it would be in use."""
    child_env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    child_env.update(PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), **env)
    return subprocess.run([sys.executable, "-m", "metricembed.cli", *argv], stdout=stdout,
                          stderr=stderr, env=child_env, preexec_fn=preexec_fn, timeout=timeout)


def _capped_cli(argv: list[str], cap: int = 3 * 1024**3) -> subprocess.CompletedProcess:
    """Run the CLI in a child process under an address-space cap set in the
    child only, so a runaway allocation fails there instead of starving
    the machine."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return _cli_process(argv, preexec_fn=limit)


class TestScan:
    def test_tol_metric_not_on_scan(self, circle_cfg, capsys):
        # a scan reads no distance matrix; its config still echoes the key
        with pytest.raises(SystemExit) as exc:
            main(["scan", circle_cfg, "--dim", "1", "--tol-metric", "1e-9"])
        assert exc.value.code == 2
        assert "--tol-metric" in capsys.readouterr().err
        assert main(["scan", circle_cfg, "--dim", "1", "--samples", "8", "--scales", "0.5:0.5:3"]) in (0, 1, 4)
        assert json.loads(capsys.readouterr().out)["config"]["tol_metric"] is None

    def test_circle_consistent_and_deterministic(self, circle_cfg, tmp_path, capsys):
        args = ["scan", circle_cfg, "--dim", "1", "--samples", "24", "--seed", "11"]
        a_path, b_path = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(args + ["--out", a_path]) == 0
        assert main(args + ["--out", b_path]) == 0
        a = (tmp_path / "a.json").read_text()
        assert a == (tmp_path / "b.json").read_text()
        payload = json.loads(a)
        assert payload["result"]["verdict"] == "consistent-with-embeddable"
        assert payload["config"]["seed"] == 11

    def test_stdout_byte_identical_at_fixed_seed(self, tmp_path):
        # two interpreters with different hash seeds print the same bytes
        cfg = tmp_path / "square.json"
        cfg.write_text(json.dumps({"type": "euclidean", "dim": 2, "p": [0.45, 0.55],
                                   "region": {"kind": "cube", "low": [0, 0], "high": [1, 1]}}))
        runs = []
        for hash_seed in ("1", "2"):
            done = _cli_process(["scan", str(cfg), "--dim", "1", "--samples", "16", "--seed", "5"],
                                PYTHONHASHSEED=hash_seed)
            assert done.returncode == 1, done.stderr
            runs.append(done.stdout)
        assert runs[0] == runs[1]
        out = json.loads(runs[0])
        assert out["config"]["sampler_version"] == 2
        assert 0.0 <= out["result"]["max_mode_discrepancy"] <= 1e-9

    def test_large_samples_within_memory_cap(self, tmp_path):
        # the cloud stops growing at CLOUD_CAP points: 8000 samples per
        # scale fit under a 3 GiB address-space cap and still print JSON
        cfg = tmp_path / "plane.json"
        cfg.write_text(json.dumps({"type": "euclidean", "dim": 2,
                                   "region": {"kind": "cube", "low": [0, 0], "high": [1, 1]},
                                   "p": [0, 0]}))
        done = _capped_cli(["scan", str(cfg), "--dim", "1", "--samples", "8000", "--scales", "0.5:0.5:2"])
        assert done.returncode == 1, done.stderr[-2000:]
        out = json.loads(done.stdout)
        assert out["result"]["verdict"] == "refuted"
        assert {s["samples_per_scale"] for s in out["result"]["scans"]} == {8000}

    def test_out_of_memory_exit_3(self, tmp_path):
        # a billion tuples per order and rung do not fit under the cap: the
        # error JSON goes where the command's output would, with no traceback
        cfg = tmp_path / "plane.json"
        cfg.write_text(json.dumps({"type": "euclidean", "dim": 2,
                                   "region": {"kind": "cube", "low": [0, 0], "high": [1, 1]},
                                   "p": [0, 0]}))
        argv = ["scan", str(cfg), "--dim", "1", "--samples", "1000000000"]
        done = _capped_cli(argv)
        assert done.returncode == 3, done.stderr[-2000:]
        assert b"Traceback" not in done.stderr
        out = json.loads(done.stdout)
        assert out["exit_code"] == 3 and out["error"].startswith("out of memory")
        out = tmp_path / "oom.json"
        done = _capped_cli(argv + ["--out", str(out)])
        assert done.returncode == 3 and done.stdout == b"", done.stderr[-2000:]
        assert json.loads(out.read_text())["error"].startswith("out of memory")

    def test_huge_underflowing_ladder_rejected_at_parse(self, circle_cfg):
        # the last rung 0.5 * 0.5^(10^8 - 1) underflows to 0: refused
        # without building the ladder, which would not fit under the cap
        done = _capped_cli(["scan", circle_cfg, "--dim", "1", "--scales", "0.5:0.5:100000000"])
        assert done.returncode == 2, done.stderr[-2000:]
        assert b"Traceback" not in done.stderr
        assert b"argument --scales" in done.stderr and b"underflows" in done.stderr

    @pytest.mark.parametrize("pitch", ["0", "1e400"])
    def test_bad_pitch_cannot_build_space(self, tmp_path, pitch, capsys):
        # 1e400 reads as inf; either pitch made the marked point NaN
        cfg = tmp_path / "grid.json"
        cfg.write_text('{"type": "euclidean", "dim": 2, "p": [0, 0], '
                       '"region": {"kind": "cube", "low": [0, 0], "high": [1, 1], "pitch": %s}}' % pitch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scan", str(cfg), "--dim", "1", "--samples", "8"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["error"].startswith("cannot build space: pitch must be a positive finite number")

    @pytest.mark.parametrize("p,region,error", [
        ("[0, 0]", '{"kind": "sphere-surface", "center": [0, 0], "radius": 0}', "radius must be"),
        ("[0, 0]", '{"kind": "sphere-surface", "center": [0, 0], "radius": -0.0}', "radius must be"),
        ("[1, 0]", '{"kind": "sphere-surface", "center": [0, 0], "radius": NaN}', "radius must be"),
        ("[1, 0]", '{"kind": "sphere-surface", "center": [0, NaN], "radius": 1}', "center has a NaN"),
        ("[NaN, 0]", '{"kind": "cube", "low": [0, 0], "high": [1, 1]}', "marked point has a NaN"),
        ("[0, 0]", '{"kind": "cube", "low": [NaN, 0], "high": [1, 1]}', "low has a NaN"),
        ("[0, 0]", '{"kind": "cube", "low": [0, 0], "high": [1, NaN]}', "high has a NaN"),
        ("[1, 0]", '{"kind": "cube", "low": [0, 0], "high": [1, 1], "pitch": 0.6}', "p snapped to the pitch=[1.2, 0.0]"),
    ], ids=["radius-0", "radius-minus-0", "radius-nan", "center-nan", "p-nan", "low-nan", "high-nan", "p-snapped-out"])
    def test_degenerate_region_cannot_build_space(self, tmp_path, p, region, error, capsys):
        # a zero radius divided by zero in the sampler, a NaN one overflowed,
        # a NaN coordinate passed the region checks, which compare false, and
        # a marked point snapped out of its cube failed only after 500 draws
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"type": "euclidean", "dim": 2, "p": %s, "region": %s}' % (p, region))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scan", str(cfg), "--dim", "1", "--samples", "8"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["error"].startswith(f"cannot build space: {error}")

    def test_infinite_cube_bounds_scan(self, tmp_path, capsys):
        cfg = tmp_path / "plane.json"
        cfg.write_text('{"type": "euclidean", "dim": 2, "p": [0, 0], '
                       '"region": {"kind": "cube", "low": [-Infinity, -Infinity], "high": [Infinity, Infinity]}}')
        assert main(["scan", str(cfg), "--dim", "2", "--samples", "8"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["verdict"] == "consistent-with-embeddable"

    @pytest.mark.parametrize("p,region,error", [
        ("[0, 0]", '{"kind": "cube", "low": [-Infinity, -Infinity], "high": [Infinity, Infinity], "pitch": 0.5}',
         "a pitch needs finite low bounds"),
        ("[0, Infinity]", '{"kind": "cube", "low": [-Infinity, -Infinity], "high": [Infinity, Infinity]}',
         "marked point has an infinite coordinate"),
        ("[Infinity, 0]", '{"kind": "sphere-surface", "center": [Infinity, 0], "radius": 1}',
         "marked point has an infinite coordinate"),
    ], ids=["pitch-infinite-low", "p-infinite", "sphere-infinite"])
    def test_non_finite_coordinates_cannot_build_space(self, tmp_path, p, region, error, capsys):
        # each made the marked point or a sample NaN, and the sampler then
        # drew 500 batches before failing with a misleading message
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"type": "euclidean", "dim": 2, "p": %s, "region": %s}' % (p, region))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scan", str(cfg), "--dim", "1", "--samples", "8"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["error"].startswith(f"cannot build space: {error}")

    @pytest.mark.parametrize("cfg,error", [
        ('{"type": "euclidean", "dim": 2, "p": ["0.5", true], '
         '"region": {"kind": "cube", "low": [0, false], "high": ["1", 1]}}',
         "marked point has a coordinate that is not a number: ['0.5', True]"),
        ('{"type": "euclidean", "dim": 2, "p": [0.5, 0.5], "region": {"kind": "cube", "low": [0, false]}}',
         "low has a coordinate that is not a number: [0, False]"),
        ('{"type": "euclidean", "dim": 2, "p": [0.5, 0.5], "region": {"kind": "cube", "high": ["1", 1]}}',
         "high has a coordinate that is not a number: ['1', 1]"),
        ('{"type": "euclidean", "dim": 2, "p": [1, 0], '
         '"region": {"kind": "sphere-surface", "center": [null, 0], "radius": 1}}',
         "center has a coordinate that is not a number: [None, 0]"),
        ('{"type": "euclidean", "dim": 2, "p": [0.5, "a"], "region": {"kind": "cube"}}',
         "marked point has a coordinate that is not a number: [0.5, 'a']"),
        ('{"type": "snowflake", "alpha": 0.5, "dim": 1, "p": [true]}',
         "marked point has a coordinate that is not a number: [True]"),
    ], ids=["p-string-bool", "low-bool", "high-string", "center-null", "p-letter", "snowflake-p-bool"])
    def test_coordinates_that_are_not_numbers_cannot_build_space(self, tmp_path, cfg, error, capsys):
        # strings and bools were read as numbers, so the first config
        # scanned with exit 0; null was read as NaN, and a letter failed in
        # numpy without naming the field
        path = tmp_path / "bad.json"
        path.write_text(cfg)
        assert main(["scan", str(path), "--dim", "1", "--samples", "8"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["exit_code"] == 3 and out["error"] == f"cannot build space: {error}"

    @pytest.mark.parametrize("cfg,error", [
        ('{"type": "euclidean", "dim": 2, "p": [%s, 0], "region": {"kind": "cube"}}' % HUGE,
         "marked point has a coordinate that is not a number: [999"),
        ('{"type": "euclidean", "dim": 2, "p": [0, 0], "region": {"kind": "cube", "pitch": %s}}' % HUGE,
         "pitch must be a positive finite number, got 999"),
        ('{"type": "euclidean", "dim": 1e400, "p": [0, 0], "region": {"kind": "cube"}}',
         "dimension must be an integer >= 1, got inf"),
        ('{"type": "ultrametric", "depth": 1e400, "arity": 3}', "depth must be an integer >= 2, got inf"),
        ('{"type": "ultrametric", "depth": 4, "arity": 1e400}', "arity must be an integer >= 2, got inf"),
        ('{"type": "ultrametric", "depth": 4, "arity": %d}' % 2**63, f"arity {2**63} > 2^62"),
        ('{"type": "ultrametric", "depth": 4, "arity": %d}' % 10**30, f"arity {10**30} > 2^62"),
        ('{"type": "euclidean", "dim": 2.7, "p": [0, 0], "region": {"kind": "cube"}}',
         "dimension must be an integer >= 1, got 2.7"),
        ('{"type": "ultrametric", "depth": 4, "arity": 3, "p": [0, 1.7, 2.9, 0]}', "marked leaf digits must be integers"),
        ('{"type": "ultrametric", "depth": 4, "arity": 3, "p": [0, 1, true, 0]}', "marked leaf digits must be integers"),
    ], ids=["p-huge", "pitch-huge", "dim-1e400", "depth-1e400", "arity-1e400", "arity-2**63", "arity-10**30",
            "dim-2.7", "leaf-1.7", "leaf-true"])
    def test_oversized_or_fractional_numbers_cannot_build_space(self, tmp_path, cfg, error, capsys):
        # each ended in an OverflowError traceback with exit 1, a fractional
        # dim or leaf digit was silently truncated, and an arity past int64
        # failed the scan in numpy's words
        path = tmp_path / "bad.json"
        path.write_text(cfg)
        assert main(["scan", str(path), "--dim", "1", "--samples", "8"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["exit_code"] == 3 and out["error"].startswith(f"cannot build space: {error}")

    @pytest.mark.parametrize("scales", ["5e-324:0.9:3", "1.3983181038818222:0.9999999999999999:6"])
    def test_collapsing_ladder_rejected_at_parse(self, tmp_path, scales, capsys):
        # two rungs round to the same float: refused before the space is read
        with pytest.raises(SystemExit) as exc:
            main(["scan", str(tmp_path / "missing.json"), "--dim", "1", "--scales", scales])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --scales" in err and "strictly decreasing" in err

    def test_text_format_prints_lists_in_brackets(self, circle_cfg, capsys):
        assert main(["scan", circle_cfg, "--dim", "1", "--samples", "8", "--format", "text"]) == 0
        text = capsys.readouterr().out
        for field in ("scales", "per_scale_inf", "per_scale_sup", "points"):
            assert f"{field}: [" in text, field
        assert "(" not in text

    def test_refutation_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "plane.json"
        cfg.write_text(json.dumps({"type": "euclidean", "dim": 2,
                                   "region": {"kind": "cube", "low": [0, 0], "high": [1, 1]},
                                   "p": [0, 0]}))
        assert main(["scan", str(cfg), "--dim", "1", "--samples", "32"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["verdict"] == "refuted"
        assert out["result"]["witness_scan"] is not None

    def test_bad_config_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"type": "unknown"}))
        assert main(["scan", str(cfg), "--dim", "1"]) == 3

    def test_mistyped_config_exit_3(self, tmp_path, capsys):
        # a region given as a bare string rather than an object
        cfg = tmp_path / "mistyped.json"
        cfg.write_text(json.dumps({"type": "euclidean", "dim": 2, "p": [0, 0], "region": "cube"}))
        assert main(["scan", str(cfg), "--dim", "1"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["exit_code"] == 3 and "cannot build space" in out["error"]

    @pytest.mark.parametrize("cfg,error", [
        ('{"type": "euclidean", "dim": 2, "p": [0, 0], "region": {"kind": "curve", "spec": {}}}',
         "a curve region needs a Python CurveSpec, which a JSON config cannot carry"),
        ('{"type": "euclidean"}', 'the config has no "dim" key'),
        ('{"dim": 2}', 'the config has no "type" key'),
        ('{"type": "euclidean", "dim": 2, "p": [0, 0]}', 'the config has no "region" key'),
        ("[1, 2]", "the config must be a JSON object, got list"),
        ('{"type": "euclidean", "dim": 2, "p": [0, 0], "region": {}}', 'the region has no "kind" key'),
        ('{"type": "euclidean", "dim": 2, "p": [0, 0], "region": 5}', "the region must be a JSON object, got int"),
        ('{"type": "snowflake", "alpha": 0.5, "dim": 2, "p": [0, 0], "region": {"low": [0, 0], "high": [1, 1]}}',
         'the region has no "kind" key'),
        ('{"type": "snowflake", "alpha": 0.5, "dim": 2, "p": [0, 0], "region": 5}',
         "the region must be a JSON object, got int"),
        ('{"type": "euclidean", "dim": 2, "p": [0.5, 0.5], "region": {"kind": "cube", "low": [0], "high": [1]}}',
         "low must have 2 coordinates"),
        ('{"type": "euclidean", "dim": 2, "p": [0.5, 0.5], "region": {"kind": "cube", "low": [[0, 0]]}}',
         "low must have 2 coordinates"),
        ('{"type": "euclidean", "dim": 2, "p": [0.5, 0.5], '
         '"region": {"kind": "cube", "low": [0, 0, 0], "high": [1, 1, 1]}}', "low must have 2 coordinates"),
        ('{"type": "euclidean", "dim": 2, "p": [1, 0], '
         '"region": {"kind": "sphere-surface", "center": [0, 0, 0], "radius": 1}}', "center must have 2 coordinates"),
        ('{"type": "euclidean", "dim": 2, "p": [1, 0], '
         '"region": {"kind": "sphere-surface", "center": [0, 0], "radius": "1"}}',
         "radius must be a positive finite number, got '1'"),
        ('{"type": "euclidean", "dim": 2, "p": [0.5, 0.5], '
         '"region": {"kind": "cube", "low": [0, 0], "high": [1, 1], "pitch": "0.25"}}',
         "pitch must be a positive finite number, got '0.25'"),
        ('{"type": "euclidean", "dim": 2, "p": [0.5, 0.5], '
         '"region": {"kind": "cube", "low": [0, 0], "high": [1, 1], "pitch": true}}',
         "pitch must be a positive finite number, got True"),
        ('{"type": "snowflake", "alpha": "0.5", "dim": 1, "p": [0.5]}', "alpha must lie in (0,1), got '0.5'"),
        ('{"type": "snowflake", "alpha": true, "dim": 1, "p": [0.5]}', "alpha must lie in (0,1), got True"),
    ], ids=["curve", "no-dim", "no-type", "no-region", "list", "region-no-kind", "region-int",
            "snowflake-region-no-kind", "snowflake-region-int", "low-high-short", "low-nested", "low-high-long",
            "center-long", "radius-string", "pitch-string", "pitch-bool", "alpha-string", "alpha-bool"])
    def test_config_refusal_names_the_fault(self, tmp_path, cfg, error, capsys):
        # a curve region ended in an AttributeError traceback with exit 1, a
        # missing key printed its bare KeyError repr (a region's "kind" too),
        # and a list or a non-object region a TypeError's text. A short or
        # nested cube bound was broadcast and a long one failed in numpy, a
        # string radius or alpha was read as a number, a string pitch failed
        # in numpy and a bool one snapped p to the cube's corner
        path = tmp_path / "bad.json"
        path.write_text(cfg)
        assert main(["scan", str(path), "--dim", "1", "--samples", "8"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["exit_code"] == 3 and out["error"] == f"cannot build space: {error}"

    def test_deeply_nested_config_exit_3(self, tmp_path, capsys):
        # json's RecursionError escaped the config's handler: a traceback with exit 1
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000)
        assert main(["scan", str(path), "--dim", "1", "--samples", "8"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["exit_code"] == 3 and out["error"].startswith("cannot build space: maximum recursion depth")

    @pytest.mark.parametrize("alpha,scales,error", [
        (0.5, "1e300:0.5:3", "alpha 0.5 cannot sample scale 1e+300: its Euclidean scale, scale ** (1 / alpha), is inf"),
        (0.0005, "0.5:0.5:12",
         "alpha 0.0005 cannot sample scale 0.5: its Euclidean scale, scale ** (1 / alpha), is 0.0"),
    ], ids=["overflow", "underflow"])
    def test_snowflake_scale_it_cannot_sample_exit_3(self, alpha, scales, error, tmp_path, capsys):
        # scale ** (1 / alpha) overflows at 1e300, and the OverflowError
        # escaped the scan's handler: a traceback with exit 1. At alpha 5e-4
        # it underflows to 0: every cloud was p, and the scan read consistent
        path = tmp_path / "snowflake.json"
        path.write_text(json.dumps({"type": "snowflake", "alpha": alpha, "dim": 1, "p": [0.5],
                                    "region": {"kind": "cube", "low": [0], "high": [1e308]}}))
        assert main(["scan", str(path), "--dim", "1", "--samples", "4", "--scales", scales]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["exit_code"] == 3 and out["error"] == f"cannot scan: a snowflake of {error}"

    def test_samples_run_as_given(self, circle_cfg, capsys):
        main(["scan", circle_cfg, "--dim", "1", "--samples", "3"])
        out = json.loads(capsys.readouterr().out)
        assert out["config"]["samples"] == 3
        assert [s["samples_per_scale"] for s in out["result"]["scans"]] == [3] * 6

    def test_custom_scales_flag(self, circle_cfg, capsys):
        assert main(["scan", circle_cfg, "--dim", "1", "--samples", "8",
                     "--scales", "0.4:0.5:6"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["scans"][0]["scales"][0] == 0.4
        assert len(out["result"]["scans"][0]["scales"]) == 6

    def test_one_point_config_consistent_all_zero(self, tmp_path, capsys):
        cfg = tmp_path / "point.json"
        cfg.write_text(json.dumps({"type": "euclidean", "dim": 2,
                                   "region": {"kind": "cube", "low": [0, 0], "high": [0, 0]},
                                   "p": [0, 0]}))
        assert main(["scan", str(cfg), "--dim", "2", "--samples", "8"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["verdict"] == "consistent-with-embeddable"
        for scan in out["result"]["scans"]:
            assert set(scan["per_scale_inf"]) == {0.0}
            assert set(scan["per_scale_sup"]) == {0.0}

    def test_nonpositive_tolerance_rejected(self, eq_file):
        with pytest.raises(SystemExit):
            main(["check-embed", eq_file, "--dim", "2", "--tol-det", "0"])

    @pytest.mark.parametrize("flag", [["--scales", "junk"], ["--scales", "0.5:2:3"], ["--scales", "0.5:0.5:1"],
                                      ["--scales", "0:0.5:4"], ["--samples", "0"], ["--samples", "-3"], ["--dim", "0"],
                                      ["--scales", "0.5:0.5:2000"], ["--scales", "1e-300:0.5:100"],
                                      ["--scales", "inf:0.5:4"], ["--seed", "-1"]])
    def test_bad_ladder_or_samples_rejected(self, circle_cfg, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", circle_cfg, "--dim", "1"] + flag)
        assert exc.value.code == 2
        assert f"argument {flag[0]}" in capsys.readouterr().err

    def test_sampler_cannot_serve_ladder_exit_3(self, tmp_path, capsys):
        # a depth-3 tree resolves distances down to 2^-2 only, so the
        # default ladder's rung 0.125 has no tuples to draw
        cfg = tmp_path / "shallow.json"
        cfg.write_text(json.dumps({"type": "ultrametric", "depth": 3, "arity": 2}))
        assert main(["scan", str(cfg), "--dim", "1", "--samples", "8"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["exit_code"] == 3
        assert "below tree resolution" in out["error"]
        assert out["config"]["space"]["depth"] == 3
        assert "depth" not in out["config"]

    def test_too_deep_ultrametric_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "deep.json"
        cfg.write_text(json.dumps({"type": "ultrametric", "depth": 1076, "arity": 2}))
        assert main(["scan", str(cfg), "--dim", "1", "--samples", "8"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["exit_code"] == 3 and "cannot build space" in out["error"]


@pytest.mark.parametrize("argv", [["validate"], ["check-embed", "--dim", "1"], ["min-dim"],
                                  ["scan", "--dim", "1", "--samples", "8"]])
def test_failed_out_write_exit_3(argv, eq_file, circle_cfg, tmp_path, capsys):
    # --out names a file in a directory that does not exist
    inp = circle_cfg if argv[0] == "scan" else eq_file
    assert main([argv[0], inp] + argv[1:] + ["--out", str(tmp_path / "missing" / "x.json")]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["command"] == argv[0] and out["exit_code"] == 3
    assert "cannot write output" in out["error"]


def test_traced_layer_functions_resolve():
    # the benchmark's tracer wraps these package attributes by name; a
    # rename must fail here rather than silently drop a per-layer metric
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYER_FUNCTIONS
    for module, attr in tracer.LAYER_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"metricembed.{module}"), attr)), (module, attr)


def _write_distances(path: Path, d) -> str:
    path.write_text(json.dumps({"distances": np.asarray(d, dtype=float).tolist()}))
    return str(path)


@pytest.fixture
def triangle_checks(monkeypatch):
    """Each matrix the O(N^3) triangle check runs on, in call order."""
    calls = []
    check = metric._check_triangles
    monkeypatch.setattr(metric, "_check_triangles", lambda d, tol: calls.append(d.copy()) or check(d, tol))
    return calls


class TestCertifiedTriangles:
    """The finite commands skip the O(N^3) triangle check when the
    decision's realization proves it, and otherwise run it unchanged."""

    def test_large_cloud_takes_certified_path(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(600, 4)) @ np.linalg.qr(rng.normal(size=(6, 4)))[0].T
        path = _write_distances(tmp_path / "cloud.json", metric.euclidean_matrix(pts))

        def never(d, tol):
            raise AssertionError("triangle loop called")

        monkeypatch.setattr(metric, "_check_triangles", never)
        assert main(["validate", path]) == 0
        assert main(["check-embed", path, "--dim", "4", "--criterion", "blumenthal"]) == 0
        capsys.readouterr()
        assert main(["min-dim", path]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["m"] == 4

    @pytest.mark.parametrize("argv", [["validate"], ["min-dim"], ["check-embed", "--dim", "1"]])
    def test_near_collinear_triple_still_exits_2(self, argv, tmp_path, triangle_checks, capsys):
        # the factorization accepts it as a line, but its residual of 1e-8
        # exceeds tol / 3, so the loop runs and names the same offender
        path = _write_distances(tmp_path / "bent.json", [[0, 1, 2 + 5e-9], [1, 0, 1], [2 + 5e-9, 1, 0]])
        assert main([argv[0], path] + argv[1:]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == (
            "invalid metric: triangle violation d[0][2] > d[0][1] + d[1][2] by 4.999999969612645e-09 "
            "(indices (0, 2, 1))")
        assert len(triangle_checks) == 1

    def test_asymmetry_within_tol_takes_the_certificate(self, tmp_path, triangle_checks, capsys):
        raw = [[0, 1, 1], [1, 0, 1], [1, 1 + 1e-12, 0]]
        path = _write_distances(tmp_path / "skew.json", raw)
        assert main(["min-dim", path]) == 0
        assert triangle_checks == []

    @pytest.mark.parametrize("argv", [["validate"], ["min-dim"]])
    def test_skew_input_is_checked_as_the_space_holds_it(self, argv, tmp_path, triangle_checks, capsys):
        # each entry above the diagonal moved by -h and its mirror by +h: the
        # line's mean is exactly collinear (the raw entries gave 1.35e-9 >
        # tol), and the bent line is refused on its first offender, by the
        # amount its named entries give in the space's matrix
        h = 0.45e-9
        line = np.array([[0, 1 - h, 2 + h], [1 + h, 0, 1 + h], [2 - h, 1 - h, 0]])
        assert main([argv[0], _write_distances(tmp_path / "line.json", line), "--tol-metric", "1e-9"]) == 0
        bent = line + 5e-9 * np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
        sym = (bent + bent.T) / 2.0
        capsys.readouterr()
        assert main([argv[0], _write_distances(tmp_path / "bent.json", bent), "--tol-metric", "1e-9"]) == 2
        excess = float(sym[0, 2] - (sym[0, 1] + sym[1, 2]))
        assert json.loads(capsys.readouterr().out)["error"] == (
            f"invalid metric: triangle violation d[0][2] > d[0][1] + d[1][2] by {excess!r} (indices (0, 2, 1))")
        assert np.array_equal(triangle_checks[-1], sym)

    def test_tol_metric_below_rounding_allowance_pays_the_loop(self, eq_file, triangle_checks, capsys):
        # the allowance for a line of unit distances is 4 (1 + 3) eps ~ 3.6e-15
        assert main(["validate", eq_file]) == 0
        assert triangle_checks == []
        assert main(["validate", eq_file, "--tol-metric", "1e-15"]) == 0
        assert len(triangle_checks) == 1

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_outside_certifiable_range_certified(self, scale, tmp_path, triangle_checks, capsys):
        # squared distances that would overflow, or underflow: the decision
        # made at a power of two certifies them, as at unit scale
        s = np.sqrt(2.0)
        square = np.array([[0, 1, s, 1], [1, 0, 1, s], [s, 1, 0, 1], [1, s, 1, 0]]) * scale
        assert main(["validate", _write_distances(tmp_path / "square.json", square)]) == 0
        assert triangle_checks == []

    def test_distance_ratio_past_the_range_pays_the_loop(self, tmp_path, triangle_checks, monkeypatch, capsys):
        # no power of two brings both ends into the range: nothing is
        # factored, and the triangle check runs
        def never(*args, **kwargs):
            raise AssertionError("factored")

        monkeypatch.setattr(embeddability, "psd_check", never)
        assert main(["validate", _write_distances(tmp_path / "wide.json", WIDE)]) == 0
        assert len(triangle_checks) == 1

    def test_agrees_with_full_check(self, tmp_path, triangle_checks, capsys):
        # seeded clouds with one point between two others, one distance of
        # that tight triangle moved by +-{0.5, 1, 2, 4} tol: validate and
        # min-dim give the exit code and offender of the full check
        codes = {"validate": set(), "min-dim": set()}
        cases = []
        for seed in range(200):
            rng = np.random.default_rng([17, seed])
            n, rank = int(rng.integers(3, 41)), int(rng.integers(1, 4))
            pts = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, 3)) * 10.0 ** rng.uniform(-3, 3)
            i, j, k = rng.choice(n, size=3, replace=False)
            pts[k] = pts[i] + rng.uniform(0.2, 0.8) * (pts[j] - pts[i])
            d = metric.euclidean_matrix(pts)
            factor = (0.5, 1.0, 2.0, 4.0)[seed % 4] * (1 if seed % 8 < 4 else -1)
            a, b = (i, j) if factor > 0 else (i, k)  # stretch the long side, or shrink a short one
            d[a, b] = d[b, a] = d[a, b] + factor * metric.DEFAULT_REL_TOL * np.max(d)
            cases.append((f"seed {seed}", d))
        cases += [("star", STAR), ("cycle4", [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])]
        for name, d in cases:
            try:
                validate_metric(d)
                expected = None
            except TriangleViolationError as exc:
                expected = f"invalid metric: {exc} (indices {exc.indices})"
            path = _write_distances(tmp_path / "case.json", d)
            for command in codes:
                before = len(triangle_checks)
                code = main([command, path])
                out = json.loads(capsys.readouterr().out)
                if expected is None:
                    assert code in (0, 1), (name, command, out)
                else:
                    assert code == 2 and out["error"] == expected, (name, command, out)
                looped = len(triangle_checks) > before
                codes[command].add((code, looped))
                if name in ("star", "cycle4"):
                    assert looped, (name, command)
        # the sweep reaches both paths and both outcomes
        for command, seen in codes.items():
            assert {(0, False), (0, True), (2, True)} <= seen, (command, seen)


@pytest.mark.parametrize("scale", [1e154, 1e200, 1e-160, 1e-300])
@pytest.mark.parametrize("argv", [["min-dim"], ["check-embed", "--dim", "1"]])
def test_distances_outside_certifiable_range_read_the_unit_answers(argv, scale, tmp_path, capsys):
    # squared distances that would overflow or leave the normal floats are
    # decided at a power of two: the unit square's answers, with the
    # coordinates and the residual in the space's own unit
    s = np.sqrt(2.0)
    square = np.array([[0, 1, s, 1], [1, 0, 1, s], [s, 1, 0, 1], [1, s, 1, 0]])
    command = argv + ["--realize"] if argv[0] == "min-dim" else argv
    want_code = main([argv[0], _write_distances(tmp_path / "unit.json", square)] + command[1:])
    want = json.loads(capsys.readouterr().out)["result"]
    path = _write_distances(tmp_path / "square.json", square * scale)
    if scale > 1:
        # the ball search once looped forever on these: a hang is a timeout
        done = _cli_process([argv[0], path] + command[1:], timeout=60)
        code, out = done.returncode, done.stdout
        assert b"Traceback" not in done.stderr
    else:
        code, out = main([argv[0], path] + command[1:]), capsys.readouterr().out
    payload = json.loads(out)
    assert code == payload["exit_code"] == want_code
    got = payload["result"]
    assert got.keys() == want.keys()
    for key in got:
        if key in ("coordinates", "residual") and want[key] is not None:
            assert np.allclose(np.asarray(got[key]) / scale, want[key], rtol=1e-9, atol=1e-14), key
        elif key == "witness_value":
            assert got[key] == pytest.approx(want[key], rel=1e-6)
        else:
            assert got[key] == want[key], key
    assert main(["validate", path]) == 0


@pytest.mark.parametrize("argv", [["validate"], ["min-dim"]])
def test_distance_too_large_for_a_float_exit_3(argv, tmp_path, capsys):
    # the OverflowError of reading it was a traceback with exit 1
    path = tmp_path / "huge.json"
    path.write_text('{"distances": [[0, %s], [%s, 0]]}' % (HUGE, HUGE))
    code = main([argv[0], str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == payload["exit_code"] == 3
    assert payload["error"] == "cannot read space: row 0 of the distance matrix is not a list of 2 numbers"


@pytest.mark.parametrize("name,text,code,error", [
    ("ragged.csv", "0,1\n1\n", 3, None),
    ("ragged.json", '{"distances": [[0, 1], [1]]}', 3, None),
    # the chunked reader gives up, and json.load reads the bare matrix again
    ("ragged-bare.json", "[[0, 1], [1]]", 3, "row 1 of the distance matrix is not a list of 2 numbers"),
    # a scalar row must not broadcast into a row of the matrix
    ("scalar-row.json", '{"distances": [[0, 1], 1]}', 3, None),
    ("empty.json", '{"distances": []}', 3, "distance matrix must be square, got shape (0,)"),
    ("empty.csv", "", 3, "empty CSV input"),
    ("header-only.csv", "a,b\n", 3, "distance matrix must be square, got shape (0,)"),
    ("scalar-first-row.json", '{"distances": [5, [0]]}', 3, "row 0 of the distance matrix is not a list of numbers"),
    # numpy reads a string or a bool as a float; a distance must be a number
    ("strings.json", '{"distances": [[0, "1"], ["1", 0]]}', 3, "row 0 of the distance matrix is not a list of 2 numbers"),
    ("bools.json", "[[0, true, 1], [true, 0, 1], [1, 1, 0]]", 3,
     "row 0 of the distance matrix is not a list of 3 numbers"),
    ("one-row.json", '{"distances": [[0, 1]]}', 3, "distance matrix must be square, got shape (1, 2)"),
    ("labels-after.json", '{"distances": [[0, 1], [1, 0]], "labels": ["a", "b"]}', 0, None),
    ("bare-list.json", "[[0, 1], [1, 0]]", 0, None),
    ("duplicate-key.json", '{"distances": [[0, 1], [1]], "distances": [[0, 1], [1, 0]]}', 0, None),
    ("nan.json", '{"distances": [[0, NaN], [NaN, 0]]}', 3, "non-finite distance at (0,1)"),
    ("huge.json", '{"distances": [[0, %s], [%s, 0]]}' % (HUGE, HUGE), 3,
     "row 0 of the distance matrix is not a list of 2 numbers"),
    # a missing key is named, not given as the bare KeyError repr
    ("empty-object.json", "{}", 3, 'the JSON object has no "distances" key'),
    ("labels-only.json", '{"labels": ["a"]}', 3, 'the JSON object has no "distances" key'),
    # the suffix is matched in any case
    ("upper.JSON", '{"distances": [[0, 1], [1, 0]]}', 0, None),
    # a CSV byte-order mark is dropped, with and without a header; JSON refuses one, as json.load does
    ("bom.csv", "\ufeff0,1\n1,0\n", 0, None),
    ("bom-header.csv", "\ufeffa,b\n0,1\n1,0\n", 0, None),
    ("bom.json", '\ufeff{"distances": [[0, 1], [1, 0]]}', 3,
     "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    # entries and matrices that numpy or float() refused in their own words
    ("letter.json", '{"distances": [[0, "a"], ["a", 0]]}', 3,
     "row 0 of the distance matrix is not a list of 2 numbers"),
    ("list.json", '{"distances": [[0, 1], [[1], 0]]}', 3, "row 1 of the distance matrix is not a list of 2 numbers"),
    ("object.json", '{"distances": [[0, 1], [{}, 0]]}', 3, "row 1 of the distance matrix is not a list of 2 numbers"),
    ("bare-object-row.json", "[[0, 1], {}]", 3, "row 1 of the distance matrix is not a list of 2 numbers"),
    ("text.json", '{"distances": "a"}', 3, "distances must be a list, got str"),
    ("object-matrix.json", '{"distances": {}}', 3, "distances must be a list, got dict"),
    ("cell.csv", "0,1\nzz,0\n", 3, "row 1 of the distance matrix is not a list of 2 numbers"),
    ("header-cell.csv", "a,b,c\n0,1,1\n1,0,1\n1,1,-\n", 3, "row 2 of the distance matrix is not a list of 3 numbers"),
])
def test_reader_edge_cases(name, text, code, error, tmp_path, capsys):
    # the readers parse rows straight into the matrix; each case keeps the
    # exit code (and the message) it had when the whole file was parsed first
    path = tmp_path / name
    path.write_text(text)
    assert main(["validate", str(path)]) == code
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == code
    if code == 0:
        assert payload["n_points"] == 2
    elif error is not None:
        assert payload["error"] == f"cannot read space: {error}"


def _modules_left_unloaded(argvs, modules) -> subprocess.CompletedProcess:
    """Run ``cli.main`` on each argv in a fresh interpreter; it exits 1 if
    any of ``modules`` was loaded. Its last line on stderr holds the exit
    code of each argv, argparse's included, and the modules loaded."""
    code = ("import sys\n"
            "from metricembed import cli\n"
            "codes = []\n"
            f"for argv in {argvs!r}:\n"
            "    try:\n"
            "        codes.append(cli.main(argv))\n"
            "    except SystemExit as exc:  # argparse: --version, --help, a usage error\n"
            "        codes.append(exc.code)\n"
            f"leaked = [m for m in {modules!r} if m in sys.modules]\n"
            "print(codes, leaked, file=sys.stderr)\n"
            "sys.exit(bool(leaked))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def test_two_calls_build_one_parser(eq_file, monkeypatch, capsys):
    # main built the whole parser on every call, about a third of a warm
    # in-process op on a small space
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "metricembed":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["validate", eq_file]) == main(["check-embed", eq_file, "--dim", "2"]) == 0
    assert len(built) <= 1


def test_finite_commands_leave_scan_layer_unloaded(eq_file, star_file):
    done = _modules_left_unloaded(
        [["min-dim", eq_file], ["min-dim", star_file], ["validate", eq_file],
         ["check-embed", eq_file, "--dim", "2", "--criterion", "all", "--realize"]],
        # each frozen dataclass ran its generated methods through exec, about 1 ms per record
        ("metricembed.pretangent", "metricembed.spaces", "metricembed.sequences", "dataclasses"))
    assert done.returncode == 0, done.stderr


def test_front_end_leaves_numpy_unloaded(eq_file, circle_cfg):
    # cli imported determinants for tol_det's rule and default, and with it
    # numpy: about 97 ms of a 108 ms --version. --scales read the ladder
    # rule from pretangent, and loaded numpy to refuse a ladder
    argvs = [["--version"], ["--help"], ["check-embed", "--help"], ["scan", "--help"], ["min-dim"],
             ["check-embed", eq_file, "--dim", "0"], ["check-embed", eq_file, "--dim", "1", "--tol-det", "2"],
             ["scan", circle_cfg, "--dim", "1", "--scales", "junk"],
             ["scan", circle_cfg, "--dim", "1", "--scales", "0.5:2:3"],
             ["scan", circle_cfg, "--dim", "1", "--samples", "0"], ["scan", circle_cfg, "--dim", "1", "--seed", "-1"],
             ["validate", eq_file, "--tol-metric", "0"]]
    done = _modules_left_unloaded(argvs, ("numpy", "metricembed.metric", "metricembed.determinants",
                                          "metricembed.pretangent"))
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == "[0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2] []"


def test_scale_ladder_leaves_numpy_unloaded():
    # the package's scale_ladder lived in pretangent, which imports numpy
    code = ("import sys\n"
            "import metricembed\n"
            "assert metricembed.scale_ladder(0.5, 0.5, 3) == [0.5, 0.25, 0.125]\n"
            "sys.exit('numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr


def test_scan_leaves_finite_decider_unloaded(circle_cfg):
    done = _modules_left_unloaded(
        [["scan", circle_cfg, "--dim", "1", "--samples", "8", "--scales", "0.5:0.5:3"]],
        ("metricembed.embeddability", "metricembed.sequences"))
    assert done.returncode == 0, done.stderr


def test_star_import_resolves_every_name():
    import metricembed
    from metricembed import pretangent, spaces

    names: dict = {}
    exec("from metricembed import *", names)
    assert set(metricembed.__all__) <= set(names)
    assert names["transfer_check"] is pretangent.transfer_check
    assert names["marked_space_from_config"] is spaces.marked_space_from_config
    with pytest.raises(AttributeError):
        metricembed.no_such_name
    assert metricembed.__all__ == [
        "BlumenthalReport", "CMValue", "CurveSpec", "EmbedVerdict", "FiniteMetricSpace", "MarkedSpace",
        "MinDimResult", "NormalizingSequence", "PsdReport", "PseudometricMatrix", "QuotientSpace", "Realization",
        "ScanReport", "StabilityVerdict", "TransferReport", "Witness", "as_marked", "blumenthal_basis_search",
        "blumenthal_sequence_scan", "build_probe_battery", "cm_determinant", "cm_value", "constant_sequence",
        "delta_scale", "epsilon_scale", "freeze", "liminf_scan", "load_space", "make_euclidean_subset",
        "make_snowflake", "make_ultrametric", "marked_family", "marked_space_from_config", "menger_check",
        "metric_identification", "min_embedding_dimension", "mutual_stability", "perturbed_euclidean_space",
        "psd_check", "pseudometric_matrix", "realize_coordinates", "s_functional", "scale_ladder", "scale_metric",
        "sch_determinant", "sch_value", "schoenberg_check", "submatrix", "theta", "transfer_check",
        "validate_metric"]


@pytest.fixture
def tracer_recorder(monkeypatch):
    """The benchmark tracer installed in this process; every attribute it
    replaces is put back afterwards."""
    from metricembed import cli, pretangent

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = {"cli": cli, "embeddability": embeddability, "pretangent": pretangent}
    for module, attr in list(tracer.LAYER_FUNCTIONS) + [("cli", "marked_space_from_config")]:
        monkeypatch.setattr(modules[module], attr, getattr(modules[module], attr))
    recorder = tracer.Recorder(0)
    tracer._install(recorder)
    return recorder


@pytest.mark.parametrize("op,span", [("scan", "pretangent.transfer"), ("scan", "spaces.sample"),
                                     ("min-dim", "metric.load"), ("min-dim", "embeddability.min_dim"),
                                     ("all", "embeddability.menger"), ("all", "embeddability.schoenberg"),
                                     ("all", "embeddability.realize"), ("blumenthal", "embeddability.blumenthal")])
def test_tracer_spans_still_recorded(op, span, tracer_recorder, eq_file, circle_cfg, capsys):
    # together these call every ("cli", name) the tracer wraps through the
    # attribute it replaced
    from metricembed import cli

    argv = {"scan": ["scan", circle_cfg, "--dim", "1", "--samples", "8", "--scales", "0.5:0.5:3"],
            "min-dim": ["min-dim", eq_file],
            "all": ["check-embed", eq_file, "--dim", "2", "--criterion", "all", "--realize"],
            "blumenthal": ["check-embed", eq_file, "--dim", "2", "--criterion", "blumenthal"]}[op]
    assert cli.main(argv) in (0, 1, 4)
    assert span in {s["name"] for s in tracer_recorder.spans}


OPTION_REFUSALS = [
    (["check-embed", "--dim", "abc"], "argument --dim: must be an integer >= 1, got abc"),
    (["check-embed", "--dim", "2.0"], "argument --dim: must be an integer >= 1, got 2.0"),
    (["check-embed", "--dim", ""], "argument --dim: must be an integer >= 1, got "),
    (["check-embed", "--dim", "1", "--tol-det", "abc"], "argument --tol-det: must be in (0, 1), got abc"),
    (["validate", "--tol-metric", "1e"], "argument --tol-metric: must be finite and > 0, got 1e"),
    (["scan", "--dim", "1", "--samples", "x"], "argument --samples: must be an integer >= 1, got x"),
    (["scan", "--dim", "1", "--seed", "1.5"], "argument --seed: must be an integer >= 0, got 1.5"),
    (["scan", "--dim", "1", "--seed", "-1"], "argument --seed: must be an integer >= 0, got -1"),
    (["scan", "--dim", "1", "--scales", "1:0.5"], "argument --scales: expected r0:q:count, got 1:0.5"),
    (["scan", "--dim", "1", "--scales", "1:0.5:3:4"], "argument --scales: expected r0:q:count, got 1:0.5:3:4"),
    (["scan", "--dim", "1", "--scales", "0.5:0.5:1e5"], "argument --scales: expected r0:q:count, got 0.5:0.5:1e5"),
    # the ladder rule's own reason is kept
    (["scan", "--dim", "1", "--scales", "0.5:2:3"], "argument --scales: expected r0:q:count, got 0.5:2:3 "
     "(need a finite r0 > 0 and 0 < q < 1 and an integer rungs, got 0.5, 2.0, 3)"),
]


@pytest.mark.parametrize("argv,error", OPTION_REFUSALS, ids=[" ".join(argv) for argv, _ in OPTION_REFUSALS])
def test_option_refused_in_our_words(argv, error, eq_file, capsys):
    # argparse named the private type function, and --scales quoted
    # Python's unpacking or float() text
    with pytest.raises(SystemExit) as exc:
        main([argv[0], eq_file, *argv[1:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"metricembed {argv[0]}: error: {error}\n")
    assert not any(text in err for text in FOREIGN_TEXT)


def test_ladder_that_does_not_fit_in_memory_refused_at_parse(eq_file, monkeypatch, capsys):
    # the ladder is built at parse time; a MemoryError there is an option
    # refusal with exit 2. No real ladder is drawn: the builder raises at once
    from metricembed import cli

    def out_of_memory(r0, q, rungs):
        raise MemoryError

    monkeypatch.setattr(cli, "scale_ladder", out_of_memory)
    with pytest.raises(SystemExit) as exc:
        main(["scan", eq_file, "--dim", "1", "--scales", "0.5:0.5:3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "metricembed scan: error: argument --scales: the ladder 0.5:0.5:3 does not fit in memory\n")


def test_min_dim_realizes_a_one_point_space(tmp_path, capsys):
    # min-dim --realize writes the payload check-embed --realize writes, m = 0 included
    path = tmp_path / "point.json"
    path.write_text('{"distances": [[0]]}')
    assert main(["min-dim", str(path), "--realize"]) == 0
    out = json.loads(capsys.readouterr().out)["result"]
    assert out["m"] == 0 and out["coordinates"] == [[]] and out["residual"] == 0.0
    assert main(["check-embed", str(path), "--dim", "1", "--realize"]) == 0
    real = json.loads(capsys.readouterr().out)["result"]
    assert (real["coordinates"], real["residual"]) == (out["coordinates"], out["residual"])


@pytest.mark.parametrize("value", ["inf", "1e400"])
@pytest.mark.parametrize("argv", [["check-embed", "--dim", "1", "--tol-det"], ["min-dim", "--tol-det"],
                                  ["validate", "--tol-metric"], ["check-embed", "--dim", "1", "--tol-metric"]])
def test_non_finite_tolerance_rejected(argv, value, star_file, capsys):
    # an infinite --tol-det read the star as undetermined through inf * 0,
    # and an infinite --tol-metric accepted any triangle violation
    with pytest.raises(SystemExit) as exc:
        main([argv[0], star_file, *argv[1:], value])
    assert exc.value.code == 2
    rule = "in (0, 1)" if argv[-1] == "--tol-det" else "finite and > 0"
    assert f"argument {argv[-1]}: must be {rule}, got {value}" in capsys.readouterr().err


def test_sampler_giving_up_cannot_scan_exit_3(tmp_path, capsys):
    # the only grid point within 0.125 of p is p itself, so the sampler
    # finds no anchor in [0.0625, 0.125] after 500 batches
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps({"type": "euclidean", "dim": 2, "p": [0.5, 0.5],
                               "region": {"kind": "cube", "low": [0, 0], "high": [1, 1], "pitch": 0.25}}))
    assert main(["scan", str(cfg), "--dim", "1", "--samples", "8"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["exit_code"] == 3
    assert out["error"] == ("cannot scan: sampler failed to draw 1 points at distance in [0.0625, 0.125] "
                            "after 500 batches")


def test_scale_below_float_resolution_cannot_scan_exit_3(tmp_path, capsys):
    # no float point but p lies within 1e-300 of [0.5, 0.5]: the sampler
    # spun 500 rejection batches into "sampler failed to draw 1 points"
    cfg = tmp_path / "plane.json"
    cfg.write_text(json.dumps({"type": "euclidean", "dim": 2, "p": [0.5, 0.5], "region": {"kind": "cube"}}))
    assert main(["scan", str(cfg), "--dim", "1", "--samples", "8", "--scales", "1e-300:0.5:2"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["exit_code"] == 3
    assert out["error"] == ("cannot scan: cannot sample scale 1e-300 at p = [0.5, 0.5]: it lies below the float "
                            "resolution there, so no point but p is within it")


def test_scale_past_the_reach_cannot_scan_exit_3(tmp_path, capsys):
    # no point of the unit square lies 2 from its centre: the first rung
    # spun 500 rejection batches into "sampler failed to draw 1 points"
    cfg = tmp_path / "plane.json"
    cfg.write_text(json.dumps({"type": "euclidean", "dim": 2, "p": [0.5, 0.5], "region": {"kind": "cube"}}))
    assert main(["scan", str(cfg), "--dim", "1", "--samples", "8", "--scales", "4:0.5:3"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["exit_code"] == 3
    assert out["error"] == ("cannot scan: cannot sample scale 4.0 at p = [0.5, 0.5]: its half exceeds "
                            "0.7071067811865476, the region's reach from p")


#: one op per exit code, plus --version and --help; "{name}" stands for a
#: file of the parity_files fixture
PROCESS_OPS = {
    "yes": (["validate", "{eq}"], 0),
    "no": (["check-embed", "{star}", "--dim", "2"], 1),
    "invalid-metric": (["validate", "{bent}"], 2),
    "usage": (["check-embed", "{eq}", "--dim", "0"], 2),
    "unreadable": (["min-dim", "{missing}"], 3),
    "inconclusive": (["scan", "{snowflake}", "--dim", "2", "--samples", "16", "--scales", "0.5:0.5:8"], 4),
    "version": (["--version"], 0),
    "help": (["--help"], 0),
}


@pytest.fixture
def parity_files(tmp_path, eq_file, star_file, circle_cfg):
    bent = tmp_path / "bent.json"
    bent.write_text(json.dumps({"distances": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}))
    # Theta_3 of a snowflake this close to E^1 stays between the zero band
    # and the refutation level: an inconclusive scan
    snowflake = tmp_path / "snowflake.json"
    snowflake.write_text(json.dumps({"type": "snowflake", "alpha": 0.999, "dim": 1, "p": [0.5]}))
    return {"eq": eq_file, "star": star_file, "circle": circle_cfg, "bent": str(bent),
            "snowflake": str(snowflake), "missing": str(tmp_path / "missing.json")}


def _in_process(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("op", list(PROCESS_OPS))
def test_process_matches_main(op, parity_files, monkeypatch, capsysbinary):
    # the process ends with os._exit, so whatever it leaves unflushed is lost
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal
    template, code = PROCESS_OPS[op]
    argv = [arg.format(**parity_files) for arg in template]
    done = _cli_process(argv)
    assert _in_process(argv) == done.returncode == code, done.stderr
    assert done.stdout == capsysbinary.readouterr().out
    assert b"Traceback" not in done.stderr


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv", [["min-dim", "{eq}", "--realize"],
                                  ["scan", "{circle}", "--dim", "1", "--samples", "8"]], ids=["min-dim", "scan"])
def test_process_out_file(argv, fmt, parity_files, tmp_path, capsysbinary):
    # --out names one file, with or without a suffix, and it holds the bytes
    # the command prints; scan --out once made a path without a suffix a
    # directory of per-scan copies of result.scans
    argv = [arg.format(**parity_files) for arg in argv] + ["--format", fmt]
    printed = _cli_process(argv)
    assert printed.returncode == 0 and printed.stdout, printed.stderr
    sides = {"process": lambda argv: _cli_process(argv).returncode, "main": _in_process}
    for side, run in sides.items():
        assert run(argv + ["--out", str(tmp_path / side)]) == 0
        assert (tmp_path / side).read_bytes() == printed.stdout, side
    assert capsysbinary.readouterr().out == b""


#: every command, and check-embed with each criterion, with and without
#: --realize, on a yes and a no
TEXT_OPS = [
    *[["check-embed", "{%s}" % space, "--dim", "2", "--criterion", criterion, *realize]
      for space in ("eq", "star") for criterion in ("menger", "schoenberg", "blumenthal", "all")
      for realize in ([], ["--realize"])],
    ["min-dim", "{eq}", "--realize"],
    ["min-dim", "{star}"],
    ["validate", "{eq}"],
    ["scan", "{circle}", "--dim", "1", "--samples", "8", "--scales", "0.5:0.5:4"],
]


@pytest.mark.parametrize("argv", TEXT_OPS, ids=" ".join)
def test_text_output_renders_the_json_payload(argv, parity_files, capsys):
    # --format text prints the payload that --format json prints: a tuple
    # left in a result prints in parentheses, and a tuple of scans on one line
    from metricembed import cli

    argv = [arg.format(**parity_files) for arg in argv]
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    assert main(argv + ["--format", "text"]) == code
    if "config" in payload:
        payload["config"]["format"] = "text"
    assert capsys.readouterr().out == cli._render_text(payload)


def _into_closed_pipe(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    """Run the CLI with stdout a pipe whose read end is already closed."""
    read, write = os.pipe()
    os.close(read)
    try:
        return _cli_process(argv, stdout=write, **kwargs)
    finally:
        os.close(write)


@pytest.mark.parametrize("argv", [["--version"], ["validate", "{eq}"],
                                  ["scan", "{circle}", "--dim", "1", "--samples", "8"]],
                         ids=["version", "small", "large"])
def test_closed_stdout_exit_3(argv, parity_files):
    # these ended with "Exception ignored" and exit 120 when stdout failed
    # only at exit, or in a BrokenPipeError traceback with exit 1 when
    # main's OSError handler wrote the error JSON to the same pipe
    argv = [arg.format(**parity_files) for arg in argv]
    done = _into_closed_pipe(argv)
    assert done.returncode == 3
    assert done.stderr == b"metricembed: cannot write output: [Errno 32] Broken pipe\n"
    # a process started without fd 1 has no stdout at all
    done = _cli_process(argv, stdout=subprocess.DEVNULL, preexec_fn=lambda: os.close(1))
    if argv == ["--version"]:
        # argparse then prints the version on stderr
        assert (done.returncode, done.stderr) == (0, f"{__version__}\n".encode())
    else:
        assert done.returncode == 3
        assert done.stderr == b"metricembed: cannot write output: [Errno 9] stdout is closed\n"


def test_closed_stderr_keeps_the_exit_code(parity_files):
    # without fd 2, sys.stderr is None; with 2>&1 into a closed pipe, the
    # line about stdout cannot be written either
    argv = ["check-embed", parity_files["star"], "--dim", "2"]
    done = _cli_process(argv, stderr=None, preexec_fn=lambda: os.close(2))
    assert done.returncode == 1 and json.loads(done.stdout)["exit_code"] == 1
    assert _into_closed_pipe(argv, stderr=subprocess.STDOUT).returncode == 3


#: a line 0, 1e-170, 1e140: distances 1e-170 and 1e140 are 1e310 apart,
#: past the ratio of the certifiable range at any power of two
WIDE = [[0, 1e-170, 1e140], [1e-170, 0, 1e140], [1e140, 1e140, 0]]

#: the inputs of the refusal pins, by file name; "{dir}" stands for the
#: directory that holds them, and a name absent here is a missing file
REFUSAL_INPUTS = {
    "broken.json": '{"distances": [[0, 1], [1, 0]',
    "bent.json": json.dumps({"distances": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}),
    # every distance below embeddability.CERTIFIABLE_RANGE
    "tiny.json": json.dumps({"distances": [[0, 1e-200, 1e-200], [1e-200, 0, 1e-200], [1e-200, 1e-200, 0]]}),
    "wide.json": json.dumps({"distances": WIDE}),
    "noregion.json": json.dumps({"type": "euclidean", "dim": 2, "p": [0, 0]}),
    # a depth-3 tree resolves distances down to 2^-2 only
    "shallow.json": json.dumps({"type": "ultrametric", "depth": 3, "arity": 2}),
    # an arity past int64, which numpy refused in its own words
    "hugearity.json": json.dumps({"type": "ultrametric", "depth": 6, "arity": 2**63}),
    # refusals that printed numpy reprs (np.float64(-1.0)) under numpy 2
    "negative.json": json.dumps({"distances": [[0, -1], [-1, 0]]}),
    "asymmetric.json": json.dumps({"distances": [[0, 1, 1], [0.5, 0, 1], [1, 1, 0]]}),
    "diagonal.json": json.dumps({"distances": [[1, 1], [1, 0]]}),
    # entries that numpy or float() judged, wording the refusal themselves
    "letters.json": json.dumps({"distances": [[0, "a"], ["a", 0]]}),
    "letters.csv": "0,1\nzz,0\n",
}
MISSING = "cannot read space: [Errno 2] No such file or directory: '{dir}/missing.json'"
BROKEN = "cannot read space: Expecting ',' delimiter: line 1 column 30 (char 29)"
BENT = "invalid metric: triangle violation d[0][2] > d[0][1] + d[1][2] by 3.0 (indices (0, 2, 1))"
WIDE_ERROR = "cannot decide: the distances span more than [1.001e-146, 3.352e+153] holds at any power of two"
NO_REGION = 'cannot build space: the config has no "region" key'
SHALLOW = "cannot scan: scale 0.125 below tree resolution 2^-2"
HUGE_ARITY = f"cannot build space: arity {2**63} > 2^62: the sampler's sum of two digits would wrap in int64"
SCAN = ["--dim", "1", "--samples", "8"]
#: conversion text of numpy, float(), int() or argparse, which no refusal may carry
FOREIGN_TEXT = ("could not convert", "inhomogeneous", "float() argument", "invalid _", "unpack", "int()", "C long",
                "out of bounds for int64")


def _shallow_config(fmt: str) -> dict:
    from metricembed.pretangent import SAMPLER_VERSION

    return {"command": "scan", "criterion": None, "format": fmt, "input": "{dir}/shallow.json", "n": 1,
            "sampler_version": SAMPLER_VERSION, "samples": 8, "scales": "0.5:0.5:12", "seed": 0,
            "space": json.loads(REFUSAL_INPUTS["shallow.json"]), "tol_det": DEFAULT_TOL_DET,
            "tol_metric": None, "version": __version__}


def _refusal(command: str, error: str, code: int = 3, **fields) -> dict:
    return {"command": command, "error": error, "exit_code": code, **fields}


def _validate_refusal(error: str, name: str, code: int = 3) -> dict:
    return _refusal("validate", error, code, input="{dir}/" + name, ok=False)


#: every refusal kind, pinned whole: argv, exit code, stdout, and every file
#: the run writes (relative to "{dir}"); a dict stands for its JSON document
REFUSALS = {
    "validate-missing": (["validate", "{dir}/missing.json"], 3, _validate_refusal(MISSING, "missing.json"), {}),
    "check-embed-missing": (["check-embed", "{dir}/missing.json", "--dim", "1"], 3,
                            _refusal("check-embed", MISSING), {}),
    "min-dim-missing": (["min-dim", "{dir}/missing.json"], 3, _refusal("min-dim", MISSING), {}),
    "validate-broken": (["validate", "{dir}/broken.json"], 3, _validate_refusal(BROKEN, "broken.json"), {}),
    "check-embed-broken": (["check-embed", "{dir}/broken.json", "--dim", "1"], 3,
                           _refusal("check-embed", BROKEN), {}),
    "min-dim-broken": (["min-dim", "{dir}/broken.json"], 3, _refusal("min-dim", BROKEN), {}),
    "validate-triangle": (["validate", "{dir}/bent.json"], 2, _validate_refusal(BENT, "bent.json", 2), {}),
    "check-embed-triangle": (["check-embed", "{dir}/bent.json", "--dim", "1"], 2,
                             _refusal("check-embed", BENT, 2), {}),
    "min-dim-triangle": (["min-dim", "{dir}/bent.json"], 2, _refusal("min-dim", BENT, 2), {}),
    "validate-negative": (["validate", "{dir}/negative.json"], 2, _validate_refusal(
        "invalid metric: negative distance d[0][1] = -1.0 (indices (0, 1))", "negative.json", 2), {}),
    "validate-asymmetric": (["validate", "{dir}/asymmetric.json"], 2, _validate_refusal(
        "invalid metric: asymmetry |d[0][1] - d[1][0]| = 0.5 exceeds tol 1e-09 (indices (0, 1))",
        "asymmetric.json", 2), {}),
    "validate-diagonal": (["validate", "{dir}/diagonal.json"], 2, _validate_refusal(
        "invalid metric: diagonal entry d[0][0] = 1.0 must be exactly 0 (indices (0,))", "diagonal.json", 2), {}),
    # a space below the certifiable range, certified at a power of two
    "validate-tiny": (["validate", "{dir}/tiny.json"], 0,
                      {"command": "validate", "exit_code": 0, "input": "{dir}/tiny.json", "n_points": 3,
                       "ok": True, "tol": 1e-209}, {}),
    "check-embed-tiny": (["check-embed", "{dir}/wide.json", "--dim", "1"], 3, _refusal("check-embed", WIDE_ERROR), {}),
    "min-dim-tiny": (["min-dim", "{dir}/wide.json"], 3, _refusal("min-dim", WIDE_ERROR), {}),
    "scan-missing": (["scan", "{dir}/missing.json", *SCAN], 3,
                     _refusal("scan", MISSING.replace("read space", "build space")), {}),
    "scan-no-region": (["scan", "{dir}/noregion.json", *SCAN], 3, _refusal("scan", NO_REGION), {}),
    "scan-huge-arity": (["scan", "{dir}/hugearity.json", *SCAN], 3, _refusal("scan", HUGE_ARITY), {}),
    "scan-below-resolution": (["scan", "{dir}/shallow.json", *SCAN], 3,
                              _refusal("scan", SHALLOW, config=_shallow_config("json")), {}),
    "unwritable-out": (["validate", "{dir}/bent.json", "--out", "{dir}/nowhere/x.json"], 3,
                       _refusal("validate", "cannot write output: [Errno 2] No such file or directory: "
                                            "'{dir}/nowhere/x.json'"), {}),
    "out-file-below-resolution": (["scan", "{dir}/shallow.json", *SCAN, "--out", "{dir}/reports"], 3, "",
                                  {"reports": _refusal("scan", SHALLOW, config=_shallow_config("json"))}),
    "out-file-no-region": (["scan", "{dir}/noregion.json", *SCAN, "--out", "{dir}/reports.json"], 3, "",
                           {"reports.json": _refusal("scan", NO_REGION)}),
    # --out names one file: a directory is no place for it, and nothing is written into one
    "out-existing-directory": (["scan", "{dir}/shallow.json", *SCAN, "--out", "{dir}"], 3,
                               _refusal("scan", "cannot write output: [Errno 21] Is a directory: '{dir}'"), {}),
    "out-dir-not-a-directory": (["scan", "{dir}/shallow.json", *SCAN, "--out", "{dir}/bent.json/reports"], 3,
                                _refusal("scan", "cannot write output: [Errno 20] Not a directory: "
                                                 "'{dir}/bent.json/reports'"), {}),
    "text-missing": (["check-embed", "{dir}/missing.json", "--dim", "1", "--format", "text"], 3,
                     f"command: check-embed\nerror: {MISSING}\nexit_code: 3\n", {}),
    "text-below-resolution": (["scan", "{dir}/shallow.json", *SCAN, "--format", "text"], 3,
                              "command: scan\nconfig:\n  command: scan\n  criterion: None\n  format: text\n"
                              "  input: {dir}/shallow.json\n  n: 1\n  sampler_version: 2\n  samples: 8\n"
                              "  scales: 0.5:0.5:12\n  seed: 0\n  space:\n    arity: 2\n    depth: 3\n"
                              f"    type: ultrametric\n  tol_det: 1e-08\n  tol_metric: None\n  version: {__version__}\n"
                              f"error: {SHALLOW}\nexit_code: 3\n", {}),
    "text-out-file": (["validate", "{dir}/bent.json", "--format", "text", "--out", "{dir}/bent.txt"], 2, "",
                      {"bent.txt": f"command: validate\nerror: {BENT}\nexit_code: 2\n"
                                   "input: {dir}/bent.json\nok: False\n"}),
    "validate-letter": (["validate", "{dir}/letters.json"], 3, _validate_refusal(
        "cannot read space: row 0 of the distance matrix is not a list of 2 numbers", "letters.json"), {}),
    "validate-csv-cell": (["validate", "{dir}/letters.csv"], 3, _validate_refusal(
        "cannot read space: row 1 of the distance matrix is not a list of 2 numbers", "letters.csv"), {}),
    # argparse's refusals: no stdout, the usage and the line of USAGE_ERRORS on stderr
    "dim-not-a-number": (["check-embed", "{dir}/bent.json", "--dim", "abc"], 2, "", {}),
    "samples-fraction": (["scan", "{dir}/shallow.json", "--dim", "1", "--samples", "2.5"], 2, "", {}),
    "seed-not-a-number": (["scan", "{dir}/shallow.json", *SCAN, "--seed", "x"], 2, "", {}),
    "scales-one-field": (["scan", "{dir}/shallow.json", *SCAN, "--scales", "0.5"], 2, "", {}),
    "scales-letters": (["scan", "{dir}/shallow.json", *SCAN, "--scales", "a:b:c"], 2, "", {}),
}

#: the last stderr line of each refusal that argparse reports; every other
#: refusal writes nothing to stderr
USAGE_ERRORS = {
    "dim-not-a-number": "metricembed check-embed: error: argument --dim: must be an integer >= 1, got abc\n",
    "samples-fraction": "metricembed scan: error: argument --samples: must be an integer >= 1, got 2.5\n",
    "seed-not-a-number": "metricembed scan: error: argument --seed: must be an integer >= 0, got x\n",
    "scales-one-field": "metricembed scan: error: argument --scales: expected r0:q:count, got 0.5\n",
    "scales-letters": "metricembed scan: error: argument --scales: expected r0:q:count, got a:b:c\n",
}


def _document(expected, directory: Path) -> bytes:
    """The bytes of an expected output: a dict as the CLI's JSON document."""
    if isinstance(expected, dict):
        expected = json.dumps(expected, sort_keys=True, indent=2) + "\n"
    return expected.replace("{dir}", str(directory)).encode()


def _run_refusal(side: str, argv: list[str], directory: Path, capsysbinary) -> tuple[int, bytes, bytes, dict]:
    """Exit code, stdout, stderr and the files written of one run against a
    fresh copy of the refusal inputs in ``directory``."""
    directory.mkdir()
    for name, text in REFUSAL_INPUTS.items():
        (directory / name).write_text(text)
    argv = [arg.replace("{dir}", str(directory)) for arg in argv]
    if side == "main":
        code = _in_process(argv)
        out, err = capsysbinary.readouterr()
    else:
        done = _cli_process(argv)
        assert b"Traceback" not in done.stderr, done.stderr
        code, out, err = done.returncode, done.stdout, done.stderr
    written = {str(path.relative_to(directory)): path.read_bytes() for path in directory.rglob("*")
               if path.is_file() and path.name not in REFUSAL_INPUTS}
    return code, out, err, written


@pytest.mark.parametrize("side", ["main", "process"])
@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusals_pinned(case, side, tmp_path, capsysbinary):
    argv, code, stdout, files = REFUSALS[case]
    directory = tmp_path / "run"
    got_code, out, err, written = _run_refusal(side, argv, directory, capsysbinary)
    assert (got_code, out, written) == (
        code, _document(stdout, directory), {name: _document(text, directory) for name, text in files.items()})
    if case in USAGE_ERRORS:
        assert err.startswith(f"usage: metricembed {argv[0]} ".encode()) and err.endswith(USAGE_ERRORS[case].encode())
    else:
        assert err == b""
    assert not any(text in report for text in FOREIGN_TEXT for report in (out.decode(), err.decode()))


@pytest.mark.parametrize("side", ["main", "process"])
def test_undecidable_space_into_unwritable_out(side, tmp_path, capsysbinary):
    # the cannot-decide payload's failed --out write ended in a bare
    # FileNotFoundError (a stderr line from a process) instead of the
    # cannot-write-output JSON on stdout that every other payload gives
    directory = tmp_path / "run"
    argv = ["min-dim", "{dir}/wide.json", "--out", "{dir}/nowhere/x.json"]
    error = "cannot write output: [Errno 2] No such file or directory: '{dir}/nowhere/x.json'"
    assert _run_refusal(side, argv, directory, capsysbinary) == (
        3, _document(_refusal("min-dim", error), directory), b"", {})


@pytest.mark.parametrize("during", ["command", "write", "unwritable-out"])
def test_out_of_memory_payload(during, eq_file, tmp_path, monkeypatch, capsys):
    # a MemoryError while the command runs or while its payload is written
    # gives the out-of-memory payload where the payload would have gone; a
    # failed --out write of that payload gives the cannot-write-output JSON
    from metricembed import cli

    argv = ["min-dim", eq_file, "--format", "text"]
    render = cli._render_text

    def out_of_memory(*args, **kwargs):
        monkeypatch.setattr(cli, "_render_text", render)  # the next write succeeds
        raise MemoryError

    monkeypatch.setattr(cli, "_render_text" if during == "write" else "min_embedding_dimension", out_of_memory)
    if during == "unwritable-out":
        out = tmp_path / "nowhere" / "x.txt"
        assert main(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().out == ("command: min-dim\nerror: cannot write output: [Errno 2] "
                                           f"No such file or directory: '{out}'\nexit_code: 3\n")
    else:
        assert main(argv) == 3
        assert capsys.readouterr().out == "command: min-dim\nerror: out of memory: allocation failed\nexit_code: 3\n"
