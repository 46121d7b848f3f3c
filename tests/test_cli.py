"""CLI subcommands, driven in-process through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unembed import SoftmaxModel, UnembeddingSet, load_model, load_report, save_model
from unembed import cli
from unembed.cli import main


def _model_path(data_dir, name, ext="json"):
    return str(data_dir / f"{name}.{ext}")


class TestSimilarity:
    def test_stdout_matrix(self, data_dir, capsys):
        assert main(["similarity", "--input",
                     _model_path(data_dir, "unrestricted", "csv")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("cosine,l0,l1,l2,l3,l4")
        assert "0.8" in out

    def test_report_file(self, data_dir, tmp_path):
        report_path = str(tmp_path / "sim.json")
        assert main(["similarity", "--input",
                     _model_path(data_dir, "centered"),
                     "--metric", "euclidean", "--output", report_path]) == 0
        report = load_report(report_path)
        assert set(report) == {
            "input", "transforms", "similarity", "feasibility", "equivalence",
        }
        values = np.array(report["similarity"]["values"])
        np.testing.assert_array_equal(np.diag(values), 0.0)
        np.testing.assert_array_equal(values, values.T)

    def test_fixture_cosine_entry(self, data_dir, tmp_path):
        report_path = str(tmp_path / "sim.json")
        main(["similarity", "--input", _model_path(data_dir, "unrestricted"),
              "--output", report_path])
        report = load_report(report_path)
        assert report["similarity"]["values"][0][1] == 0.8


class TestForceCosine:
    @pytest.mark.parametrize("target", ["-1", "1"])
    def test_forces_target(self, data_dir, tmp_path, target):
        out_path = str(tmp_path / "out.json")
        report_path = str(tmp_path / "rep.json")
        code = main(["force-cosine", "--input",
                     _model_path(data_dir, "unrestricted"),
                     "--pair", "0", "1", "--target", target,
                     "--output", out_path, "--report", report_path])
        assert code == 0
        report = load_report(report_path)
        eq = report["equivalence"]
        assert abs(eq["cosine_after"] - float(target)) < 1e-12
        assert eq["max_prob_diff"] < 1e-12
        assert eq["passed"] is True
        assert report["transforms"][0]["op"] == "translate"
        assert load_model(out_path).labels == ("l0", "l1", "l2", "l3", "l4")

    def test_equal_vectors_minus_one_exits_3(self, tmp_path, capsys):
        model = SoftmaxModel(
            UnembeddingSet(("a", "b"), [[1.0, 2.0], [1.0, 2.0]])
        )
        path = str(tmp_path / "dup.json")
        save_model(model, path)
        code = main(["force-cosine", "--input", path, "--pair", "0", "1",
                     "--target", "-1", "--output", str(tmp_path / "o.json")])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_pair_out_of_range_exits_3(self, data_dir, tmp_path):
        code = main(["force-cosine", "--input",
                     _model_path(data_dir, "unrestricted"),
                     "--pair", "0", "9", "--target", "1",
                     "--output", str(tmp_path / "o.json")])
        assert code == 3

    def test_bad_target_exits_3(self, data_dir, tmp_path):
        code = main(["force-cosine", "--input",
                     _model_path(data_dir, "unrestricted"),
                     "--pair", "0", "1", "--target", "0",
                     "--output", str(tmp_path / "o.json")])
        assert code == 3


class TestTransform:
    def test_center(self, data_dir, tmp_path):
        out = str(tmp_path / "c.json")
        assert main(["transform", "--input",
                     _model_path(data_dir, "unrestricted"),
                     "--op", "center", "--output", out]) == 0
        model = load_model(out)
        assert np.abs(model.unembeddings.vectors.sum(axis=0)).max() <= 1e-12

    def test_normalize(self, data_dir, tmp_path):
        out = str(tmp_path / "n.json")
        assert main(["transform", "--input",
                     _model_path(data_dir, "unrestricted"),
                     "--op", "normalize", "--output", out]) == 0
        norms = np.linalg.norm(load_model(out).unembeddings.vectors, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_translate(self, data_dir, tmp_path):
        out = str(tmp_path / "t.csv")
        assert main(["transform", "--input",
                     _model_path(data_dir, "unrestricted"),
                     "--op", "translate", "--vector", "-0.75", "-0.75",
                     "--output", out]) == 0
        moved = load_model(out)
        assert moved.unembeddings.vector(0)[0] == 0.25

    def test_scale(self, data_dir, tmp_path):
        out = str(tmp_path / "s.json")
        assert main(["transform", "--input",
                     _model_path(data_dir, "unrestricted"),
                     "--op", "scale", "--scale", "2", "--output", out]) == 0
        scaled = load_model(out)
        assert scaled.unembeddings.vector(0)[0] == 2.0

    def test_translate_without_vector_exits_3(self, data_dir, tmp_path):
        assert main(["transform", "--input",
                     _model_path(data_dir, "unrestricted"),
                     "--op", "translate",
                     "--output", str(tmp_path / "x.json")]) == 3

    def test_scale_without_factor_exits_3(self, data_dir, tmp_path):
        assert main(["transform", "--input",
                     _model_path(data_dir, "unrestricted"),
                     "--op", "scale",
                     "--output", str(tmp_path / "x.json")]) == 3

    def test_nonpositive_scale_exits_3(self, data_dir, tmp_path):
        assert main(["transform", "--input",
                     _model_path(data_dir, "unrestricted"),
                     "--op", "scale", "--scale", "-2",
                     "--output", str(tmp_path / "x.json")]) == 3


class TestTies:
    def test_single_index(self, data_dir, capsys):
        assert main(["ties", "--input", _model_path(data_dir, "centered"),
                     "--index", "2"]) == 0
        out = capsys.readouterr().out
        assert "l2: ties possible with l1, l3" in out

    def test_all_with_report(self, data_dir, tmp_path):
        report_path = str(tmp_path / "ties.json")
        assert main(["ties", "--input", _model_path(data_dir, "centered"),
                     "--all", "--output", report_path]) == 0
        report = load_report(report_path)
        feas = report["feasibility"]
        assert feas["partners"]["l2"] == ["l1", "l3"]
        pair_24 = next(
            p for p in feas["pairs"]
            if (p["i"], p["j"]) in [(2, 4), (4, 2)]
        )
        assert pair_24["verdict"] == "infeasible"
        assert pair_24["oracle"] is False

    def test_centered_unit_pairs(self, data_dir, tmp_path):
        report_path = str(tmp_path / "ties.json")
        assert main(["ties", "--input", _model_path(data_dir, "centered_unit"),
                     "--all", "--output", report_path]) == 0
        pairs = {
            (p["i"], p["j"]): p["verdict"]
            for p in load_report(report_path)["feasibility"]["pairs"]
        }
        assert pairs[(0, 1)] == "feasible"
        assert pairs[(1, 3)] == "infeasible"

    def test_missing_selector_exits_3(self, data_dir, capsys):
        assert main(["ties", "--input", _model_path(data_dir, "centered")]) == 3
        assert "one of the arguments --index --all is required" in capsys.readouterr().err

    def test_index_and_all_exit_3(self, data_dir, capsys):
        # --index I and --all are alternatives; both given is a usage error
        assert main(["ties", "--input", _model_path(data_dir, "centered"),
                     "--index", "2", "--all"]) == 3
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_bad_eps_exits_3(self, data_dir, tmp_path, capsys, eps):
        report_path = tmp_path / "ties.json"
        assert main(["ties", "--input", _model_path(data_dir, "centered"),
                     "--all", f"--eps={eps}", "--output", str(report_path)]) == 3
        assert "eps must be finite and >= 0" in capsys.readouterr().err
        assert not report_path.exists()

    def test_bad_index_exits_3(self, data_dir):
        assert main(["ties", "--input", _model_path(data_dir, "centered"),
                     "--index", "11"]) == 3

    def test_collinear_labels_exit_0(self, tmp_path):
        # g_2 lies exactly on the segment g_0 g_1, so pair (0, 1) cannot
        # tie; the exact oracle must agree with the LP's proof
        path = tmp_path / "collinear.csv"
        path.write_text("label,dim_0,dim_1\na,0,0\nb,5,5\nc,4.0097,4.0097\n")
        report_path = str(tmp_path / "ties.json")
        assert main(["ties", "--input", str(path), "--all",
                     "--output", report_path]) == 0
        pairs = load_report(report_path)["feasibility"]["pairs"]
        pair_01 = next(p for p in pairs if (p["i"], p["j"]) == (0, 1))
        assert pair_01["verdict"] == "infeasible"
        assert pair_01["oracle"] is False

    def test_duplicate_labels_in_2d_exit_0(self, tmp_path):
        # a and b are the same vector: the exact oracle decides the pair
        # from the open half-plane test instead of raising
        path = tmp_path / "duplicate.csv"
        path.write_text("label,dim_0,dim_1\na,1,2\nb,1,2\nc,0,-1\n")
        report_path = str(tmp_path / "ties.json")
        assert main(["ties", "--input", str(path), "--all",
                     "--output", report_path]) == 0
        pairs = {(p["i"], p["j"]): (p["verdict"], p["oracle"])
                 for p in load_report(report_path)["feasibility"]["pairs"]}
        assert pairs == {(0, 1): ("feasible", True), (0, 2): ("infeasible", False),
                         (1, 2): ("infeasible", False)}

    def test_witnesses_recorded_for_feasible_pairs(self, data_dir, tmp_path):
        report_path = str(tmp_path / "ties.json")
        main(["ties", "--input", _model_path(data_dir, "centered"),
              "--all", "--output", report_path])
        for pair in load_report(report_path)["feasibility"]["pairs"]:
            if pair["verdict"] == "feasible":
                assert pair["witness"] is not None
            else:
                assert pair["witness"] is None


class TestRegions:
    def test_grid_file(self, data_dir, tmp_path):
        out = str(tmp_path / "g.csv")
        assert main(["regions", "--input",
                     _model_path(data_dir, "unrestricted"),
                     "--resolution", "2", "--output", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "x,y,label_index"
        assert len(lines) == 5  # header + 4 cells

    def test_explicit_bounds(self, data_dir, tmp_path):
        out = str(tmp_path / "g.csv")
        assert main(["regions", "--input",
                     _model_path(data_dir, "unrestricted"),
                     "--resolution", "4",
                     "--bounds", "-1", "1", "-1", "1",
                     "--output", out]) == 0
        first = open(out).read().splitlines()[1]
        assert first.split(",")[0] == "-0.75"

    def test_non_2d_model_exits_3(self, tmp_path):
        model = SoftmaxModel(UnembeddingSet(
            ("a", "b"), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        ))
        path = str(tmp_path / "m3.json")
        save_model(model, path)
        assert main(["regions", "--input", path,
                     "--output", str(tmp_path / "g.csv")]) == 3

    def test_forced_equivalents_byte_identical(self, data_dir, tmp_path):
        # CLI-level version of the shared-bounds grid comparison
        base = _model_path(data_dir, "unrestricted")
        minus = str(tmp_path / "minus.json")
        plus = str(tmp_path / "plus.json")
        main(["force-cosine", "--input", base, "--pair", "0", "1",
              "--target", "-1", "--output", minus])
        main(["force-cosine", "--input", base, "--pair", "0", "1",
              "--target", "1", "--output", plus])
        bounds = ["--bounds", "-1.5", "1.5", "-1.75", "1.55"]
        texts = []
        for idx, path in enumerate([base, minus, plus]):
            grid_path = str(tmp_path / f"g{idx}.csv")
            assert main(["regions", "--input", path, "--resolution", "200",
                         *bounds, "--output", grid_path]) == 0
            texts.append(open(grid_path).read())
        assert texts[0] == texts[1] == texts[2]


class TestVerifyEquivalence:
    def test_equivalent_pair(self, data_dir, tmp_path, capsys):
        base = _model_path(data_dir, "unrestricted")
        moved = str(tmp_path / "moved.json")
        main(["transform", "--input", base, "--op", "translate",
              "--vector", "0.3", "-0.4", "--output", moved])
        report_path = str(tmp_path / "eq.json")
        assert main(["verify-equivalence", "--input", base, "--other", moved,
                     "--output", report_path]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out
        assert load_report(report_path)["equivalence"]["passed"] is True

    def test_inequivalent_pair_reports_failure(self, data_dir, tmp_path, capsys):
        base = _model_path(data_dir, "unrestricted")
        scaled_wrong = str(tmp_path / "w.json")
        # scaling only the unembeddings (dropping the 1/c on points) does
        # change probabilities
        model = load_model(base)
        bad = model.with_unembeddings(
            model.unembeddings.with_vectors(model.unembeddings.vectors * 3.0)
        )
        save_model(bad, scaled_wrong)
        assert main(["verify-equivalence", "--input", base,
                     "--other", scaled_wrong]) == 0
        assert "NOT EQUIVALENT" in capsys.readouterr().out

    def test_embeddings_flag_supplies_the_points(self, data_dir, tmp_path):
        points = tmp_path / "points.csv"
        rows = np.random.default_rng(5).uniform(-1.0, 1.0, size=(37, 2))
        points.write_text("point,dim_0,dim_1\n" + "".join(
            f"p{n},{x:.17g},{y:.17g}\n" for n, (x, y) in enumerate(rows)))
        report_path = str(tmp_path / "eq.json")
        assert main(["verify-equivalence", "--input",
                     _model_path(data_dir, "unrestricted", "csv"),
                     "--embeddings", str(points),
                     "--other", _model_path(data_dir, "unrestricted"),
                     "--output", report_path]) == 0
        report = load_report(report_path)
        assert report["equivalence"]["num_points_checked"] == 37
        assert report["input"]["n_points"] == 37

    def test_dimension_mismatch_exits_3(self, data_dir, tmp_path):
        other = str(tmp_path / "m3.json")
        save_model(SoftmaxModel(UnembeddingSet(
            ("l0", "l1", "l2", "l3", "l4"),
            np.eye(5, 3),
        )), other)
        assert main(["verify-equivalence", "--input",
                     _model_path(data_dir, "unrestricted"),
                     "--other", other]) == 3


class TestReproduce:
    @pytest.mark.parametrize("name", [
        "unrestricted", "centered", "centered_unit", "centered_unit_printed",
    ])
    def test_examples_pass(self, name, tmp_path, capsys):
        outdir = str(tmp_path / name)
        assert main(["reproduce", name, "--outdir", outdir]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out
        assert "FAIL" not in out.replace("SOME CHECKS FAILED", "")
        assert (tmp_path / name / "summary.txt").exists()
        assert (tmp_path / name / "report.json").exists()

    def test_unrestricted_writes_grids(self, tmp_path):
        outdir = tmp_path / "u"
        main(["reproduce", "unrestricted", "--outdir", str(outdir),
              "--resolution", "50"])
        grids = [
            (outdir / "grid.csv").read_text(),
            (outdir / "grid_cos_minus1.csv").read_text(),
            (outdir / "grid_cos_plus1.csv").read_text(),
        ]
        assert grids[0] == grids[1] == grids[2]

    def test_unrestricted_report_carries_both_forced_cosines(self, tmp_path):
        outdir = tmp_path / "u"
        main(["reproduce", "unrestricted", "--outdir", str(outdir),
              "--resolution", "50"])
        eq = load_report(str(outdir / "report.json"))["equivalence"]
        assert abs(eq["cosine_minus1"] + 1.0) < 1e-12
        assert abs(eq["cosine_plus1"] - 1.0) < 1e-12
        assert eq["cosine_before"] == 0.8
        assert eq["passed"] is True

    def test_corrected_fixture_notes_the_correction(self, tmp_path, capsys):
        main(["reproduce", "centered_unit", "--outdir", str(tmp_path / "cu")])
        assert "sign-corrected" in capsys.readouterr().out

    def test_unknown_example_exits_3(self, tmp_path, capsys):
        assert main(["reproduce", "mystery",
                     "--outdir", str(tmp_path / "x")]) == 3


class TestExitCodes:
    def test_one_parser_serves_every_call(self, data_dir, capsys):
        # a usage error, --help and a valid command in one process print
        # and exit exactly as each does on a parser of its own
        runs = [["ties"], ["--help"],
                ["ties", "--input", _model_path(data_dir, "centered"), "--index", "2"]]
        alone = []
        for argv in runs:
            cli._build_parser.cache_clear()
            alone.append((main(argv), capsys.readouterr()))
        assert [code for code, _ in alone] == [3, 0, 0]
        assert [(main(argv), capsys.readouterr()) for argv in runs] == alone

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["similarity", "--input",
                     str(tmp_path / "absent.csv")]) == 2

    def test_ragged_csv_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,dim_0,dim_1\na,1,2\nb,3\n")
        assert main(["similarity", "--input", str(path)]) == 2

    def test_duplicate_label_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,dim_0,dim_1\na,1,2\na,3,4\n")
        assert main(["similarity", "--input", str(path)]) == 2

    def test_nan_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,dim_0,dim_1\na,1,nan\nb,3,4\n")
        assert main(["similarity", "--input", str(path)]) == 2

    def test_integer_beyond_double_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(
            '{"version": "1", "d": 2, "labels": ["a", "b"],'
            f' "unembeddings": [[1, 2], [3, {"9" * 400}]]}}'
        )
        assert main(["similarity", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: unembeddings[1][1] is not a finite number\n"
        )

    def test_integer_beyond_double_in_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text(f"label,dim_0,dim_1\na,1,2\nb,3,{'9' * 400}\n")
        assert main(["similarity", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}, line 3, column 3: non-finite value: '{'9' * 400}'\n"
        )

    def test_boolean_dimension_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(
            '{"version": "1", "d": true, "labels": ["a", "b"],'
            ' "unembeddings": [[1], [3]]}'
        )
        assert main(["similarity", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: bad dimension field d\n"

    def test_bad_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": "7"}')
        assert main(["similarity", "--input", str(path)]) == 2

    def test_unknown_subcommand_exits_3(self, capsys):
        assert main(["frobnicate"]) == 3

    def test_no_subcommand_exits_3(self, capsys):
        assert main([]) == 3

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "similarity" in capsys.readouterr().out

    def test_python_m_runs_the_cli(self):
        src = str(Path(__file__).parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "unembed.cli", "ties", "--help"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: unembed ties")

    def test_lp_oracle_disagreement_exits_4(self, tmp_path, capsys,
                                           monkeypatch):
        # pair (2, 4) can tie, but only by a margin of about 5e-10: a
        # proven tie below eps (degenerate) that the exact oracle confirms
        model = SoftmaxModel(UnembeddingSet(
            ("l0", "l1", "l2", "l3", "l4"),
            [[0.0, -1.0], [0.0, -2.0], [2.0, 0.0], [1.0, 0.0], [0.0, 1e-9]],
        ))
        path = str(tmp_path / "edge.json")
        save_model(model, path)
        report_path = str(tmp_path / "ties.json")
        assert main(["ties", "--input", path, "--index", "2",
                     "--output", report_path]) == 0
        verdicts = {(p["i"], p["j"]): p["verdict"]
                    for p in load_report(report_path)["feasibility"]["pairs"]}
        assert verdicts[(2, 4)] == "degenerate"
        assert verdicts[(2, 3)] == "infeasible"
        # an oracle that contradicts a verdict trips the exit-4 path
        import unembed.cli
        oracle = unembed.cli.coargmax_oracle_2d_pairs
        monkeypatch.setattr(unembed.cli, "coargmax_oracle_2d_pairs",
                            lambda u, pairs: ~oracle(u, pairs))
        assert main(["ties", "--input", path, "--index", "2"]) == 4
        assert "consistency" in capsys.readouterr().err
