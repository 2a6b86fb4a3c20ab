import contextlib
import csv
import io
import multiprocessing
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texlat import archive, cli, hppca, image, ppca, pss, synthesis
from texlat.archive import FeatureArchive, load_archive, save_archive

PARAMS = ["--scales", "2", "--orients", "2", "--neighbor", "3", "--size", "32"]


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def trained(pgm_dataset, tmp_path):
    arch = tmp_path / "f.pssa"
    model = tmp_path / "m.hpca"
    assert run("extract", pgm_dataset, "-o", arch, *PARAMS) == 0
    assert run("train", arch, "-o", model, "--ccr", "0.999", "--dim", "3") == 0
    return pgm_dataset, arch, model


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def expected_report_row(root, model, iterations):
    """The report values of one model: the per-class and overall means of
    evaluate_image([model], ...) over the fixture's images, then the mean
    relative error."""
    items = [(f"{cls}/{f.name}", image.normalize(image.load_image(f), 127.0, 40.0))
             for cls in ("alpha", "beta") for f in sorted((root / cls).iterdir())]
    cfg = synthesis.SynthesisConfig(iterations=iterations)
    tss, err = np.array([synthesis.evaluate_image([model], cfg, 9, index, *item)
                         for index, item in enumerate(items)])[..., 0].T
    return [float(x) for x in (np.mean(tss[:3]), np.mean(tss[3:]), np.mean(tss),
                               np.mean(err))]


class TestExtract:
    def test_archive_contents(self, pgm_dataset, tmp_path):
        out = tmp_path / "f.pssa"
        assert run("extract", pgm_dataset, "-o", out, *PARAMS) == 0
        arch = load_archive(out)
        assert arch.features.shape == (6, 142)
        assert arch.classes == ["alpha", "beta"]
        assert sorted(set(arch.labels.tolist())) == [0, 1]
        assert arch.ids[0].startswith("alpha/")

    @pytest.mark.parametrize("flags, ids", [
        ([], ["alpha/a0.pgm", "alpha/a1.pgm", "alpha/a2.pgm",
              "beta/b0.pgm", "beta/b1.pgm", "beta/b2.pgm"]),
        (["--split", "train", "--train-count", "2"],
         ["alpha/a0.pgm", "alpha/a1.pgm", "beta/b0.pgm", "beta/b1.pgm"]),
        (["--split", "eval", "--train-count", "1", "--eval-count", "1"],
         ["alpha/a1.pgm", "beta/b1.pgm"]),
        (["--split", "eval", "--train-count", "1"],
         ["alpha/a1.pgm", "alpha/a2.pgm", "beta/b1.pgm", "beta/b2.pgm"]),
    ], ids=["all", "train-2", "eval-1-1", "eval-rest"])
    def test_split_takes_sorted_files_in_order(self, pgm_dataset, tmp_path, flags, ids):
        out = tmp_path / "f.pssa"
        assert run("extract", pgm_dataset, "-o", out, *PARAMS, *flags) == 0
        arch = load_archive(out)
        assert arch.classes == ["alpha", "beta"]
        assert arch.ids == ids

    def test_rerun_is_bit_identical(self, pgm_dataset, tmp_path):
        a, b = tmp_path / "a.pssa", tmp_path / "b.pssa"
        assert run("extract", pgm_dataset, "-o", a, *PARAMS) == 0
        assert run("extract", pgm_dataset, "-o", b, *PARAMS) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_do_not_change_output(self, pgm_dataset, tmp_path):
        a, b = tmp_path / "a.pssa", tmp_path / "b.pssa"
        assert run("extract", pgm_dataset, "-o", a, *PARAMS, "--jobs", "1") == 0
        assert run("extract", pgm_dataset, "-o", b, *PARAMS, "--jobs", "2") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_start_at_most_one_worker_per_image(self, pgm_dataset, tmp_path,
                                                     monkeypatch):
        started = []

        class InProcessPool:  # records the worker count and starts none
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, items):
                return [fn(*it) for it in items]

        monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
        assert run("extract", pgm_dataset, "-o", tmp_path / "f.pssa", *PARAMS,
                   "--jobs", "1000") == 0
        assert started == [6]

    def test_empty_class_directory_fails_naming_class(self, pgm_dataset, tmp_path,
                                                      capsys):
        (pgm_dataset / "empty_cls").mkdir()
        code = run("extract", pgm_dataset, "-o", tmp_path / "f.pssa", *PARAMS)
        assert code == 2
        assert "empty_cls" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--train-count", "-1"), ("--eval-count", "-2"), ("--jobs", "0"), ("--jobs", "-3")])
    def test_bad_count_fails_naming_the_flag(self, pgm_dataset, tmp_path, capsys,
                                             flag, value):
        out = tmp_path / "f.pssa"
        assert run("extract", pgm_dataset, "--split", "train", "-o", out, *PARAMS,
                   flag, value) == 2
        assert f"{flag} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, reason", [
        (["--size", "100"], "image side must be a power of two, got 100"),
        (["--size", "32", "--scales", "4"], "4 scales leave a 2 px residual"),
        (["--size", "8", "--scales", "1", "--neighbor", "9"], "neighborhood 9 exceeds image side 8"),
    ], ids=["size", "scales", "neighborhood"])
    def test_bad_geometry_fails_once_before_any_work(self, pgm_dataset, tmp_path, capsys,
                                                     flags, reason):
        out = tmp_path / "x.pssa"
        assert run("extract", pgm_dataset, "-o", out, *flags) == 2
        err = capsys.readouterr().err
        assert err.count(reason) == 1
        assert str(out) not in err
        assert not out.exists()

    def test_unreadable_file_reported_and_counted(self, pgm_dataset, tmp_path,
                                                  capsys):
        (pgm_dataset / "alpha" / "broken.pgm").write_bytes(b"P5 trunc")
        code = run("extract", pgm_dataset, "-o", tmp_path / "f.pssa", *PARAMS)
        assert code == 2
        err = capsys.readouterr().err
        assert "broken.pgm" in err
        assert "5/6" in err or "6/7" in err

    def test_short_file_and_non_square_image_reported_and_counted(self, tmp_path, capsys,
                                                                  rng):
        cls = tmp_path / "ds" / "cls"
        cls.mkdir(parents=True)
        image.save_image(rng.uniform(0, 255, (32, 32)), cls / "a.pgm")
        (cls / "b.pgm").write_bytes(b"P")
        image.save_image(rng.uniform(0, 255, (32, 64)), cls / "c.pgm")
        out = tmp_path / "f.pssa"
        assert run("extract", tmp_path / "ds", "-o", out, *PARAMS, "--size", "0") == 2
        err = capsys.readouterr().err
        assert f"error: unsupported format: {cls / 'b.pgm'} is empty" in err
        assert err.count(str(cls / "b.pgm")) == 1
        assert (f"error: {cls / 'c.pgm'}: statistic input must be square, "
                "got shape (32, 64)") in err
        assert f"extracted 1/3 images -> {out}" in err
        assert load_archive(out).ids == ["cls/a.pgm"]

    def test_archive_version_mismatch_names_versions(self, pgm_dataset, tmp_path,
                                                     capsys):
        out = tmp_path / "f.pssa"
        assert run("extract", pgm_dataset, "-o", out, *PARAMS) == 0
        raw = bytearray(out.read_bytes())
        raw[4] = 9
        out.write_bytes(bytes(raw))
        assert run("info", out) == 2
        assert "9" in capsys.readouterr().err

    def test_default_parameters_give_1784(self, tmp_path, rng):
        root = tmp_path / "ds"
        (root / "only").mkdir(parents=True)
        for i in range(2):
            image.save_image(np.clip(rng.normal(127, 30, (64, 64)), 0, 255),
                             root / "only" / f"{i}.pgm")
        out = tmp_path / "f.pssa"
        assert run("extract", root, "-o", out, "--size", "64") == 0
        assert load_archive(out).features.shape[1] == 1784

    def test_resize_stores_the_statistic_of_the_box_filtered_image(self, tmp_path, rng):
        root = tmp_path / "ds"
        (root / "cls").mkdir(parents=True)
        for name, shape in (("square.pgm", (64, 64)), ("wide.pgm", (40, 48))):
            image.save_image(rng.uniform(0, 255, shape), root / "cls" / name)
        out = tmp_path / "f.pssa"
        assert run("extract", root, "-o", out, *PARAMS) == 0  # PARAMS resize to 32 px
        arch = load_archive(out)
        assert arch.ids == ["cls/square.pgm", "cls/wide.pgm"]
        for ident, row in zip(arch.ids, arch.features):
            img = image.resize_box(image.load_image(root / ident), 32, 32)
            want = pss.extract_pss(image.normalize(img, 127, 40), pss.PssParams(2, 2, 3))
            assert row.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("command", ["extract", "eval"])
@pytest.mark.parametrize("kind, reason", [("missing", "is not a directory"),
                                          ("flat", "contains no class directories")])
def test_bad_dataset_root_exits_two_naming_it(trained, tmp_path, capsys, command, kind,
                                              reason):
    _, _, model_path = trained
    root = tmp_path / kind
    if kind == "flat":  # an image at the root is not a class
        root.mkdir()
        image.save_image(np.zeros((32, 32)), root / "a.pgm")
    out = tmp_path / "out"
    argv = (["extract", root, "-o", out, *PARAMS] if command == "extract" else
            ["eval", model_path, root, "-o", out, "--size", "32", "--iterations", "0"])
    assert run(*argv) == 2
    assert f"dataset root {root} {reason}" in capsys.readouterr().err
    assert not out.exists()


class TestTrain:
    def test_prints_dimensions_and_writes_spectrum(self, trained, tmp_path, capsys):
        _, arch, _ = trained
        model_path = tmp_path / "m2.hpca"
        spec = tmp_path / "spec.csv"
        assert run("train", arch, "-o", model_path, "--ccr", "0.999",
                   "--dim", "2", "--spectrum-csv", spec) == 0
        out = capsys.readouterr().out
        assert "intermediate dimension:" in out
        assert "reduction rate:" in out
        rows = read_csv(spec)
        assert rows[0] == ["stage", "index", "eigenvalue"]
        stages = {r[0] for r in rows[1:]}
        assert stages == {f"C{i}" for i in range(1, 11)} | {"final"}

    @pytest.mark.parametrize("command", ["train", "encode"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_record_fails_naming_id_and_column(self, trained, tmp_path,
                                                         capsys, command, value):
        _, arch_path, model_path = trained
        arch = load_archive(arch_path)
        arch.features[1, 7] = value
        bad, out = tmp_path / "bad.pssa", tmp_path / "out"
        save_archive(arch, bad)
        argv = ["train", bad] if command == "train" else ["encode", model_path, bad]
        assert run(*argv, "-o", out) == 2
        err = capsys.readouterr().err
        assert f"record {arch.ids[1]!r}, column C2.s1.kurt, is {value}" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("column, name", [(20, "C3.s1.o0.dy1.dx1"),
                                              (40, "C3.s2.o1.dy-1.dx0")])
    def test_huge_record_fails_naming_group_record_and_column(self, trained, tmp_path,
                                                              capsys, column, name):
        _, arch_path, _ = trained
        arch = load_archive(arch_path)
        arch.features[0, column] = 1e300
        bad, out = tmp_path / "bad.pssa", tmp_path / "bad.hpca"
        save_archive(arch, bad)
        assert run("train", bad, "-o", out, "--ccr", "0.999", "--dim", "3") == 2
        err = capsys.readouterr().err
        assert f"group C3: Eigenvalues did not converge; its largest-magnitude entry is " \
               f"1e+300, record 0, column {name}" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, reason", [
        (["--ccr", "0"], "threshold must be in (0, 1], got 0.0"),
        (["--ccr", "1.5"], "threshold must be in (0, 1], got 1.5"),
        (["--dim", "0"], "output dimension must be >= 1, got 0")])
    def test_bad_ccr_or_dim_fails_naming_the_rule(self, trained, tmp_path, capsys, flags,
                                                  reason):
        _, arch, _ = trained
        out = tmp_path / "m2.hpca"
        assert run("train", arch, "-o", out, *flags) == 2
        assert f"error: {reason}" in capsys.readouterr().err
        assert not out.exists()

    def test_dim_above_intermediate_fails_with_both_numbers(self, trained, tmp_path,
                                                            capsys):
        _, arch, _ = trained
        code = run("train", arch, "-o", tmp_path / "m.hpca", "--dim", "4000")
        assert code == 2
        err = capsys.readouterr().err
        assert "4000" in err


class TestEncodeDecode:
    def test_archive_roundtrip_through_csv(self, trained, tmp_path):
        _, arch, model_path = trained
        codes = tmp_path / "codes.csv"
        assert run("encode", model_path, arch, "-o", codes) == 0
        rows = read_csv(codes)
        assert rows[0] == ["id", "c0", "c1", "c2"]
        assert len(rows) == 7

        decoded = tmp_path / "dec.csv"
        assert run("decode", model_path, codes, "-o", decoded) == 0
        dec_rows = read_csv(decoded)
        assert dec_rows[0][0] == "id"
        assert dec_rows[0][1] == "C1.mean"
        assert len(dec_rows[0]) == 1 + 142

        model = archive.load_model(model_path)
        feats = load_archive(arch)
        expect = hppca.decode_batch(model, hppca.encode_batch(model, feats.features))
        got = np.array([[float(x) for x in r[1:]] for r in dec_rows[1:]])
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_encode_single_image(self, trained, tmp_path):
        root, _, model_path = trained
        codes = tmp_path / "codes.csv"
        assert run("encode", model_path, root / "alpha" / "a0.pgm",
                   "-o", codes, "--size", "32") == 0
        assert len(read_csv(codes)) == 2

    def test_archive_is_told_by_its_magic(self, trained, tmp_path):
        _, arch, model_path = trained
        copy, a, b = tmp_path / "feats.bin", tmp_path / "a.csv", tmp_path / "b.csv"
        copy.write_bytes(arch.read_bytes())
        assert run("encode", model_path, arch, "-o", a) == 0
        assert run("encode", model_path, copy, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_code_width_rejected(self, trained, tmp_path):
        _, _, model_path = trained
        bad = tmp_path / "bad.csv"
        bad.write_text("id,c0\nx,1.0\n", encoding="utf-8")
        assert run("decode", model_path, bad, "-o", tmp_path / "d.csv") == 2

    def test_archive_of_other_parameters_rejected(self, trained, tmp_path, capsys):
        root, _, model_path = trained
        other, out = tmp_path / "other.pssa", tmp_path / "codes.csv"
        assert run("extract", root, "-o", other, *PARAMS, "--scales", "1") == 0
        assert run("encode", model_path, other, "-o", out) == 2
        assert "archive parameters do not match the model" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, reason", [
        pytest.param("x,1,2,3\n", "is not a codes CSV (missing header)", id="no-header"),
        pytest.param("id,c0,c1,c2\n", "no code rows", id="header-only"),
        pytest.param("id,c0,c1,c2\nx,1,2,3\ny,1,2\n", "row 2 has 3 values, header has 4",
                     id="ragged"),
    ])
    def test_malformed_codes_name_the_reason(self, trained, tmp_path, capsys, text, reason):
        _, _, model_path = trained
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        assert run("decode", model_path, bad, "-o", tmp_path / "d.csv") == 2
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_code_fails_naming_row_and_column(self, trained, tmp_path, capsys,
                                                         value):
        _, _, model_path = trained
        bad, out = tmp_path / "bad.csv", tmp_path / "d.csv"
        bad.write_text(f"id,c0,c1,c2\nx,1,2,3\ny,1,{value},3\n", encoding="utf-8")
        assert run("decode", model_path, bad, "-o", out) == 2
        assert f"row 2, column c1, is {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["decode", "synth"])
    def test_non_numeric_code_fails_naming_file_row_and_column(self, trained, tmp_path,
                                                               capsys, command):
        _, _, model_path = trained
        bad, out = tmp_path / "bad.csv", tmp_path / "out"
        bad.write_text("id,c0,c1,c2\nx,1,2,3\ny,1,2,abc\n", encoding="utf-8")
        args = ([bad] if command == "decode"
                else ["--code", bad, "--row", "0", "--synth-size", "32"])
        assert run(command, model_path, *args, "-o", out) == 2
        assert f"{bad}: row 2, column c2, is 'abc', not a number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_decode_exits_three(self, trained, tmp_path, capsys):
        _, _, model_path = trained
        huge, out = tmp_path / "huge.csv", tmp_path / "d.csv"
        huge.write_text("id,c0,c1,c2\nx,1e308,-1e308,1e308\n", encoding="utf-8")
        assert run("decode", model_path, huge, "-o", out) == 3
        assert "decoded statistic of 'x' is not finite" in capsys.readouterr().err
        assert not out.exists()


class TestSynth:
    def test_zero_iterations_writes_seeded_noise(self, trained, tmp_path):
        root, _, model_path = trained
        out = tmp_path / "s.pgm"
        trace = tmp_path / "t.csv"
        assert run("synth", model_path, "--input", root / "alpha" / "a0.pgm",
                   "-o", out, "--trace", trace, "--iterations", "0",
                   "--seed", "3", "--size", "32") == 0
        img = image.load_image(out)
        assert img.shape == (32, 32)
        assert len(read_csv(trace)) == 2  # header + initial distance

    def test_seed_reproducibility(self, trained, tmp_path):
        root, _, model_path = trained
        outs = []
        for name in ("a.pgm", "b.pgm"):
            out = tmp_path / name
            assert run("synth", model_path, "--input", root / "alpha" / "a1.pgm",
                       "-o", out, "--iterations", "2", "--seed", "7",
                       "--size", "32") == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_trace_rows_non_increasing(self, trained, tmp_path):
        root, _, model_path = trained
        trace = tmp_path / "t.csv"
        assert run("synth", model_path, "--input", root / "beta" / "b0.pgm",
                   "-o", tmp_path / "s.pgm", "--trace", trace,
                   "--iterations", "5", "--size", "32") == 0
        rows = read_csv(trace)
        assert len(rows) == 7
        dist = [float(r[1]) for r in rows[1:]]
        assert all(np.diff(dist) <= 1e-12)

    def test_code_route(self, trained, tmp_path):
        _, arch, model_path = trained
        codes = tmp_path / "codes.csv"
        assert run("encode", model_path, arch, "-o", codes) == 0
        assert run("synth", model_path, "--code", codes, "--row", "2",
                   "-o", tmp_path / "s.pgm", "--iterations", "1",
                   "--synth-size", "32") == 0

    @pytest.mark.parametrize("flags, side", [(["--size", "32"], 32),
                                             (["--size", "32", "--synth-size", "64"], 64),
                                             (["--size", "0"], 128)])
    def test_code_route_side_is_synth_size_else_size_else_128(self, trained, tmp_path,
                                                              flags, side):
        _, arch, model_path = trained
        codes, out = tmp_path / "codes.csv", tmp_path / "s.pgm"
        assert run("encode", model_path, arch, "-o", codes) == 0
        assert run("synth", model_path, "--code", codes, "-o", out, "--iterations", "0",
                   *flags) == 0
        assert image.load_image(out).shape == (side, side)

    def test_negative_synth_size_fails_naming_it(self, trained, tmp_path, capsys):
        root, _, model_path = trained
        out = tmp_path / "s.pgm"
        assert run("synth", model_path, "--input", root / "alpha" / "a0.pgm", "-o", out,
                   "--synth-size", "-4", "--size", "32") == 2
        assert "image side must be a power of two, got -4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["both", "neither"])
    def test_exactly_one_source_required(self, trained, tmp_path, capsys, source):
        root, arch, model_path = trained
        codes, out = tmp_path / "codes.csv", tmp_path / "s.pgm"
        assert run("encode", model_path, arch, "-o", codes) == 0
        args = (["--input", root / "alpha" / "a0.pgm", "--code", codes]
                if source == "both" else [])
        assert run("synth", model_path, *args, "-o", out, "--size", "32") == 2
        assert "exactly one of --input or --code is required" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("row", ["6", "-1"])
    def test_row_out_of_range_fails_naming_it(self, trained, tmp_path, capsys, row):
        _, arch, model_path = trained
        codes, out = tmp_path / "codes.csv", tmp_path / "s.pgm"
        assert run("encode", model_path, arch, "-o", codes) == 0
        assert run("synth", model_path, "--code", codes, "--row", row, "-o", out,
                   "--synth-size", "32") == 2
        assert f"--row {row} out of range for 6 codes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_exit_code(self, trained, tmp_path):
        # a finite code whose decoded statistic overflows
        _, _, model_path = trained
        bad = tmp_path / "bad.csv"
        bad.write_text("id,c0,c1,c2\nx,1e308,-1e308,1e308\n", encoding="utf-8")
        code = run("synth", model_path, "--code", bad, "-o", tmp_path / "s.pgm",
                   "--iterations", "1", "--synth-size", "32")
        assert code == 3

    def test_non_finite_code_row_fails_naming_row_and_column(self, trained, tmp_path,
                                                             capsys):
        _, _, model_path = trained
        bad, out = tmp_path / "bad.csv", tmp_path / "s.pgm"
        bad.write_text("id,c0,c1,c2\nx,0.5,-0.5,0.25\ny,1,nan,3\n", encoding="utf-8")
        args = ("synth", model_path, "--code", bad, "-o", out, "--iterations", "1",
                "--synth-size", "32")
        assert run(*args, "--row", "1") == 2
        assert f"{bad}: row 2, column c1, is nan" in capsys.readouterr().err
        assert not out.exists()
        assert run(*args, "--row", "0") == 0
        assert out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_training_feature_exits_three_not_nan(self, trained, tmp_path, capsys):
        root, arch_path, _ = trained
        arch = load_archive(arch_path)
        arch.features[0, 10] = 1e300
        huge, model_path = tmp_path / "huge.pssa", tmp_path / "huge.hpca"
        save_archive(arch, huge)
        assert run("train", huge, "-o", model_path, "--ccr", "0.999", "--dim", "3") == 0
        out = tmp_path / "s.pgm"
        code = run("synth", model_path, "--input", root / "alpha" / "a0.pgm",
                   "-o", out, "--iterations", "2", "--size", "32")
        err = capsys.readouterr().err
        assert code == 3
        assert "starting distance is nan" in err
        assert not out.exists()


class TestEval:
    def test_single_model_gives_one_row(self, trained, tmp_path):
        root, _, model_path = trained
        report = tmp_path / "r.csv"
        assert run("eval", model_path, root, "-o", report, "--size", "32",
                   "--iterations", "1", "--patch-size", "9") == 0
        rows = read_csv(report)
        assert rows[0] == ["value", "tss_alpha", "tss_beta", "tss_all", "pss_err_all"]
        assert len(rows) == 2
        assert rows[1][0] == "3"
        assert -1.0 <= float(rows[1][3]) <= 1.0

    def test_report_is_the_mean_of_evaluate_image_scores(self, trained, tmp_path):
        root, _, model_path = trained
        report = tmp_path / "r.csv"
        assert run("eval", model_path, root, "-o", report, "--size", "32",
                   "--iterations", "2", "--patch-size", "9") == 0
        expect = expected_report_row(root, archive.load_model(model_path), 2)
        assert [float(x) for x in read_csv(report)[1][1:]] == expect

    def test_jobs_do_not_change_report(self, trained, tmp_path):
        root, _, model_path = trained
        outs = []
        for jobs in ("1", "2"):
            report = tmp_path / f"r{jobs}.csv"
            assert run("eval", model_path, root, "-o", report, "--size", "32",
                       "--iterations", "1", "--patch-size", "9",
                       "--jobs", jobs) == 0
            outs.append(report.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("method, sweep, iterations", [
        pytest.param("forkserver", False, "1", id="forkserver"),
        pytest.param("spawn", False, "1", id="spawn"),
        pytest.param("forkserver", True, "1", id="forkserver-sweep"),
        pytest.param("spawn", True, "1", id="spawn-sweep"),
        # one sample_grid_tss call then scores every swept model
        pytest.param("forkserver", True, "0", id="forkserver-sweep-noise"),
        pytest.param("spawn", True, "0", id="spawn-sweep-noise"),
    ])
    def test_jobs_match_under_start_method(self, trained, tmp_path, monkeypatch,
                                           method, sweep, iterations):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method} is not available here")
        root, arch, model_path = trained
        argv = ["eval", model_path, root, "--size", "32", "--iterations", iterations,
                "--patch-size", "9"]
        if sweep:  # each task then carries every swept model
            argv += ["--archive", arch, "--sweep-dim", "2,3"]
        assert run(*argv, "-o", tmp_path / "r1.csv", "--jobs", "1") == 0
        monkeypatch.setattr(multiprocessing, "Pool",
                            multiprocessing.get_context(method).Pool)
        assert run(*argv, "-o", tmp_path / "r2.csv", "--jobs", "2") == 0
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    def test_dim_sweep_rows(self, trained, tmp_path):
        root, arch, model_path = trained
        report = tmp_path / "r.csv"
        assert run("eval", model_path, root, "-o", report, "--size", "32",
                   "--archive", arch, "--sweep-dim", "2,3",
                   "--iterations", "1", "--patch-size", "9") == 0
        rows = read_csv(report)
        assert [r[0] for r in rows[1:]] == ["2", "3"]

    def test_sweep_extracts_each_image_once(self, trained, tmp_path, monkeypatch):
        root, arch_path, model_path = trained
        calls = []
        extract = pss.extract_pss
        monkeypatch.setattr(pss, "extract_pss",
                            lambda img, params: calls.append(1) or extract(img, params))
        report = tmp_path / "r.csv"
        assert run("eval", model_path, root, "-o", report, "--size", "32",
                   "--archive", arch_path, "--sweep-dim", "2,3",
                   "--iterations", "1", "--patch-size", "9") == 0
        assert len(calls) == 6  # one per image, not one per image and d

        arch, model = load_archive(arch_path), archive.load_model(model_path)
        body = read_csv(report)[1:]
        for d, row in zip((2, 3), body):
            swept = hppca.fit_hierarchy(hppca.GroupSpectra(arch.features, arch.params),
                                        model.intermediate_threshold, d)
            assert row[0] == str(d)
            assert [float(x) for x in row[1:]] == expected_report_row(root, swept, 1)

    @pytest.mark.parametrize("sweep, calls", [(["--sweep-dim", "1,2,3"], 13),
                                              (["--sweep-ccr", "0.999,0.9999"], 12)],
                             ids=["dim", "ccr"])
    def test_sweep_decomposes_each_group_once(self, trained, tmp_path, monkeypatch,
                                              sweep, calls):
        root, arch, model_path = trained
        shapes = []
        sample_eig = ppca._sample_eig
        monkeypatch.setattr(ppca, "_sample_eig",
                            lambda x: shapes.append(x.shape) or sample_eig(x))
        assert run("eval", model_path, root, "-o", tmp_path / "r.csv", "--size", "32",
                   "--archive", arch, *sweep, "--iterations", "0", "--patch-size", "9") == 0
        # the ten groups once for the sweep, then the final stage once per value
        assert len(shapes) == calls

    def test_ccr_sweep_rows_are_the_refit_models_means(self, trained, tmp_path):
        root, arch_path, model_path = trained
        report = tmp_path / "r.csv"
        assert run("eval", model_path, root, "-o", report, "--size", "32",
                   "--archive", arch_path, "--sweep-ccr", "0.999,0.9999",
                   "--iterations", "1", "--patch-size", "9") == 0

        arch, model = load_archive(arch_path), archive.load_model(model_path)
        body = read_csv(report)[1:]
        assert len(body) == 2
        for ccr, row in zip((0.999, 0.9999), body):
            swept = hppca.fit_hierarchy(hppca.GroupSpectra(arch.features, arch.params), ccr,
                                        model.output_dim)
            assert row[0] == cli._fmt(ccr)
            assert [float(x) for x in row[1:]] == expected_report_row(root, swept, 1)

    @pytest.mark.parametrize("flags, reason", [
        (["--sweep-dim", "2,0"], "output dimension must be >= 1, got 0"),
        (["--sweep-ccr", "0.999,1.5"], "threshold must be in (0, 1], got 1.5"),
        (["--sweep-ccr", "0"], "threshold must be in (0, 1], got 0.0"),
        (["--sweep-dim", "2,3", "--patch-size", "0"], "patch size must be >= 1, got 0"),
        (["--sweep-dim", "2,3", "--size", "100"], "image side must be a power of two, got 100"),
    ], ids=["dim-zero", "ccr-above-one", "ccr-zero", "patch-size-zero", "size-not-power-of-two"])
    def test_bad_value_fails_before_any_image_load_or_refit(self, trained, tmp_path,
                                                            capsys, monkeypatch,
                                                            flags, reason):
        root, arch, model_path = trained
        calls = []
        for module, name in ((image, "load_image"), (hppca, "fit_hierarchy")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, name=name, real=real, **kw:
                                calls.append(name) or real(*a, **kw))
        report = tmp_path / "r.csv"
        assert run("eval", model_path, root, "-o", report, "--size", "32",
                   "--archive", arch, "--iterations", "0", "--patch-size", "9",
                   *flags) == 2
        assert reason in capsys.readouterr().err
        assert calls == []
        assert not report.exists()

    def test_zero_iterations_make_one_forward_per_image(self, trained, tmp_path,
                                                        monkeypatch):
        root, arch, model_path = trained
        calls = []
        forward = pss._forward
        monkeypatch.setattr(pss, "_forward",
                            lambda img, params: calls.append(1) or forward(img, params))
        assert run("eval", model_path, root, "-o", tmp_path / "r.csv", "--size", "32",
                   "--archive", arch, "--sweep-dim", "1,2,3",
                   "--iterations", "0", "--patch-size", "9") == 0
        assert len(calls) == 6  # the source statistics; none of the seeded noise

    @pytest.mark.parametrize("iterations, per_image", [(0, 1), (1, 2)],
                             ids=["zero-iterations", "one-iteration"])
    def test_each_scoring_call_builds_its_source_terms_once(self, trained, tmp_path,
                                                            monkeypatch, iterations,
                                                            per_image):
        # at zero iterations one call per image scores both swept models' samples;
        # after synthesis each model's sample is scored on its own
        root, arch, model_path = trained
        calls = []
        terms = synthesis._source_terms
        monkeypatch.setattr(synthesis, "_source_terms",
                            lambda *a: calls.append(1) or terms(*a))
        assert run("eval", model_path, root, "-o", tmp_path / "r.csv", "--size", "32",
                   "--archive", arch, "--sweep-dim", "2,3", "--iterations", iterations,
                   "--patch-size", "9") == 0
        assert len(calls) == 6 * per_image

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("column", [0, 1, 10])
    def test_huge_training_feature_exits_three_without_report(self, trained, tmp_path,
                                                              capsys, column):
        root, arch_path, _ = trained
        arch = load_archive(arch_path)
        arch.features[0, column] = 1e300
        huge, model_path = tmp_path / "huge.pssa", tmp_path / "huge.hpca"
        save_archive(arch, huge)
        assert run("train", huge, "-o", model_path, "--ccr", "0.999", "--dim", "3") == 0
        report = tmp_path / "r.csv"
        code = run("eval", model_path, root, "-o", report, "--size", "32",
                   "--iterations", "0", "--patch-size", "9")
        err = capsys.readouterr().err
        assert code == 3
        assert re.match(r"numeric failure: .*\b(nan|inf|non-finite)\b", err)
        assert not report.exists()

    @pytest.mark.parametrize("flag, value, kind", [
        ("--sweep-dim", "10,x", "int"), ("--sweep-ccr", "0.9,y", "float")])
    def test_bad_sweep_list_names_the_expected_type(self, trained, tmp_path, capsys,
                                                   flag, value, kind):
        root, arch, model_path = trained
        with pytest.raises(SystemExit) as exc:
            run("eval", model_path, root, "-o", tmp_path / "r.csv", "--archive", arch,
                flag, value)
        assert exc.value.code == 1
        assert (f"argument {flag}: invalid comma-separated {kind} value: '{value}'"
                in capsys.readouterr().err)

    def test_patch_larger_than_an_image_fails_naming_it_before_any_refit(
            self, trained, tmp_path, capsys, monkeypatch):
        root, arch, model_path = trained
        fits = []
        fit = hppca.fit_hierarchy
        monkeypatch.setattr(hppca, "fit_hierarchy", lambda *a: fits.append(1) or fit(*a))
        report = tmp_path / "r.csv"
        assert run("eval", model_path, root, "-o", report, "--size", "32",
                   "--archive", arch, "--sweep-dim", "2,3", "--iterations", "0",
                   "--patch-size", "40") == 2
        assert ("error: image alpha/a0.pgm: source (32, 32) is smaller than the 40x40 sample"
                in capsys.readouterr().err)
        assert fits == []
        assert not report.exists()

    @pytest.mark.parametrize("shape, reason", [
        ((32, 48), "statistic input must be square, got shape (32, 48)"),
        ((40, 40), "image side must be a power of two, got 40"),
    ], ids=["not-square", "not-power-of-two"])
    def test_image_the_statistic_refuses_fails_naming_it_before_any_refit(
            self, trained, tmp_path, capsys, monkeypatch, shape, reason):
        root, arch, model_path = trained
        image.save_image(np.full(shape, 127.0), root / "beta" / "b3.pgm")
        fits = []
        fit = hppca.fit_hierarchy
        monkeypatch.setattr(hppca, "fit_hierarchy", lambda *a: fits.append(1) or fit(*a))
        report = tmp_path / "r.csv"
        assert run("eval", model_path, root, "-o", report, "--size", "0",
                   "--archive", arch, "--sweep-dim", "2,3", "--iterations", "0",
                   "--patch-size", "9") == 2
        assert f"error: image beta/b3.pgm: {reason}" in capsys.readouterr().err
        assert fits == []
        assert not report.exists()

    def test_zero_patch_size_fails_naming_it(self, trained, tmp_path, capsys):
        root, _, model_path = trained
        assert run("eval", model_path, root, "-o", tmp_path / "r.csv", "--size", "32",
                   "--iterations", "0", "--patch-size", "0") == 2
        assert "patch size must be >= 1, got 0" in capsys.readouterr().err

    def test_sweep_without_archive_fails(self, trained, tmp_path):
        root, _, model_path = trained
        assert run("eval", model_path, root, "-o", tmp_path / "r.csv",
                   "--sweep-dim", "2", "--size", "32") == 2

    def test_sweep_archive_of_other_parameters_rejected(self, trained, tmp_path, capsys):
        root, _, model_path = trained
        other, report = tmp_path / "other.pssa", tmp_path / "r.csv"
        assert run("extract", root, "-o", other, *PARAMS, "--scales", "1") == 0
        assert run("eval", model_path, root, "-o", report, "--size", "32",
                   "--archive", other, "--sweep-dim", "2", "--iterations", "0",
                   "--patch-size", "9") == 2
        assert "archive parameters do not match the model" in capsys.readouterr().err
        assert not report.exists()

    def test_negative_iterations_fail_before_any_refit(self, trained, tmp_path, capsys):
        root, _, model_path = trained
        report = tmp_path / "r.csv"
        assert run("eval", model_path, root, "-o", report, "--size", "32",
                   "--iterations", "-1", "--sweep-dim", "5") == 2
        assert "iterations must be >= 0" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--train-count", "-1"), ("--eval-count", "-2"), ("--jobs", "0"), ("--jobs", "-3")])
    def test_bad_count_fails_naming_the_flag(self, trained, tmp_path, capsys, flag, value):
        root, _, model_path = trained
        report = tmp_path / "r.csv"
        assert run("eval", model_path, root, "-o", report, "--size", "32",
                   "--iterations", "0", "--patch-size", "9", flag, value) == 2
        assert f"{flag} must be" in capsys.readouterr().err
        assert not report.exists()

    def test_empty_split_fails(self, trained, tmp_path):
        root, _, model_path = trained
        code = run("eval", model_path, root, "-o", tmp_path / "r.csv",
                   "--size", "32", "--split", "eval", "--train-count", "3",
                   "--eval-count", "0")
        assert code == 2


class TestInfoAndExitCodes:
    def test_info_on_all_containers(self, trained, tmp_path, capsys, rng):
        _, arch, model_path = trained
        assert run("info", arch) == 0
        assert "feature archive" in capsys.readouterr().out
        assert run("info", model_path) == 0
        out = capsys.readouterr().out
        assert "intermediate=" in out and "group latents" in out

    def test_usage_error_is_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("extract", "--nonsense")
        assert exc.value.code == 1

    def test_missing_file_is_exit_two(self, tmp_path, capsys):
        assert run("info", tmp_path / "nope.bin") == 2
        assert f"No such file or directory: '{tmp_path / 'nope.bin'}'" in capsys.readouterr().err

    def test_directory_is_exit_two(self, tmp_path, capsys):
        assert run("info", tmp_path) == 2
        assert f"Is a directory: '{tmp_path}'" in capsys.readouterr().err

    def test_unknown_magic_is_exit_two_naming_it(self, tmp_path, capsys):
        path = tmp_path / "x.bin"
        for magic in (b"NOPE", b"PSSV"):
            path.write_bytes(magic + bytes(16))
            assert run("info", path) == 2
            assert f"{path}: unrecognized file magic {magic!r}" in capsys.readouterr().err

    def test_bands_dump(self, pgm_dataset, tmp_path):
        out = tmp_path / "bands"
        assert run("bands", pgm_dataset / "alpha" / "a0.pgm", "-o", out,
                   "--scales", "2", "--orients", "2") == 0
        files = sorted(p.name for p in out.iterdir())
        assert "band_s1_o0.pgm" in files
        assert "lowpass_residual.pgm" in files
        assert len(files) == 6

    def test_signed_header_exits_two_naming_the_file(self, tmp_path, capsys):
        src = tmp_path / "signed.pgm"
        src.write_text("P2 32 32 +255 " + "7 " * 1024, encoding="utf-8")
        out = tmp_path / "bands"
        assert run("bands", src, "-o", out, "--scales", "2", "--orients", "2") == 2
        assert "signed.pgm: bad PGM header" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_non_integer_sample_exits_two_naming_the_file(self, tmp_path, capsys):
        src = tmp_path / "nan.pgm"
        src.write_text("P2 32 32 255 " + "7 " * 1023 + "nan", encoding="utf-8")
        out = tmp_path / "bands"
        assert run("bands", src, "-o", out, "--scales", "2", "--orients", "2") == 2
        assert "nan.pgm" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


# --------------------------------------------------------------------------
# non-finite and near-overflow values in the files the commands read

NF_PARAMS = pss.PssParams(1, 1, 3)
NF_DIM = pss.pss_dim(NF_PARAMS)
NF_ROWS = 8
MAX = np.finfo(float).max
_poison = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf]),
                    st.floats(1e300, MAX), st.floats(-MAX, -1e300))


def _cells(rows, cols):
    return st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), _poison),
                    min_size=1, max_size=3)


@pytest.fixture(scope="module")
def nf_base(tmp_path_factory):
    """A clean archive, the model trained on it, its codes and a two-image dataset."""
    root = tmp_path_factory.mktemp("nonfinite")
    rng = np.random.default_rng(5)
    arch = FeatureArchive(NF_PARAMS, ["a", "b"], np.arange(NF_ROWS, dtype=np.int32) % 2,
                          [f"{'ab'[i % 2]}/{i}.pgm" for i in range(NF_ROWS)],
                          rng.standard_normal((NF_ROWS, NF_DIM)))
    save_archive(arch, root / "clean.pssa")
    for cls in "ab":
        (root / "data" / cls).mkdir(parents=True)
        image.save_image(rng.uniform(0, 255, (16, 16)), root / "data" / cls / "x.pgm")
    assert run("train", root / "clean.pssa", "-o", root / "base.hpca", "--dim", "2") == 0
    assert run("encode", root / "base.hpca", root / "clean.pssa", "-o", root / "codes.csv") == 0
    return root, arch


def _outcome(argv, outputs):
    """Run one command; it exits 0 with every output finite, or 2/3 naming a
    reason and writing nothing."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(*argv)
    written = [p for p in outputs if p.exists()]
    if code in (2, 3):
        last = err.getvalue().strip().splitlines()[-1]
        assert re.fullmatch(r"(error|numeric failure): \S.*", last), last
        assert written == [], f"{argv[0]} exited {code} but wrote {written}"
        return
    assert code == 0, (argv[0], code, err.getvalue())
    assert written == outputs
    assert not re.search(r"\b(nan|inf)\b", out.getvalue(), re.IGNORECASE), out.getvalue()
    for p in written:
        if p.suffix == ".csv":
            body = [row[1:] for row in read_csv(p)[1:]]
            assert np.isfinite(np.array(body, dtype=float)).all(), p
        elif p.suffix == ".hpca":
            m = archive.load_model(p)
            for b in [*m.group_models, m.final_model]:
                for a in (b.mean, b.loadings, b.eigenvalues, b.noise_var):
                    assert np.isfinite(a).all(), p


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(cells=_cells(NF_ROWS, NF_DIM))
def test_poisoned_archive_exits_cleanly(nf_base, tmp_path_factory, cells):
    root, clean = nf_base
    work = tmp_path_factory.mktemp("arch")
    feats = clean.features.copy()
    for r, c, value in cells:
        feats[r, c] = value
    bad = work / "bad.pssa"
    save_archive(FeatureArchive(NF_PARAMS, clean.classes, clean.labels, clean.ids, feats), bad)
    model, spectrum, codes, report = (work / n for n in ("m.hpca", "s.csv", "c.csv", "r.csv"))
    _outcome(["train", bad, "-o", model, "--dim", "2", "--spectrum-csv", spectrum],
             [model, spectrum])
    _outcome(["encode", root / "base.hpca", bad, "-o", codes], [codes])
    _outcome(["eval", root / "base.hpca", root / "data", "--size", "16", "--archive", bad,
              "--sweep-dim", "1,2", "--iterations", "0", "--patch-size", "3", "-o", report],
             [report])
    _outcome(["info", bad], [])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(cells=_cells(NF_ROWS, 2), row=st.integers(0, NF_ROWS - 1))
def test_poisoned_codes_exit_cleanly(nf_base, tmp_path_factory, cells, row):
    root, _ = nf_base
    work = tmp_path_factory.mktemp("codes")
    table = read_csv(root / "codes.csv")
    for r, c, value in cells:
        table[r + 1][c + 1] = repr(float(value))
    bad = work / "bad.csv"
    with open(bad, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(table)
    decoded, synth, trace = work / "d.csv", work / "s.pgm", work / "t.csv"
    _outcome(["decode", root / "base.hpca", bad, "-o", decoded], [decoded])
    _outcome(["synth", root / "base.hpca", "--code", bad, "--row", row, "--synth-size", "64",
              "--iterations", "1", "-o", synth, "--trace", trace], [synth, trace])


@pytest.mark.parametrize("body, reason", [
    # one field past the csv module's 131,072-character limit
    (b"id,c0,c1\na," + b"1" * 200_000 + b",2\n", "field larger than field limit (131072)"),
    (b"id,c0,c1\na,\xff,2\n", "'utf-8' codec can't decode byte 0xff in position 11")],
    ids=["oversized-field", "not-utf-8"])
def test_unreadable_codes_csv_exits_two_naming_the_file(nf_base, tmp_path, body, reason):
    root, _ = nf_base
    bad = tmp_path / "bad.csv"
    bad.write_bytes(body)
    for argv in (["decode", root / "base.hpca", bad, "-o", tmp_path / "d.csv"],
                 ["synth", root / "base.hpca", "--code", bad, "-o", tmp_path / "s.pgm"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(*argv) == 2
        assert err.getvalue().startswith(f"error: {bad}: {reason}")
        assert not argv[-1].exists()


@pytest.mark.parametrize("block, field, value", [("C3", "mean", np.inf),
                                                 ("final", "loadings", np.nan)])
def test_non_finite_model_is_a_corrupt_container_naming_file_and_block(nf_base, tmp_path,
                                                                       block, field, value):
    root, _ = nf_base
    model = archive.load_model(root / "base.hpca")
    stage = model.final_model if block == "final" else model.group_models[int(block[1:]) - 1]
    getattr(stage, field).flat[0] = value
    bad = tmp_path / "bad.hpca"
    archive.save_model(model, bad)  # the writer takes it; train never makes one
    where = f"{bad} final block" if block == "final" else f"{bad} block {block}"
    codes, decoded, synth = tmp_path / "c.csv", tmp_path / "d.csv", tmp_path / "s.pgm"
    for argv in (["info", bad], ["encode", bad, root / "clean.pssa", "-o", codes],
                 ["decode", bad, root / "codes.csv", "-o", decoded],
                 ["synth", bad, "--code", root / "codes.csv", "--iterations", "1",
                  "-o", synth]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert run(*argv) == 2, argv[0]
        assert out.getvalue() == ""
        assert err.getvalue() == (f"error: corrupt container: {where} holds a non-finite "
                                  "mean or loading\n")
    assert not any(p.exists() for p in (codes, decoded, synth))


@pytest.mark.parametrize("value", [np.nan, np.inf, -5.0])
def test_bad_noise_variance_is_a_corrupt_container_naming_file_and_block(nf_base, tmp_path,
                                                                         value):
    root, _ = nf_base
    model = archive.load_model(root / "base.hpca")
    model.group_models[2].noise_var = value
    bad = tmp_path / "bad.hpca"
    archive.save_model(model, bad)  # the writer takes it; train never makes one
    codes, decoded, synth = tmp_path / "c.csv", tmp_path / "d.csv", tmp_path / "s.pgm"
    for argv in (["info", bad], ["encode", bad, root / "clean.pssa", "-o", codes],
                 ["decode", bad, root / "codes.csv", "-o", decoded],
                 ["synth", bad, "--code", root / "codes.csv", "--iterations", "1",
                  "-o", synth]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert run(*argv) == 2, argv[0]
        assert out.getvalue() == ""
        assert err.getvalue() == (f"error: corrupt container: {bad} block C3 holds noise "
                                  f"variance {value}, not a finite value >= 0\n")
    assert not any(p.exists() for p in (codes, decoded, synth))


@pytest.mark.parametrize("value", [np.nan, 5.0, 0.0, -1.0])
def test_threshold_outside_unit_interval_is_a_corrupt_container_naming_file(nf_base, tmp_path,
                                                                            value):
    root, _ = nf_base
    model = archive.load_model(root / "base.hpca")
    model.intermediate_threshold = value
    bad = tmp_path / "bad.hpca"
    archive.save_model(model, bad)  # the writer takes it; train never makes one
    codes, report = tmp_path / "c.csv", tmp_path / "r.csv"
    for argv in (["info", bad], ["encode", bad, root / "clean.pssa", "-o", codes],
                 ["eval", bad, root / "data", "--size", "16", "--archive", root / "clean.pssa",
                  "--sweep-dim", "1", "--iterations", "0", "--patch-size", "3", "-o", report]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert run(*argv) == 2, argv[0]
        assert out.getvalue() == ""
        assert err.getvalue() == (f"error: corrupt container: {bad} holds ccr threshold "
                                  f"{value}, not in (0, 1]\n")
    assert not codes.exists() and not report.exists()


# 1-3 byte edits (r), insertions (i) or deletions (d); about half of them land
# in the first 36 bytes, the header, where the loaders' rules are densest
_byte_edits = st.lists(st.tuples(st.sampled_from("rid"),
                                 st.integers(0, 35) | st.floats(0.0, 1.0, exclude_max=True),
                                 st.integers(0, 255)), min_size=1, max_size=3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["pssa", "hpca"]), edits=_byte_edits)
def test_mutated_container_exits_cleanly(nf_base, tmp_path_factory, kind, edits):
    """info exits 0, or 2 naming the file; every command exits 0, 2, or 3 on
    a numeric failure; no exception escapes main."""
    root, _ = nf_base
    raw = bytearray((root / ("clean.pssa" if kind == "pssa" else "base.hpca")).read_bytes())
    for op, where, byte in edits:
        at = where if isinstance(where, int) else int(where * len(raw))
        if op == "i":
            raw.insert(at, byte)
        elif op == "d":
            del raw[at]
        else:
            raw[at] = byte
    work = tmp_path_factory.getbasetemp() / "mutants"
    work.mkdir(exist_ok=True)
    bad, out = work / f"bad.{kind}", work / "out"
    bad.write_bytes(bytes(raw))
    if kind == "pssa":
        uses = [["encode", root / "base.hpca", bad, "-o", out], ["train", bad, "-o", out, "--dim", "2"]]
    else:
        uses = [["encode", bad, root / "clean.pssa", "-o", out],
                ["decode", bad, root / "codes.csv", "-o", out]]
    for argv in [["info", bad], *uses]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(*argv)
        if argv[0] == "info":
            assert code == 0 or (code == 2 and str(bad) in err.getvalue()), err.getvalue()
        else:
            assert code in (0, 2) or (code == 3 and "numeric failure: " in err.getvalue()), \
                (argv[0], code, err.getvalue())
