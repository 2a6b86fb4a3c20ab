"""Command-line front end.

Commands: extract, train, encode, decode, synth, eval, info, bands.
Exit codes: 0 success, 1 usage, 2 data error, 3 numeric failure.
Set TEXLAT_LOG=debug|info|warning for stderr verbosity; other values mean warning.
"""

from __future__ import annotations

import argparse
import csv
import logging
import multiprocessing
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import archive as ar
from . import hppca, image, ppca, pss, pyramid, synthesis

log = logging.getLogger("texlat")

# every image is normalized alike, so statistics from any command compare
NORM_MEAN, NORM_STD = 127.0, 40.0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage is 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _prepare_image(path, size: int) -> np.ndarray:
    img = image.load_image(path)
    if size and img.shape != (size, size):
        img = image.resize_box(img, size, size)
    return image.normalize(img, NORM_MEAN, NORM_STD)


def _check_counts(args) -> None:
    """Reject the negative image counts and the job counts below 1 that
    the split and the pool would otherwise take silently."""
    for flag, low in (("train_count", 0), ("eval_count", 0), ("jobs", 1)):
        value = getattr(args, flag)
        if value < low:
            raise ValueError(f"--{flag.replace('_', '-')} must be >= {low}, got {value}")


def _check_finite(matrix, where) -> None:
    """Reject the first non-finite entry; where(row, column) names it."""
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        r, c = bad[0]
        raise ValueError(f"{where(r, c)} is {matrix[r, c]}")


def _write_rows(path, columns, ids, matrix, what) -> None:
    """Write one `id`-keyed CSV row per matrix row. A finite input can still
    overflow, so a non-finite row fails before anything is written."""
    bad = ~np.isfinite(matrix).all(axis=1)
    if bad.any():
        raise pss.NumericError(f"{what} of {ids[int(np.argmax(bad))]!r} is not finite")
    _write_csv(path, ["id"] + columns,
               [[ident] + [_fmt(v) for v in row] for ident, row in zip(ids, matrix)])


def _load_archive(path, params=None) -> ar.FeatureArchive:
    """An archive whose records are all finite, so fits and codes are too,
    and, given the model's `params`, whose records have its layout."""
    arch = ar.load_archive(path)
    _check_finite(arch.features, lambda r, c: f"{path}: record {arch.ids[r]!r}, column "
                                              f"{pss.column_names(arch.params)[c]},")
    if params is not None and arch.params != params:
        raise ValueError("archive parameters do not match the model")
    return arch


def _dataset(args):
    """The class names and the (label, "class/file" id, path) records of the chosen
    split. Each root folder is a class; of its sorted .pgm/.png files the first
    --train-count (0: all) train, the next --eval-count (0: the rest) evaluate."""
    root = Path(args.dataset)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset root {root} is not a directory")
    classes = sorted(p.name for p in root.iterdir() if p.is_dir())
    if not classes:
        raise ValueError(f"dataset root {root} contains no class directories")
    records = []
    for label, cls in enumerate(classes):
        split = sorted(p for p in (root / cls).iterdir() if p.suffix.lower() in (".pgm", ".png"))
        train_n = args.train_count or len(split)
        if args.split == "train":
            split = split[:train_n]
        elif args.split == "eval":
            split = split[train_n:train_n + (args.eval_count or len(split))]
        if not split:
            raise ValueError(f"class '{cls}' has no images for split '{args.split}'")
        records += [(label, f"{cls}/{f.name}", f) for f in split]
    return classes, records


def _pmap(fn, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with multiprocessing.Pool(min(jobs, len(items))) as pool:
        return pool.map(fn, items)


def _magic(path) -> bytes:
    """The 4 bytes that tell an archive or a model from an image; the loader
    that follows reads the whole file."""
    with open(path, "rb") as fh:
        return fh.read(4)


# --------------------------------------------------------------------------
# extract

def _extract_one(task):
    path, size, params = task
    try:
        return pss.extract_pss(_prepare_image(path, size), params).values, None
    except Exception as exc:  # collected per-file, reported at the end, each naming it once
        return None, str(exc) if str(path) in str(exc) else f"{path}: {exc}"


def cmd_extract(args) -> int:
    _check_counts(args)
    params = pss.PssParams(args.scales, args.orients, args.neighbor)
    if args.size:  # one message for a geometry every image would fail
        pss.check_size(args.size, params)
    classes, records = _dataset(args)
    log.info("extracting %d images from %d classes", len(records), len(classes))

    results = _pmap(_extract_one, [(f, args.size, params) for *_, f in records], args.jobs)
    for _, err in results:
        if err:
            print(f"error: {err}", file=sys.stderr)
    good = [(label, ident, vals) for (label, ident, _), (vals, err) in zip(records, results)
            if not err]
    if good:
        labels, ids, feats = zip(*good)
        ar.save_archive(ar.FeatureArchive(params, classes, np.array(labels, dtype=np.int32),
                                          list(ids), np.stack(feats)), args.output)
    print(f"extracted {len(good)}/{len(records)} images "
          + (f"-> {args.output}" if good else "; no archive written"), file=sys.stderr)
    return 2 if len(good) < len(records) else 0


# --------------------------------------------------------------------------
# train

def cmd_train(args) -> int:
    arch = _load_archive(args.archive)
    model = hppca.fit_hierarchy(hppca.GroupSpectra(arch.features, arch.params), args.ccr,
                                args.dim)
    ar.save_model(model, args.output)
    if args.spectrum_csv:
        rows = []
        for name, m in zip([f"C{i}" for i in range(1, 11)] + ["final"],
                           model.group_models + [model.final_model]):
            rows += [(name, i, _fmt(lam)) for i, lam in enumerate(m.eigenvalues)]
        _write_csv(args.spectrum_csv, ["stage", "index", "eigenvalue"], rows)
    print(f"samples: {arch.features.shape[0]}")
    print(f"statistic dimension: {pss.pss_dim(model.params)}")
    print(f"intermediate dimension: {model.intermediate_dim}")
    print(f"output dimension: {model.output_dim}")
    print(f"reduction rate: {100.0 * hppca.reduction_rate(model):.1f}%")
    return 0


# --------------------------------------------------------------------------
# encode / decode

def _load_codes(path):
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except (csv.Error, UnicodeDecodeError) as exc:  # an oversized field; not text
            raise ValueError(f"{path}: {exc}") from None
    if not rows or rows[0][:1] != ["id"]:
        raise ValueError(f"{path} is not a codes CSV (missing header)")
    if len(rows) < 2:
        raise ValueError(f"{path} has no code rows")
    codes = np.empty((len(rows) - 1, len(rows[0]) - 1))
    for i, r in enumerate(rows[1:], start=1):
        if len(r) != len(rows[0]):
            raise ValueError(f"{path}: row {i} has {len(r)} values, header has {len(rows[0])}")
        for j, cell in enumerate(r[1:]):
            try:
                codes[i - 1, j] = float(cell)
            except ValueError:
                raise ValueError(f"{path}: row {i}, column c{j}, is {cell!r}, "
                                 "not a number") from None
    return [r[0] for r in rows[1:]], codes


def cmd_encode(args) -> int:
    model = ar.load_model(args.model)
    if len(args.inputs) == 1 and _magic(args.inputs[0]) == ar.ARCHIVE_MAGIC:
        arch = _load_archive(args.inputs[0], model.params)
        ids, feats = arch.ids, arch.features
    else:
        ids = list(args.inputs)
        feats = np.stack([
            pss.extract_pss(_prepare_image(p, args.size), model.params).values
            for p in args.inputs])
    _write_rows(args.output, [f"c{i}" for i in range(model.output_dim)], ids,
                hppca.encode_batch(model, feats), "code")
    print(f"encoded {len(ids)} inputs -> {args.output}", file=sys.stderr)
    return 0


def cmd_decode(args) -> int:
    model = ar.load_model(args.model)
    ids, codes = _load_codes(args.codes)
    if codes.shape[1] != model.output_dim:
        raise ValueError(
            f"codes have {codes.shape[1]} columns, model outputs {model.output_dim}")
    _check_finite(codes, lambda r, c: f"{args.codes}: row {r + 1}, column c{c},")
    _write_rows(args.output, pss.column_names(model.params), ids,
                hppca.decode_batch(model, codes), "decoded statistic")
    print(f"decoded {len(ids)} codes -> {args.output}", file=sys.stderr)
    return 0


# --------------------------------------------------------------------------
# synth

def cmd_synth(args) -> int:
    model = ar.load_model(args.model)
    if (args.input is None) == (args.code is None):
        raise ValueError("exactly one of --input or --code is required")
    if args.input:
        img = _prepare_image(args.input, args.size)
        code = hppca.encode(model, pss.extract_pss(img, model.params))
        size = args.synth_size or img.shape[0]
    else:
        ids, codes = _load_codes(args.code)
        if not 0 <= args.row < len(ids):
            raise ValueError(f"--row {args.row} out of range for {len(ids)} codes")
        code = codes[args.row]
        _check_finite(code[None], lambda r, c: f"{args.code}: row {args.row + 1}, column c{c},")
        size = args.synth_size or args.size or 128
    decoded = hppca.decode(model, code)
    cfg = synthesis.SynthesisConfig(iterations=args.iterations, seed=args.seed,
                                    size=size)
    out, trace = synthesis.synthesize(decoded, cfg)
    image.save_image(out, args.output)
    if args.trace:
        _write_csv(args.trace, ["iteration", "distance"],
                   [(i, _fmt(d)) for i, d in enumerate(trace)])
    print(f"synthesized {size}x{size} image -> {args.output} "
          f"(distance {trace[0]:.4g} -> {trace[-1]:.4g})", file=sys.stderr)
    return 0


# --------------------------------------------------------------------------
# eval

def cmd_eval(args) -> int:
    _check_counts(args)
    cfg = synthesis.SynthesisConfig(iterations=args.iterations, seed=args.seed)
    # the checks the scoring and the refits would make, before either has work to waste
    synthesis._check_patch(args.patch_size)
    for d in args.sweep_dim or []:
        hppca._check_output_dim(d)
    for r in args.sweep_ccr or []:
        ppca._check_threshold(r)
    model = ar.load_model(args.model)
    class_names, records = _dataset(args)
    items = [(ident, _prepare_image(f, args.size)) for _, ident, f in records]
    for ident, img in items:  # the scoring's own check, before any refit
        synthesis._check_patch(args.patch_size, img.shape, f"image {ident}")
    log.info("evaluating %d images", len(items))

    sweeps: list[tuple[str, hppca.HppcaModel]] = []
    if args.sweep_dim or args.sweep_ccr:
        if not args.archive:
            raise ValueError("sweeps need --archive to refit the model")
        arch = _load_archive(args.archive, model.params)
        spectra = hppca.GroupSpectra(arch.features, arch.params)  # shared by every refit
        for d in args.sweep_dim or []:
            sweeps.append((str(d), hppca.fit_hierarchy(spectra, model.intermediate_threshold, d)))
        for r in args.sweep_ccr or []:
            sweeps.append((_fmt(r), hppca.fit_hierarchy(spectra, r, model.output_dim)))
    else:
        sweeps.append((str(model.output_dim), model))

    # one task per image, scored against every swept model; the partial
    # carries the context to workers under every start method
    per_image = _pmap(partial(synthesis.evaluate_image, [m for _, m in sweeps], cfg,
                              args.patch_size), list(enumerate(items)), args.jobs)
    # (image, sweep) arrays: each report value is the mean of a column or of its class rows
    tss, err = np.array(per_image).transpose(1, 0, 2)
    labels = np.array([label for label, *_ in records])
    out_rows = []
    for j, (value, _) in enumerate(sweeps):
        means = ([np.mean(tss[labels == c, j]) for c in range(len(class_names))]
                 + [np.mean(tss[:, j]), np.mean(err[:, j])])
        out_rows.append([value] + [_fmt(x) for x in means])
        log.info("sweep %s: mean TSS %.4f", value, means[-2])
    _write_csv(args.output, ["value"] + [f"tss_{c}" for c in class_names]
               + ["tss_all", "pss_err_all"], out_rows)
    print(f"wrote {len(out_rows)} report rows -> {args.output}", file=sys.stderr)
    return 0


# --------------------------------------------------------------------------
# info / bands

def cmd_info(args) -> int:
    head = _magic(args.path)
    if head == ar.ARCHIVE_MAGIC:
        arch = ar.load_archive(args.path)
        counts = {c: int((arch.labels == i).sum()) for i, c in enumerate(arch.classes)}
        p, lines = arch.params, [f"feature archive: {arch.features.shape[0]} records, "
                                 f"D={arch.features.shape[1]}", f"classes: {counts}"]
    elif head == ar.MODEL_MAGIC:
        model = ar.load_model(args.path)
        p, lines = model.params, [
            f"model: D={pss.pss_dim(model.params)} intermediate={model.intermediate_dim} "
            f"output={model.output_dim}",
            f"ccr threshold: {model.intermediate_threshold!r}",
            f"group latents: {list(model.group_dims)}",
            f"reduction rate: {100.0 * hppca.reduction_rate(model):.1f}%"]
    else:
        raise ValueError(f"{args.path}: unrecognized file magic {head!r}")
    lines.insert(1, f"parameters: scales={p.n_scales} orients={p.n_orientations} "
                    f"neighbor={p.neighborhood}")
    print("\n".join(lines))
    return 0


def cmd_bands(args) -> int:
    img = image.load_image(args.input)
    pyr = pyramid.build_pyramid(img, args.scales, args.orients)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    def dump(name, a):
        peak = np.abs(a).max()
        scaled = np.abs(a) * (255.0 / peak) if peak > 0 else np.zeros_like(a, float)
        image.save_image(scaled, outdir / f"{name}.pgm")

    for n, level in enumerate(pyr.bands, start=1):
        for k, band in enumerate(level):
            dump(f"band_s{n}_o{k}", band)
    dump("lowpass_residual", pyr.lowpass_residual)
    dump("highpass_residual", pyr.highpass_residual)
    print(f"wrote {sum(len(lv) for lv in pyr.bands) + 2} magnitude maps -> {outdir}",
          file=sys.stderr)
    return 0


# --------------------------------------------------------------------------
# wiring

def _add_params(p: argparse.ArgumentParser):
    p.add_argument("--scales", type=int, default=4, help="pyramid scales N")
    p.add_argument("--orients", type=int, default=4, help="orientations K")
    p.add_argument("--neighbor", type=int, default=7, help="autocorrelation window M")


def _add_preprocess(p: argparse.ArgumentParser):
    p.add_argument("--size", type=int, default=128,
                   help="resize target side, 0 keeps the source size")


def _add_dataset(p: argparse.ArgumentParser):
    p.add_argument("dataset", help="class-folder dataset root")
    p.add_argument("--split", choices=("all", "train", "eval"), default="all")
    p.add_argument("--train-count", type=int, default=0)
    p.add_argument("--eval-count", type=int, default=0)


def _comma_list(kind):
    """An argparse type for a comma-separated list of `kind`, named for its errors."""
    def parse(text):
        return [kind(x) for x in text.split(",")]
    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def build_parser() -> argparse.ArgumentParser:
    root = _Parser(prog="texlat",
                   description="texture statistics, codes and synthesis")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="dataset -> feature archive")
    _add_dataset(p)
    _add_params(p)
    _add_preprocess(p)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="feature archive -> model")
    p.add_argument("archive")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--ccr", type=float, default=0.99999999,
                   help="group cumulative contribution threshold")
    p.add_argument("--dim", type=int, default=200, help="output code length")
    p.add_argument("--spectrum-csv", help="write per-stage eigenvalues")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="images or archive -> codes CSV")
    p.add_argument("model")
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--output", required=True)
    _add_preprocess(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="codes CSV -> statistic CSV")
    p.add_argument("model")
    p.add_argument("codes")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("synth", help="image or code -> synthesized texture")
    p.add_argument("model")
    p.add_argument("--input", help="source image to compress and resynthesize")
    p.add_argument("--code", help="codes CSV produced by encode")
    p.add_argument("--row", type=int, default=0, help="row of --code to use")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--trace", help="write the distance trace CSV here")
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--synth-size", type=int, default=0,
                   help="output side (default: the input's size; for a code, "
                        "--size, or 128 when --size is 0)")
    _add_preprocess(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score reconstructions on a dataset")
    p.add_argument("model")
    _add_dataset(p)
    _add_preprocess(p)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--archive", help="training features, needed for sweeps")
    p.add_argument("--sweep-dim", type=_comma_list(int),
                   help="comma-separated output dimensions to refit and score")
    p.add_argument("--sweep-ccr", type=_comma_list(float),
                   help="comma-separated ccr thresholds to refit and score")
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--patch-size", type=int, default=19)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("info", help="describe an archive or model file")
    p.add_argument("path")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("bands", help="dump band magnitude maps as PGM")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--scales", type=int, default=4)
    p.add_argument("--orients", type=int, default=4)
    p.set_defaults(func=cmd_bands)

    return root


def main(argv=None) -> int:
    # getLevelName maps a level name to its number and any other text to a string
    level = logging.getLevelName(os.environ.get("TEXLAT_LOG", "warning").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="[texlat] %(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except pss.NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (image.FormatError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
