"""texlat benchmark: extract, synth and score workloads through the CLI.

    python3 bench/run.py --workload synth --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1            # all three workloads, one after another

Every operation is one `texlat.cli.main([...])` call in this process
(`--jobs 1`). A run sets up its inputs from `--seed`, keeps issuing
operations back to back until `--seconds` have passed, checks every
output, prints a human-readable summary and, as its last stdout line,
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones (`setup_s`,
`img_per_s`, `peak_rss_mb`). With `--trace 1` the run first repeats the
untraced loop, then replays the same operations with every layer
boundary wrapped by `spans.Tracer`, and reports per-layer metrics plus
the tracing overhead. See README.md in this directory for the workload
reasons and the layer table.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3           # set-ups per untraced run; setup_s is their median
REFERENCE_SEED = 0          # reference images are texture(family, 256, 0, 0)
REFERENCE_ROWS = BENCH / "reference_rows.npy"
EXTRACT_SIZE = 256
EXTRACT_PER_FAMILY = 2      # seeded sources per family, next to one reference
MODEL_SIZE = 128
TRAIN_PER_FAMILY = 9        # 36 training images: intermediate dim 227 >= 200
HELD_OUT_PER_FAMILY = 1
SYNTH_ITERATIONS = 50
SWEEP = (10, 50, 100, 200)
PATCH = 19
STAT_RTOL = 1e-10


def _die(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


if not (ROOT / "src" / "texlat").is_dir():
    _die(f"no texlat sources under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import textures  # noqa: E402
from texlat import archive, cli, hppca, image, pss, pyramid, synthesis  # noqa: E402


# --------------------------------------------------------------------------
# running the program

class Op:
    """One CLI call: its arguments, the images it processes and its outcome."""

    def __init__(self, index: int, argv: list[str], items: int, outputs: dict):
        self.index, self.argv, self.items, self.outputs = index, argv, items, outputs
        self.seconds = 0.0
        self.error = None

    def run(self, tracer=None) -> None:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.begin("cli") if tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(self.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # one failed operation must not end the run
            code = "exception"
            err.write(traceback.format_exc())
        finally:
            self.seconds = time.perf_counter() - start
            if tracer:
                tracer.end(span)
        if code != 0:
            self.error = f"exit {code}: {err.getvalue().strip()[-400:]}"


def _cli(argv: list[str]) -> None:
    """A set-up step: any failure ends the run without a result."""
    op = Op(-1, [str(a) for a in argv], 0, {})
    op.run()
    if op.error:
        _die(f"set-up step `texlat {' '.join(op.argv)}` failed: {op.error}", 3)


def _read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _model_setup(work: Path, seed: int) -> dict:
    """128 px dataset with a train and a held-out split, its training
    archive and a d=200 model, all made through the CLI."""
    data = work / "data"
    textures.write_dataset(data, MODEL_SIZE, seed, TRAIN_PER_FAMILY + HELD_OUT_PER_FAMILY)
    train, model = work / "train.pssa", work / "model.hpca"
    _cli(["extract", data, "-o", train, "--split", "train",
          "--train-count", TRAIN_PER_FAMILY, "--size", MODEL_SIZE, "--jobs", 1])
    _cli(["train", train, "-o", model, "--dim", max(SWEEP)])
    held_out = [data / f / f"{i:03d}.pgm" for i in
                range(TRAIN_PER_FAMILY, TRAIN_PER_FAMILY + HELD_OUT_PER_FAMILY)
                for f in textures.FAMILIES]
    return {"work": work, "data": data, "train": train, "model": model,
            "held_out": held_out}


def _write_references(data: Path) -> None:
    """data/<family>/ref.pgm: the images whose rows reference_rows.npy holds."""
    for f in textures.FAMILIES:
        (data / f).mkdir(parents=True, exist_ok=True)
        textures.write_pgm(textures.texture(f, EXTRACT_SIZE, REFERENCE_SEED, 0),
                           data / f / "ref.pgm")


# --------------------------------------------------------------------------
# workloads

class Workload:
    """setup() makes the inputs, op() one CLI call, check() judges its
    outputs (None when correct), report() adds untimed quality figures."""

    name = ""

    def report(self, st: dict, ops: list[Op]) -> dict:
        return {}


class Extract(Workload):
    """Forward-only bulk statistics at 256 px; writes an archive."""

    name = "extract"

    def setup(self, work: Path, seed: int) -> dict:
        data = work / "data"
        textures.write_dataset(data, EXTRACT_SIZE, seed, EXTRACT_PER_FAMILY)
        _write_references(data)
        warm = work / "warm"
        textures.write_dataset(warm, EXTRACT_SIZE, seed, 1)
        _cli(["extract", warm, "-o", work / "warm.pssa", "--size", EXTRACT_SIZE,
              "--jobs", 1])
        return {"work": work, "data": data,
                "count": len(textures.FAMILIES) * (EXTRACT_PER_FAMILY + 1),
                "reference": np.load(REFERENCE_ROWS)}

    def op(self, st: dict, i: int, tag: str) -> Op:
        out = st["work"] / f"{tag}{i}.pssa"
        return Op(i, ["extract", str(st["data"]), "-o", str(out), "--size",
                      str(EXTRACT_SIZE), "--split", "all", "--jobs", "1"],
                  st["count"], {"archive": out})

    def check(self, st: dict, op: Op) -> str | None:
        arch = archive.load_archive(op.outputs["archive"])
        feats = arch.features
        if feats.shape != (st["count"], pss.pss_dim(pss.PssParams())):
            return f"archive holds {feats.shape}, expected {st['count']} rows of 1784"
        if not np.isfinite(feats).all():
            return "archive holds non-finite statistics"
        # C1 opens with the mean and variance of the normalized input
        if not (np.allclose(feats[:, 0], 127.0, rtol=1e-9, atol=0)
                and np.allclose(feats[:, 1], 1600.0, rtol=1e-9, atol=0)):
            return "C1 mean/variance differ from the --norm-mean/--norm-std targets"
        return reference_mismatch(arch, st["reference"])


class Synth(Workload):
    """Gradient synthesis from a decoded code: forward, backward, line search."""

    name = "synth"

    def setup(self, work: Path, seed: int) -> dict:
        st = _model_setup(work, seed)
        _cli(["synth", st["model"], "--input", st["held_out"][0], "-o", work / "warm.pgm",
              "--iterations", 1, "--size", MODEL_SIZE])
        return st

    def op(self, st: dict, i: int, tag: str) -> Op:
        target = st["held_out"][i % len(st["held_out"])]
        out, trace = st["work"] / f"{tag}{i}.pgm", st["work"] / f"{tag}{i}.csv"
        return Op(i, ["synth", str(st["model"]), "--input", str(target), "-o", str(out),
                      "--trace", str(trace), "--iterations", str(SYNTH_ITERATIONS),
                      "--seed", str(st["seed"] + i), "--size", str(MODEL_SIZE)],
                  1, {"image": out, "trace": trace, "target": target})

    def check(self, st: dict, op: Op) -> str | None:
        rows = _read_csv(op.outputs["trace"])
        if rows[0] != ["iteration", "distance"] or len(rows) != SYNTH_ITERATIONS + 2:
            return f"trace has {len(rows) - 1} rows, expected {SYNTH_ITERATIONS + 1}"
        d = np.array([float(r[1]) for r in rows[1:]])
        if not np.isfinite(d).all() or (np.diff(d) > 0).any():
            return "distance trace is not finite and non-increasing"
        img = textures.read_pgm(op.outputs["image"])
        if img.shape != (MODEL_SIZE, MODEL_SIZE):
            return f"output image is {img.shape}, expected {MODEL_SIZE}px"
        op.outputs["ratio"] = d[-1] / d[0]
        return None

    def report(self, st, ops):
        """synth_ratio and synth_tss of the correct operations, computed
        outside every timed region."""
        if not ops:
            return {}
        ratios = [op.outputs["ratio"] for op in ops]
        scores = []
        for op in ops:
            src = image.normalize(textures.read_pgm(op.outputs["target"]), 127.0, 40.0)
            out = textures.read_pgm(op.outputs["image"])
            scores.append(synthesis.sample_grid_tss(out, src, PATCH)[0])
        return {"synth_ratio": float(np.exp(np.mean(np.log(ratios)))),
                "synth_tss": float(np.mean(scores))}


class Score(Workload):
    """TSS-vs-d noise-floor row: archive read, 4 PPCA refits, TSS scoring."""

    name = "score"

    def setup(self, work: Path, seed: int) -> dict:
        st = _model_setup(work, seed)
        _cli(self._argv(st, work / "warm.csv", seed, sweep=SWEEP[:1]))
        return st

    def _argv(self, st, report, seed, sweep=SWEEP):
        return ["eval", str(st["model"]), str(st["data"]), "--split", "eval",
                "--train-count", str(TRAIN_PER_FAMILY),
                "--eval-count", str(HELD_OUT_PER_FAMILY), "--iterations", "0",
                "--archive", str(st["train"]),
                "--sweep-dim", ",".join(str(d) for d in sweep),
                "--patch-size", str(PATCH), "--seed", str(seed), "--jobs", "1",
                "-o", str(report)]

    def op(self, st: dict, i: int, tag: str) -> Op:
        report = st["work"] / f"{tag}{i}.csv"
        return Op(i, self._argv(st, report, st["seed"] + i),
                  len(st["held_out"]) * len(SWEEP), {"report": report})

    def check(self, st: dict, op: Op) -> str | None:
        rows = _read_csv(op.outputs["report"])
        header, body = rows[0], rows[1:]
        if [r[0] for r in body] != [str(d) for d in SWEEP]:
            return f"report rows {[r[0] for r in body]}, expected one per d in {SWEEP}"
        cols = [j for j, h in enumerate(header) if h.startswith("tss_")]
        vals = np.array([[float(r[j]) for j in cols] for r in body])
        if not (np.isfinite(vals).all() and (np.abs(vals) <= 1.0).all()):
            return "a TSS value lies outside [-1, 1]"
        return None


def reference_mismatch(arch, reference: np.ndarray) -> str | None:
    """Rows of the reference images against the stored rows: each entry
    within STAT_RTOL of the largest magnitude in its statistic group."""
    layout = arch.layout
    for fi, family in enumerate(textures.FAMILIES):
        ident = f"{family}/ref.pgm"
        if ident not in arch.ids:
            return f"archive has no row for {ident}"
        row, ref = arch.features[arch.ids.index(ident)], reference[fi]
        for g in range(1, 11):
            sl = layout.group_slice(g)
            scale = np.abs(ref[sl]).max()
            if (np.abs(row[sl] - ref[sl]) > STAT_RTOL * scale).any():
                return f"{ident}: group C{g} differs from the reference rows"
    return None


WORKLOAD_CLASSES = {w.name: w for w in (Extract, Synth, Score)}


# --------------------------------------------------------------------------
# tracing

def install_wrappers(tracer: spans.Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    tracer.wrap(pss, "extract_pss", "pss.extract")
    tracer.wrap(pss, "_forward", "pss.forward")
    tracer.wrap(pss, "_backward", "pss.backward")

    def iterations(span, args, kwargs, result):
        span.attrs["iterations"] = len(result[1]) - 1

    tracer.wrap(synthesis, "synthesize", "synthesis.synthesize", after=iterations)
    tracer.wrap(synthesis, "sample_grid_tss", "synthesis.sample_grid_tss")
    tracer.wrap(synthesis, "tss", "synthesis.tss")
    tracer.wrap(hppca, "fit_hierarchy", "hppca.fit")
    for attr in ("encode", "encode_batch"):
        tracer.wrap(hppca, attr, "hppca.encode")
    for attr in ("decode", "decode_batch"):
        tracer.wrap(hppca, attr, "hppca.decode")

    def saved_bytes(span, args, kwargs, result):
        span.attrs["bytes"] = os.path.getsize(args[1])

    def loaded_bytes(span, args, kwargs, result):
        span.attrs["bytes"] = os.path.getsize(args[0])

    tracer.wrap(archive, "save_archive", "archive.save", after=saved_bytes)
    tracer.wrap(archive, "load_archive", "archive.load", after=loaded_bytes)
    tracer.wrap(image, "load_image", "image.load")
    tracer.wrap(image, "resize_box", "image.resize")
    tracer.wrap(image, "normalize", "image.normalize")

    cache = pyramid.transfer_stack
    seen = [cache.cache_info().misses]

    def cold(span, args, kwargs, result):
        misses = cache.cache_info().misses
        span.attrs["cold"] = misses > seen[0]
        seen[0] = misses

    tracer.wrap(pyramid, "transfer_stack", "pyramid.transfer_stack", after=cold)


END_TO_END = {"setup_s": "s", "img_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "pss.forward_ms": "ms", "pss.forward_calls": "count",
    "pss.backward_ms": "ms", "pss.backward_calls": "count",
    "synthesis.optimizer_self_ms": "ms", "synthesis.forward_per_iter": "count",
    "synthesis.iterations": "count",
    "synthesis.tss_ms": "ms", "synthesis.tss_calls": "count",
    "hppca.fit_ms": "ms", "hppca.encode_ms": "ms", "hppca.decode_ms": "ms",
    "pyramid.transfer_stack_ms": "ms", "pyramid.stack_builds": "count",
    "archive.save_ms": "ms", "archive.load_ms": "ms", "archive.bytes": "B",
    "image.load_ms": "ms", "image.resize_ms": "ms", "image.normalize_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_pct": "%", "trace.unaccounted_pct": "%",
    "synth_ratio": "ratio", "synth_tss": "cosine",
}


def layer_metrics(tracer: spans.Tracer, since: float, items: int) -> dict:
    """Per-layer figures over the spans of the traced phase.

    `_ms` is milliseconds per outermost call (0 without calls), `_calls`
    is calls per item (image, or image x swept d for score). The pyramid
    figures cover the whole run, set-up included, because the transfer
    stacks are built during set-up.
    """
    tot = spans.layer_totals(tracer.spans, since)
    get = lambda name: tot.get(name, spans.LayerTotals())

    def per_call_ms(name):
        t = get(name)
        return 1e3 * t.seconds / t.calls if t.calls else 0.0

    phase = [i for i, s in enumerate(tracer.spans) if s.start >= since]
    synth_idx = {i for i in phase if tracer.spans[i].name == "synthesis.synthesize"}
    iters = sum(tracer.spans[i].attrs["iterations"] for i in synth_idx)
    synth_fwd = sum(1 for i in phase if tracer.spans[i].name == "pss.forward"
                    and tracer.spans[i].parent in synth_idx)
    synth_calls = get("synthesis.synthesize").calls
    cold = [s for s in tracer.spans if s.name == "pyramid.transfer_stack" and s.attrs["cold"]]
    arch = [tracer.spans[i] for i in phase if tracer.spans[i].name.startswith("archive.")]
    return {
        "pss.forward_ms": per_call_ms("pss.forward"),
        "pss.forward_calls": get("pss.forward").calls / items,
        "pss.backward_ms": per_call_ms("pss.backward"),
        "pss.backward_calls": get("pss.backward").calls / items,
        "synthesis.optimizer_self_ms": (1e3 * get("synthesis.synthesize").self_seconds
                                        / synth_calls if synth_calls else 0.0),
        "synthesis.forward_per_iter": synth_fwd / iters if iters else 0.0,
        "synthesis.iterations": iters / synth_calls if synth_calls else 0.0,
        "synthesis.tss_ms": per_call_ms("synthesis.sample_grid_tss"),
        "synthesis.tss_calls": get("synthesis.tss").calls / items,
        "hppca.fit_ms": per_call_ms("hppca.fit"),
        "hppca.encode_ms": per_call_ms("hppca.encode"),
        "hppca.decode_ms": per_call_ms("hppca.decode"),
        "pyramid.transfer_stack_ms": (1e3 * statistics.fmean(s.duration for s in cold)
                                      if cold else 0.0),
        "pyramid.stack_builds": float(pyramid.transfer_stack.cache_info().misses),
        "archive.save_ms": per_call_ms("archive.save"),
        "archive.load_ms": per_call_ms("archive.load"),
        "archive.bytes": statistics.fmean(s.attrs["bytes"] for s in arch) if arch else 0.0,
        "image.load_ms": per_call_ms("image.load"),
        "image.resize_ms": per_call_ms("image.resize"),
        "image.normalize_ms": per_call_ms("image.normalize"),
        "cli.self_ms": (1e3 * get("cli").self_seconds / get("cli").calls
                        if get("cli").calls else 0.0),
    }


# --------------------------------------------------------------------------
# one run

def machine_context() -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), platform.machine())
    except OSError:
        cpu = platform.machine()
    nproc = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc, "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k, "unset") for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "note": f"{nproc} shared cores; timings include other tenants' load",
    }


def run_ops(wl, st, seconds: float, tag: str) -> list[Op]:
    ops, start = [], time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        op = wl.op(st, len(ops), tag)
        op.run()
        ops.append(op)
    return ops


def check_ops(wl, st, ops: list[Op]) -> int:
    failed = 0
    for op in ops:
        if op.error is None:
            try:
                op.error = wl.check(st, op)
            except (OSError, ValueError, IndexError) as exc:
                op.error = f"output unreadable: {exc}"
        if op.error is not None:
            failed += 1
            print(f"  op {op.index} failed: {op.error}", file=sys.stderr)
    return failed


def setup_replicate(workload: str, seed: int, work: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only", str(work)],
        capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        _die(f"set-up replicate failed:\n{proc.stderr[-2000:]}", 3)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(args) -> int:
    wl = WORKLOAD_CLASSES[args.workload]()
    if args.setup_only:
        work = Path(args.setup_only)
        wl.setup(work, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(wl, args, work: Path) -> int:
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        install_wrappers(tracer)  # set-up is traced too: transfer stacks are built there
    st = wl.setup(work / "run", args.seed)
    st["seed"] = args.seed
    setup_times = [time.perf_counter() - T0]
    if tracer:
        tracer.restore()
    else:
        for k in range(1, SETUP_REPEATS):
            setup_times.append(setup_replicate(args.workload, args.seed, work / f"setup{k}"))

    ops = run_ops(wl, st, args.seconds, "u")
    untraced_s = sum(op.seconds for op in ops)
    if tracer:
        replay = [wl.op(st, op.index, "t") for op in ops]
        install_wrappers(tracer)
        since = time.perf_counter()
        with tracer:
            for op in replay:
                op.run(tracer)
        phase_s = time.perf_counter() - since
        traced_s = sum(op.seconds for op in replay)
        ops += replay
    failed = check_ops(wl, st, ops)
    good = [op for op in ops if op.error is None]
    quality = wl.report(st, good)

    print(f"workload {wl.name} seed {args.seed}: {len(ops)} operations, "
          f"{sum(op.items for op in ops)} images, {failed} failed")
    print(f"  operation seconds: {', '.join(f'{op.seconds:.3f}' for op in ops)}")
    if args.trace:
        items = sum(op.items for op in replay)
        metrics = layer_metrics(tracer, since, items)
        tot = spans.layer_totals(tracer.spans, since)
        calls = {n: tot[n].calls if n in tot else 0 for n in
                 ("pss.forward", "pss.backward", "synthesis.synthesize", "synthesis.tss")}
        print(f"  replay totals: {len(replay)} commands, {items} images, "
              + ", ".join(f"{n} {c} calls" for n, c in calls.items()))
        covered = tot["cli"].seconds - tot["cli"].self_seconds  # time inside layer spans
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
        metrics["trace.unaccounted_pct"] = 100.0 * (phase_s - covered) / phase_s
        metrics["synth_ratio"] = quality.get("synth_ratio", 0.0)
        metrics["synth_tss"] = quality.get("synth_tss", 0.0)
        print(f"  tracing overhead: {traced_s:.3f} s traced vs {untraced_s:.3f} s "
              f"untraced for the same {len(replay)} operations "
              f"({metrics['trace.overhead_pct']:+.1f}%)")
        print(f"  wall time outside layer spans: {metrics['trace.unaccounted_pct']:.1f}% "
              f"of {phase_s:.3f} s")
        units = PER_LAYER
    else:
        rate = statistics.median(op.items / op.seconds for op in good) if good else 0.0
        metrics = {"setup_s": statistics.median(setup_times), "img_per_s": rate,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
        print(f"  setup_s samples: {', '.join(f'{t:.3f}' for t in setup_times)}")
        if wl.name == "synth" and rate:
            print(f"  synth_s {1.0 / rate:.4f} s per image")
        for name, value in quality.items():
            print(f"  {name} {value:.6g}")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print("machine " + json.dumps(machine_context()))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def write_reference() -> int:
    """Store the statistic rows of the reference images (run at a commit
    whose statistics are the contract)."""
    work = ROOT / ".bench_work" / f"reference-{os.getpid()}"
    try:
        _write_references(work / "data")
        _cli(["extract", work / "data", "-o", work / "ref.pssa",
              "--size", EXTRACT_SIZE, "--jobs", 1])
        arch = archive.load_archive(work / "ref.pssa")
        rows = np.stack([arch.features[arch.ids.index(f"{f}/ref.pgm")]
                         for f in textures.FAMILIES])
        np.save(REFERENCE_ROWS, rows)
        print(f"wrote {rows.shape} reference rows -> {REFERENCE_ROWS.name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for w in WORKLOAD_CLASSES:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_CLASSES,
                   help="run one workload (default: all three in turn)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    p.add_argument("--write-reference", action="store_true",
                   help="regenerate reference_rows.npy from the current program")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
