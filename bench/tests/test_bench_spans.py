"""Span arithmetic, module-attribute wrapping and the metric names of the benchmark."""

import importlib.util
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from spans import Span, Tracer, layer_totals, self_times  # noqa: E402


def _load_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    return [Span("root", 0.0, 10.0, -1), Span("a", 1.0, 4.0, 0),
            Span("b", 5.0, 9.0, 0), Span("c", 6.0, 7.0, 2)]


def test_self_time_subtracts_children():
    assert self_times(_tree()) == [3.0, 3.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    tree = [Span("root", 0.0, 10.0, -1), Span("a", 1.0, 4.0, 0), Span("b", 3.0, 6.0, 0)]
    assert self_times(tree)[0] == pytest.approx(5.0)


def test_self_times_sum_to_root_duration():
    assert sum(self_times(_tree())) == pytest.approx(10.0)


def test_nested_call_of_same_layer_counts_once():
    tree = [Span("enc", 0.0, 5.0, -1), Span("enc", 1.0, 4.0, 0),
            Span("fwd", 2.0, 3.0, 1), Span("enc", 6.0, 7.0, -1)]
    tot = layer_totals(tree)
    assert tot["enc"].calls == 2
    assert tot["enc"].seconds == pytest.approx(6.0)
    assert tot["enc"].self_seconds == pytest.approx(5.0)
    assert tot["fwd"].calls == 1


def test_layer_totals_skip_spans_before_since():
    tot = layer_totals(_tree(), since=5.0)
    assert set(tot) == {"b", "c"}
    assert tot["b"].seconds == pytest.approx(4.0)


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def _module():
    mod = types.ModuleType("fake")
    mod.leaf = lambda x: x + 1
    mod.outer = lambda x: mod.leaf(x) * 2  # looks leaf up at call time
    return mod


def test_wrappers_record_nested_spans_and_restore():
    mod = _module()
    leaf, outer = mod.leaf, mod.outer
    seen = []
    with Tracer(clock=_Clock()) as tr:
        tr.wrap(mod, "leaf", "layer.leaf")
        tr.wrap(mod, "outer", "layer.outer",
                after=lambda span, args, kwargs, result: seen.append((args, result)))
        assert mod.leaf is not leaf
        assert mod.outer(3) == 8
    assert mod.leaf is leaf and mod.outer is outer
    assert [(s.name, s.parent) for s in tr.spans] == [("layer.outer", -1), ("layer.leaf", 0)]
    assert [(s.start, s.end) for s in tr.spans] == [(1.0, 4.0), (2.0, 3.0)]
    assert seen == [((3,), 8)]


def test_span_closes_and_attributes_return_when_call_raises():
    mod = _module()
    original = mod.leaf
    tr = Tracer(clock=_Clock())
    with pytest.raises(TypeError):
        with tr:
            tr.wrap(mod, "leaf", "layer.leaf")
            mod.leaf("not a number")
    assert mod.leaf is original
    assert tr.spans[0].end == 2.0 and not tr._open


def test_benchmark_wrappers_install_and_restore_on_texlat():
    run = _load_run()
    targets = [(run.pss, "extract_pss"), (run.pss, "_forward"), (run.pss, "_backward"),
               (run.synthesis, "synthesize"), (run.synthesis, "sample_grid_tss"),
               (run.synthesis, "tss"), (run.hppca, "fit_hierarchy"),
               (run.hppca, "encode"), (run.hppca, "encode_batch"),
               (run.hppca, "decode"), (run.hppca, "decode_batch"),
               (run.archive, "save_archive"), (run.archive, "load_archive"),
               (run.image, "load_image"), (run.image, "resize_box"),
               (run.image, "normalize"), (run.pyramid, "transfer_stack")]
    originals = [getattr(m, a) for m, a in targets]
    img = np.random.default_rng(0).standard_normal((32, 32))
    with Tracer() as tr:
        run.install_wrappers(tr)
        assert all(getattr(m, a) is not o for (m, a), o in zip(targets, originals))
        run.pss.extract_pss(img, run.pss.PssParams(2, 2, 3))
    assert all(getattr(m, a) is o for (m, a), o in zip(targets, originals))
    names = [s.name for s in tr.spans]
    assert names == ["pss.extract", "pss.forward", "pyramid.transfer_stack"]
    assert [s.parent for s in tr.spans] == [-1, 0, 1]
    assert isinstance(tr.spans[2].attrs["cold"], bool)
    assert spans.layer_totals(tr.spans)["pss.forward"].calls == 1


def test_reported_metrics_match_benchmark_json():
    run = _load_run()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_CLASSES)
