"""Acceptance suite: one test per criterion, each printing a verdict line.

Run `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line of
every criterion as it completes. The whole suite is deterministic.
"""

import numpy as np
import pytest

from conftest import filtered_noise, grating, oriented_grating, synthetic_corpus
from texlat import hppca, ppca, pss, pyramid, synthesis
from texlat.pss import PssParams
from texlat.synthesis import SynthesisConfig


def _verdict(num, ok, text):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_dimension_accounting():
    params = PssParams(4, 4, 7)
    dim = pss.pss_dim(params)
    img = np.random.default_rng(0).normal(127, 40, (64, 64))
    realized = pss.extract_pss(img, params).values.size
    _verdict(1, dim == 1784 and realized == 1784,
             f"statistic dimension {dim}, extracted length {realized} (want 1784)")


def test_criterion_2_reduction_rate_arithmetic():
    params = PssParams(4, 4, 7)

    def rate(d):
        final = ppca.PpcaModel(np.zeros(d), np.zeros((d, d)), 0.0, np.zeros(d), d)
        return 100.0 * hppca.reduction_rate(hppca.HppcaModel([], final, params, 1.0))

    r200, r1000 = rate(200), rate(1000)
    ok = abs(r200 - 88.8) <= 0.1 and abs(r1000 - 43.9) <= 0.1
    _verdict(2, ok, f"reduction 200/1784 = {r200:.2f}% (want 88.8+-0.1), "
                    f"1000/1784 = {r1000:.2f}% (want 43.9+-0.1)")


def test_criterion_3_pyramid_reconstruction_and_filters():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        img = rng.standard_normal((128, 128)) * 40 + 127
        rec = pyramid.collapse(pyramid.build_pyramid(img, 4, 4))
        worst = max(worst, np.linalg.norm(rec - img) / np.linalg.norm(img))

    r = np.linspace(0, np.pi * np.sqrt(2), 10_000)
    comp = np.abs(pyramid.radial_highpass(r) ** 2
                  + (pyramid.radial_lowpass(r) / 2) ** 2 - 1).max()

    theta = np.linspace(-np.pi, np.pi, 10_000)
    tile = max(
        np.abs(sum(pyramid.angular_gain(k, kc, theta) ** 2
                   + pyramid.angular_gain(k, kc, theta + np.pi) ** 2
                   for k in range(kc)) - 1).max()
        for kc in (1, 2, 4, 6))
    ok = worst <= 1e-8 and comp <= 1e-12 and tile <= 1e-10
    _verdict(3, ok, f"round-trip {worst:.2e} (<=1e-8), complementarity "
                    f"{comp:.2e} (<=1e-12), angular tiling {tile:.2e} (<=1e-10)")


def test_criterion_4_ppca_oracle_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(25):
        data = rng.standard_normal((50, 10)) @ np.diag(rng.uniform(0.3, 3.0, 10))
        mu = data.mean(axis=0)
        _, _, vt = np.linalg.svd(data - mu, full_matrices=False)
        for q in (1, 3, 5):
            model = ppca.fit(data, q)
            rec = ppca.decode(model, ppca.encode(model, data))
            brute = mu + (data - mu) @ vt[:q].T @ vt[:q]
            worst = max(worst, np.abs(rec - brute).max())
    tables = (
        np.allclose(ppca.cumulative_contribution([3, 1]), [0.75, 1.0], atol=0)
        and np.allclose(ppca.cumulative_contribution([4, 2, 1, 1]),
                        [0.5, 0.75, 0.875, 1.0], atol=0)
        and ppca.choose_dim([4, 2, 1, 1], 0.75) == 2
        and ppca.choose_dim([4, 2, 1, 1], 1.0) == 4
        and ppca.choose_dim([1.0], 0.3) == 1)
    ok = worst <= 1e-8 and tables
    _verdict(4, ok, f"projection vs brute-force PCA max err {worst:.2e} (<=1e-8), "
                    f"contribution tables exact: {tables}")


def test_criterion_5_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    params = PssParams(2, 2, 3)
    target = pss.extract_pss(rng.standard_normal((16, 16)) * 25 + 120, params)
    weights = synthesis.default_weights(target)
    img = rng.standard_normal((16, 16)) * 25 + 120

    analytic = synthesis.pss_gradient(img, target, weights)
    eps = 1e-5
    fd = np.empty(img.size)
    flat = img.ravel()
    for i in range(flat.size):
        probe = flat.copy()
        probe[i] += eps
        hi = synthesis.pss_distance(
            pss.extract_pss(probe.reshape(16, 16), params), target, weights)
        probe[i] -= 2 * eps
        lo = synthesis.pss_distance(
            pss.extract_pss(probe.reshape(16, 16), params), target, weights)
        fd[i] = (hi - lo) / (2 * eps)
    rel = np.abs(analytic.ravel() - fd).max() / np.abs(fd).max()
    _verdict(5, rel <= 1e-4,
             f"max relative gradient error {rel:.2e} over all 256 pixels (<=1e-4)")


def test_criterion_5_gradient_directional_derivatives_at_default_parameters():
    rng = np.random.default_rng(5)
    params = PssParams()
    target = pss.extract_pss(rng.standard_normal((64, 64)) * 25 + 120, params)
    weights = synthesis.default_weights(target)
    img = rng.standard_normal((64, 64)) * 25 + 120

    analytic = synthesis.pss_gradient(img, target, weights)
    eps = 1e-3
    worst = 0.0
    for _ in range(4):
        d = rng.standard_normal((64, 64))
        hi = synthesis.pss_distance(pss.extract_pss(img + eps * d, params), target, weights)
        lo = synthesis.pss_distance(pss.extract_pss(img - eps * d, params), target, weights)
        fd = (hi - lo) / (2 * eps)
        worst = max(worst, abs(np.sum(analytic * d) - fd) / abs(fd))
    _verdict(5, worst <= 1e-5,
             f"(4,4,7) at 64 px: max relative directional-derivative error "
             f"{worst:.2e} over 4 directions (<=1e-5)")


@pytest.mark.parametrize("group", [3, 4, 5, 6, 7, 8])
def test_criterion_5_group_gradient_at_default_parameters(group):
    # one quadratic or magnitude-correlation group alone, probed along its own gradient
    rng = np.random.default_rng(5)
    params = PssParams()
    target = pss.extract_pss(rng.standard_normal((64, 64)) * 25 + 120, params)
    weights = np.where(np.arange(1, 11) == group, synthesis.default_weights(target), 0.0)
    img = rng.standard_normal((64, 64)) * 25 + 120

    analytic = synthesis.pss_gradient(img, target, weights)
    d = analytic / np.linalg.norm(analytic)
    eps = 1e-3
    hi = synthesis.pss_distance(pss.extract_pss(img + eps * d, params), target, weights)
    lo = synthesis.pss_distance(pss.extract_pss(img - eps * d, params), target, weights)
    fd = (hi - lo) / (2 * eps)
    err = abs(np.sum(analytic * d) - fd) / abs(fd)
    _verdict(5, err <= 1e-6,
             f"C{group} alone, (4,4,7) at 64 px: relative directional-derivative "
             f"error {err:.2e} along the gradient (<=1e-6)")


def test_criterion_6_synthesis_convergence():
    params = PssParams(3, 4, 7)
    size = 64
    targets = [
        grating(size, 4, 0), grating(size, 0, 5), grating(size, 3, 3),
        oriented_grating(size, 0.5, 5.0), oriented_grating(size, 2.2, 7.0),
        filtered_noise(size, 61, 0.3, 0.9), filtered_noise(size, 65, 0.5, 1.5),
        filtered_noise(size, 62, 0.8, 1.6), filtered_noise(size, 66, 0.9, 1.8),
        filtered_noise(size, 63, 1.0, 2.0),
    ]
    ratios = []
    monotone = True
    for i, img in enumerate(targets):
        vec = pss.extract_pss(img, params)
        _, trace = synthesis.synthesize(
            vec, SynthesisConfig(iterations=50, seed=600 + i, size=size))
        ratios.append(trace[-1] / trace[0])
        monotone &= bool((np.diff(trace) <= 1e-12).all())
    worst = max(ratios)
    _verdict(6, worst <= 0.1 and monotone,
             f"worst distance ratio {worst:.4f} over 10 targets (<=0.1), "
             f"all traces non-increasing: {monotone}")


def test_criterion_7_tss_matches_brute_force():
    rng = np.random.default_rng(7)
    exact = True
    for _ in range(30):
        source = rng.standard_normal((8, 8)) * rng.uniform(0.5, 50)
        sample = rng.standard_normal((3, 3))
        rep = synthesis.tss(sample, source)
        best, arg = -np.inf, None
        for y in range(6):
            for x in range(6):
                patch = source[y:y + 3, x:x + 3].ravel()
                denom = np.linalg.norm(patch) * np.linalg.norm(sample)
                sim = 0.0 if denom == 0 else float(patch @ sample.ravel()) / denom
                if sim > best:
                    best, arg = sim, (y, x)
        exact &= abs(rep.tss - best) <= 1e-12 and rep.location == arg
    self_one = True
    for _ in range(5):
        src = rng.uniform(1, 255, (12, 12))
        rep = synthesis.tss(src[2:7, 3:8], src)
        self_one &= abs(rep.tss - 1.0) <= 1e-12
    _verdict(7, exact and self_one,
             f"brute-force agreement on 30 cases: {exact}, "
             f"self-patch scores 1.0: {self_one}")


def test_criterion_8_hppca_monotonicity():
    params = PssParams(3, 4, 7)
    corpus = synthetic_corpus(64, 32)
    feats = np.stack([pss.extract_pss(img, params).values for _, _, img in corpus])

    dims = [10, 50, 100, 200]
    models, errors = {}, []
    for d in dims:
        m = hppca.fit_hierarchy(hppca.GroupSpectra(feats, params), 0.99999999, d)
        models[d] = m
        rec = hppca.decode_batch(m, hppca.encode_batch(m, feats))
        errors.append(float(np.linalg.norm(rec - feats) / np.linalg.norm(feats)))
    err_monotone = bool((np.diff(errors) <= 1e-12).all())

    subset = [(ident, img) for _, ident, img in
              (corpus[i] for i in range(0, len(corpus), 11))]
    # every swept model scores each image in one call, as eval does
    cfg = SynthesisConfig(iterations=50, seed=100)
    tss = np.array([synthesis.evaluate_image([models[d] for d in dims], cfg, 19, task)[0]
                    for task in enumerate(subset)])
    tss_means = [float(np.mean(col)) for col in tss.T]

    rank = lambda v: np.argsort(np.argsort(v)).astype(float)
    ra, rb = rank(np.arange(4)), rank(np.array(tss_means))
    ra -= ra.mean()
    rb -= rb.mean()
    rho = float((ra @ rb) / np.sqrt((ra @ ra) * (rb @ rb)))

    ok = (models[200].intermediate_dim >= 200 and err_monotone and rho >= 0.8)
    _verdict(8, ok,
             f"intermediate {models[200].intermediate_dim} (>=200), decoded errors "
             f"{[f'{e:.4f}' for e in errors]} non-increasing: {err_monotone}, "
             f"mean TSS {[f'{t:.4f}' for t in tss_means]} Spearman {rho:.2f} (>=0.8)")
