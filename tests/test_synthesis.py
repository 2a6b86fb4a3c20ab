import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import filtered_noise, grating, vector_matrix
from texlat import hppca, pss, synthesis
from texlat.pss import PssParams, PssVector
from texlat.synthesis import SynthesisConfig


def finite_difference_gradient(img, target, weights, eps=1e-5):
    flat = img.ravel().copy()
    grad = np.empty(flat.size)
    for i in range(flat.size):
        probe = flat.copy()
        probe[i] += eps
        hi = synthesis.pss_distance(
            pss.extract_pss(probe.reshape(img.shape), target.params), target, weights)
        probe[i] -= 2 * eps
        lo = synthesis.pss_distance(
            pss.extract_pss(probe.reshape(img.shape), target.params), target, weights)
        grad[i] = (hi - lo) / (2 * eps)
    return grad.reshape(img.shape)


class TestDistance:
    def test_identical_vectors_have_zero_distance(self, rng):
        v = pss.extract_pss(rng.standard_normal((16, 16)), PssParams(2, 2, 3))
        assert synthesis.pss_distance(v, v) == 0.0

    def test_single_coordinate_delta_squares(self, rng):
        v = pss.extract_pss(rng.standard_normal((16, 16)), PssParams(2, 2, 3))
        w = np.ones(10)
        bumped = PssVector(v.values.copy(), v.params)
        bumped.values[11] += 0.5
        assert abs(synthesis.pss_distance(bumped, v, w) - 0.25) < 1e-12

    def test_symmetry(self, rng):
        params = PssParams(2, 2, 3)
        a = pss.extract_pss(rng.standard_normal((16, 16)), params)
        b = pss.extract_pss(rng.standard_normal((16, 16)), params)
        w = np.full(10, 2.0)
        assert synthesis.pss_distance(a, b, w) == synthesis.pss_distance(b, a, w)

    def test_layout_mismatch_rejected(self, rng):
        a = pss.extract_pss(rng.standard_normal((16, 16)), PssParams(2, 2, 3))
        b = pss.extract_pss(rng.standard_normal((16, 16)), PssParams(1, 2, 3))
        with pytest.raises(ValueError):
            synthesis.pss_distance(a, b)

    def test_default_weights_floor(self, rng):
        v = pss.extract_pss(np.full((16, 16), 5.0), PssParams(2, 2, 3))
        w = synthesis.default_weights(v)
        assert w.shape == (10,)
        assert (w > 0).all() and np.isfinite(w).all()


class TestGradient:
    def test_matches_central_differences(self, rng):
        params = PssParams(2, 2, 3)
        target = pss.extract_pss(rng.standard_normal((16, 16)) * 25 + 120, params)
        img = rng.standard_normal((16, 16)) * 25 + 120
        weights = synthesis.default_weights(target)
        analytic = synthesis.pss_gradient(img, target, weights)
        fd = finite_difference_gradient(img, target, weights)
        rel = np.abs(analytic - fd).max() / np.abs(fd).max()
        assert rel <= 1e-4

    def test_zero_at_global_minimizer(self, rng):
        params = PssParams(2, 2, 3)
        img = rng.standard_normal((16, 16)) * 25 + 120
        target = pss.extract_pss(img, params)
        grad = synthesis.pss_gradient(img, target)
        assert np.abs(grad).max() <= 1e-8

    def test_doubling_weights_doubles_gradient(self, rng):
        params = PssParams(2, 2, 3)
        target = pss.extract_pss(rng.standard_normal((16, 16)), params)
        img = rng.standard_normal((16, 16))
        w = np.abs(rng.standard_normal(10)) + 0.1
        g1 = synthesis.pss_gradient(img, target, w)
        g2 = synthesis.pss_gradient(img, target, 2.0 * w)
        np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-12)


class TestSynthesize:
    def test_zero_iterations_from_fixed_point(self, rng):
        params = PssParams(2, 2, 3)
        img = rng.standard_normal((32, 32)) * 20 + 100
        target = pss.extract_pss(img, params)
        out, trace = synthesis.synthesize(
            target, SynthesisConfig(iterations=0, size=32), init_image=img)
        np.testing.assert_array_equal(out, img)
        np.testing.assert_array_equal(trace, [0.0])

    def test_seeded_determinism_is_bitwise(self, rng):
        params = PssParams(2, 2, 3)
        target = pss.extract_pss(rng.standard_normal((32, 32)) * 30 + 127, params)
        cfg = SynthesisConfig(iterations=3, seed=7, size=32)
        out1, tr1 = synthesis.synthesize(target, cfg)
        out2, tr2 = synthesis.synthesize(target, cfg)
        np.testing.assert_array_equal(out1, out2)
        np.testing.assert_array_equal(tr1, tr2)

    def test_trace_non_increasing_with_expected_length(self, rng):
        params = PssParams(2, 2, 3)
        target = pss.extract_pss(grating(32, 3, 1), params)
        _, trace = synthesis.synthesize(target, SynthesisConfig(iterations=8, size=32))
        assert trace.shape == (9,)
        assert (np.diff(trace) <= 1e-12).all()

    def test_grating_converges_to_a_tenth(self):
        params = PssParams(3, 4, 7)
        target = pss.extract_pss(grating(64, 4, 0), params)
        _, trace = synthesis.synthesize(target,
                                        SynthesisConfig(iterations=50, seed=1, size=64))
        assert trace[-1] <= 0.1 * trace[0]

    def test_zero_iterations_return_the_initial_image(self, rng):
        target = pss.extract_pss(rng.standard_normal((32, 32)) * 30 + 127, PssParams(2, 2, 3))
        cfg = SynthesisConfig(iterations=0, seed=11, size=32)
        out, trace = synthesis.synthesize(target, cfg)
        np.testing.assert_array_equal(out, synthesis.initial_image(target, cfg))
        assert trace.shape == (1,)

    def test_noise_init_matches_target_moments(self, rng):
        params = PssParams(2, 2, 3)
        target = pss.extract_pss(rng.standard_normal((64, 64)) * 40 + 127, params)
        out, _ = synthesis.synthesize(target, SynthesisConfig(iterations=0, size=64))
        assert abs(out.mean() - 127) < 5
        assert abs(out.std() - 40) < 5


class TestLbfgs:
    """Pins the optimizer on a criterion-6 target: 64 px, (3,4,7), 50 iterations."""

    @pytest.fixture(scope="class")
    def runs(self):
        target = pss.extract_pss(filtered_noise(64, 63, 1.0, 2.0), PssParams(3, 4, 7))
        cfg = SynthesisConfig(iterations=50, seed=609, size=64)
        forward, calls = pss._forward, [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return forward(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pss, "_forward", counted)
            first = synthesis.synthesize(target, cfg)
        return first, synthesis.synthesize(target, cfg), calls[0]

    def test_about_one_forward_per_iteration(self, runs):
        # backtracking gradient descent made about 1.84 per iteration
        assert runs[2] <= 1.25 * 50 + 1

    def test_fifty_iterations_are_bitwise_deterministic(self, runs):
        (out1, tr1), (out2, tr2), _ = runs
        np.testing.assert_array_equal(out1, out2)
        np.testing.assert_array_equal(tr1, tr2)

    def test_trace_has_one_entry_per_iteration_and_never_rises(self, runs):
        trace = runs[0][1]
        assert trace.shape == (51,)
        assert (np.diff(trace) <= 0).all()

    def test_zero_gradient_pads_the_trace(self, rng):
        params = PssParams(2, 2, 3)
        img = rng.standard_normal((32, 32)) * 20 + 100
        out, trace = synthesis.synthesize(pss.extract_pss(img, params),
                                          SynthesisConfig(iterations=4, size=32),
                                          init_image=img)
        np.testing.assert_array_equal(out, img)
        np.testing.assert_array_equal(trace, np.zeros(5))

    def test_failed_steepest_descent_search_ends_the_run(self, rng, monkeypatch):
        # 1e-9 from the target, even the 30th halving of the first step overshoots
        params = PssParams(2, 2, 3)
        img = rng.standard_normal((32, 32)) * 20 + 100
        init = img + 1e-9 * rng.standard_normal((32, 32))
        backward, calls = pss._backward, []
        monkeypatch.setattr(pss, "_backward",
                            lambda *a: calls.append(1) or backward(*a))
        out, trace = synthesis.synthesize(pss.extract_pss(img, params),
                                          SynthesisConfig(iterations=4, size=32),
                                          init_image=init)
        np.testing.assert_array_equal(out, init)
        assert trace.shape == (5,) and (trace == trace[0]).all()
        assert len(calls) == 1

    @pytest.fixture
    def noise_target(self):
        img = np.random.default_rng(3).standard_normal((32, 32)) * 30 + 127
        return pss.extract_pss(img, PssParams(2, 2, 3))

    def test_failed_forwards_clear_the_memory_then_end_the_run(self, noise_target,
                                                                monkeypatch):
        # a forward that raises scores its step inf: the L-BFGS search fails and
        # clears the pairs, then the steepest-descent search fails and ends the run
        cfg = SynthesisConfig(5, seed=1, size=32)
        once, once_trace = synthesis.synthesize(noise_target,
                                                SynthesisConfig(1, seed=1, size=32))
        forward, backward, calls, failed = pss._forward, pss._backward, [], []

        def failing_forward(*a):
            if len(calls) >= 2:
                failed.append(1)
                raise pss.NumericError("non-finite statistic at flat index 0")
            return forward(*a)
        monkeypatch.setattr(pss, "_forward", failing_forward)
        monkeypatch.setattr(pss, "_backward", lambda *a: calls.append(1) or backward(*a))
        out, trace = synthesis.synthesize(noise_target, cfg)
        np.testing.assert_array_equal(out, once)
        np.testing.assert_array_equal(trace, [once_trace[0]] + [once_trace[1]] * 5)
        assert len(calls) == 2
        assert len(failed) == 2 * synthesis.MAX_BACKTRACKS  # both searches ran out

    def test_failed_backward_names_the_iteration(self, noise_target, monkeypatch):
        backward, calls = pss._backward, []

        def failing_backward(*a):
            calls.append(1)
            if len(calls) == 2:
                raise pss.NumericError("non-finite statistic gradient")
            return backward(*a)
        monkeypatch.setattr(pss, "_backward", failing_backward)
        with pytest.raises(pss.NumericError,
                           match="^iteration 1: non-finite statistic gradient$"):
            synthesis.synthesize(noise_target, SynthesisConfig(5, seed=1, size=32))

    def test_non_finite_target_raises(self, rng):
        v = pss.extract_pss(rng.standard_normal((32, 32)) * 20 + 100, PssParams(2, 2, 3))
        v.values[7] = np.nan
        with pytest.raises(pss.NumericError, match="non-finite"):
            synthesis.synthesize(v, SynthesisConfig(iterations=0, size=32))


def brute_force_tss(sample, source):
    p = sample.shape[0]
    s = sample.ravel()
    sn = np.linalg.norm(s)
    best, arg = -np.inf, (0, 0)
    for y in range(source.shape[0] - p + 1):
        for x in range(source.shape[1] - p + 1):
            patch = source[y:y + p, x:x + p].ravel()
            pn = np.linalg.norm(patch)
            sim = 0.0 if pn == 0 or sn == 0 else float(patch @ s) / (pn * sn)
            if sim > best:
                best, arg = sim, (y, x)
    return best, arg


class TestTss:
    def test_self_patch_scores_one(self, rng):
        src = rng.uniform(10, 255, size=(16, 16))
        rep = synthesis.tss(src[4:9, 3:8], src)
        assert abs(rep.tss - 1.0) <= 1e-12
        assert rep.location == (4, 3)
        assert rep.candidates == 12 * 12

    def test_constant_positive_images_score_one(self):
        rep = synthesis.tss(np.full((3, 3), 2.0), np.full((6, 6), 9.0))
        assert abs(rep.tss - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        source = rng.standard_normal((8, 8))
        sample = rng.standard_normal((3, 3))
        rep = synthesis.tss(sample, source)
        best, arg = brute_force_tss(sample, source)
        assert rep.tss == pytest.approx(best, abs=1e-12)
        assert rep.location == arg
        assert rep.candidates == 36

    def test_negated_patch_oracle_case(self, rng):
        source = rng.standard_normal((8, 8))
        sample = -source[2:5, 2:5]
        rep = synthesis.tss(sample, source)
        best, _ = brute_force_tss(sample, source)
        assert rep.tss == pytest.approx(best, abs=1e-12)

    def test_bounds(self, rng):
        for _ in range(20):
            rep = synthesis.tss(rng.standard_normal((3, 3)),
                                rng.standard_normal((10, 12)))
            assert abs(rep.tss) <= 1.0

    def test_one_pixel_source_copies_score_at_most_one(self):
        # unclipped, rounding takes the best of these to 1.0000000000000293
        src = np.random.default_rng(0).uniform(1, 255, (16, 13))
        scores = [synthesis.tss(src[y:y + 1, x:x + 1], src).tss
                  for y in range(16) for x in range(13)]
        assert max(scores) == 1.0

    def test_zero_sample_scores_zero(self, rng):
        rep = synthesis.tss(np.zeros((3, 3)), rng.standard_normal((6, 6)))
        assert rep.tss == 0.0

    def test_fft_kernel_matches_oracle_at_eval_geometry(self, rng):
        source = rng.uniform(0, 255, size=(128, 128))
        sample = rng.uniform(0, 255, size=(19, 19))
        rep = synthesis.tss(sample, source)
        best, arg = brute_force_tss(sample, source)
        assert rep.tss == pytest.approx(best, abs=1e-12)
        assert rep.location == arg
        assert rep.candidates == 110 * 110

    def test_source_patch_copy_scores_one_at_eval_geometry(self, rng):
        source = rng.uniform(0, 255, size=(128, 128))
        rep = synthesis.tss(source[37:56, 81:100].copy(), source)
        assert abs(rep.tss - 1.0) <= 1e-12
        assert rep.location == (37, 81)

    def test_zero_source_windows_score_exactly_zero_at_eval_geometry(self, rng):
        source = rng.uniform(1, 255, size=(128, 128))
        source[:24] = 0.0
        # every window that reaches a nonzero row has a negative dot product
        # with this sample, so the best score is that of an all-zero window
        sample = -rng.uniform(1, 255, size=(19, 19))
        rep = synthesis.tss(sample, source)
        assert rep.tss == 0.0
        assert rep.location == (0, 0)
        assert brute_force_tss(sample, source) == (0.0, (0, 0))

    def test_size_validation(self, rng):
        with pytest.raises(ValueError):
            synthesis.tss(rng.standard_normal((9, 9)), rng.standard_normal((8, 8)))
        with pytest.raises(ValueError):
            synthesis.tss(rng.standard_normal((3, 4)), rng.standard_normal((8, 8)))


class TestSampleGrid:
    def test_one_pixel_source_grid_scores_exactly_one(self):
        # unclipped, rounding takes either score to 1.0000000000000098
        src = np.random.default_rng(0).uniform(1, 255, (16, 13))
        assert synthesis.sample_grid_tss(src, src, 1) == (1.0, 16 * 13)
        assert synthesis.sample_grid_tss(src, src, 1, [(0.0, 1.0)]) == ([1.0], 16 * 13)

    def test_source_copy_scores_one(self, rng):
        img = rng.uniform(1, 255, size=(32, 32))
        score, count = synthesis.sample_grid_tss(img, img, 9)
        assert count == 9
        assert abs(score - 1.0) <= 1e-12

    def test_equals_mean_of_per_tile_tss(self, rng):
        img = rng.uniform(1, 255, size=(40, 37))
        source = rng.uniform(1, 255, size=(24, 30))
        source[:6] = 0.0  # zero-norm source patches score 0
        tiles = [img[y:y + 9, x:x + 9] for y in (2, 11, 20, 29) for x in (0, 9, 18, 27)]
        expect = float(np.mean([synthesis.tss(t, source).tss for t in tiles]))
        assert synthesis.sample_grid_tss(img, source, 9) == (expect, 16)

    def test_source_terms_score_like_the_source(self, rng):
        img = rng.uniform(1, 255, size=(40, 37))
        source = rng.uniform(1, 255, size=(24, 30))
        terms = synthesis.SourceTerms(source, 9)
        assert synthesis.sample_grid_tss(img, terms, 9) == \
            synthesis.sample_grid_tss(img, source, 9)
        assert synthesis.sample_grid_tss(img[1:], terms, 9) == \
            synthesis.sample_grid_tss(img[1:], source, 9)
        with pytest.raises(ValueError, match="9px samples, not 8px"):
            synthesis.sample_grid_tss(img, terms, 8)

    @settings(max_examples=60, deadline=None)
    @example(seed=0, p=9, extra=11, zero_rows=14, moments=[(-127.0, 40.0)])
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 9), extra=st.integers(0, 20),
           zero_rows=st.integers(0, 24),
           moments=st.lists(st.tuples(st.floats(-300, 300), st.floats(0, 100)),
                            min_size=1, max_size=4))
    def test_moments_score_like_their_samples(self, seed, p, extra, zero_rows, moments):
        # p >= 2: a 1 px tile's FFT correlation alone is 3e-14 off its exact cosine of 1
        # besides the drawn pairs: std = 0, and mean = std = 0, which scores exactly 0
        moments = moments + [(moments[0][0], 0.0), (0.0, 0.0)]
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((p + extra, p + extra))
        source = rng.uniform(1, 255, size=(p + 15, p + 12))
        source[:zero_rows] = 0.0  # zero-norm windows once zero_rows >= p
        terms = synthesis.SourceTerms(source, p)
        scores, count = synthesis.sample_grid_tss(noise, terms, p, moments)
        assert len(scores) == len(moments)
        for (mean, std), score in zip(moments, scores):
            expect, tiles = synthesis.sample_grid_tss(mean + std * noise, terms, p)
            assert abs(score - expect) <= 1e-14
            assert tiles == count
        assert scores[-1] == 0.0

    def test_patch_larger_than_image_rejected(self, rng):
        with pytest.raises(ValueError):
            synthesis.sample_grid_tss(rng.standard_normal((8, 8)),
                                      rng.standard_normal((32, 32)), 9)

    def test_patch_size_below_one_rejected(self, rng):
        img = rng.standard_normal((8, 8))
        with pytest.raises(ValueError, match="patch size must be >= 1, got 0"):
            synthesis.sample_grid_tss(img, img, 0)


class TestEvaluateModel:
    @pytest.fixture
    def tiny_setup(self, rng):
        params = PssParams(2, 2, 3)
        imgs = [(f"img{i}", rng.standard_normal((32, 32)) * (20 + 4 * i) + 120)
                for i in range(6)]
        x, _ = vector_matrix([pss.extract_pss(im, params) for _, im in imgs])
        return params, imgs, x

    def test_rows_and_bounds(self, tiny_setup):
        params, imgs, x = tiny_setup
        model = hppca.fit_hierarchy(hppca.GroupSpectra(x, params), 0.999, 4)
        cfg = SynthesisConfig(iterations=2, seed=5)
        for task in enumerate(imgs[:3]):
            tss, rel_err = synthesis.evaluate_image([model], cfg, 9, task)
            assert tss.shape == rel_err.shape == (1,)
            assert -1.0 <= tss[0] <= 1.0 + 1e-12
            assert rel_err[0] >= 0.0

    def test_near_lossless_model_attains_tiny_pss_error(self, tiny_setup):
        params, imgs, x = tiny_setup
        model = hppca.fit_hierarchy(hppca.GroupSpectra(x, params), 1.0 - 1e-12,
                                    x.shape[0] - 1)
        for task in enumerate(imgs[:2]):
            _, rel_err = synthesis.evaluate_image([model], SynthesisConfig(iterations=0, seed=5),
                                                  9, task)
            assert rel_err[0] <= 1e-6

    def test_deterministic(self, tiny_setup):
        params, imgs, x = tiny_setup
        model = hppca.fit_hierarchy(hppca.GroupSpectra(x, params), 0.999, 3)
        cfg = SynthesisConfig(iterations=2, seed=9)
        for task in enumerate(imgs[:2]):
            r1 = synthesis.evaluate_image([model], cfg, 9, task)
            r2 = synthesis.evaluate_image([model], cfg, 9, task)
            assert [a.tolist() for a in r1] == [b.tolist() for b in r2]

    @staticmethod
    def check_each_model_scores_its_own_synthesis(tiny_setup, iterations):
        params, imgs, x = tiny_setup
        models = [hppca.fit_hierarchy(hppca.GroupSpectra(x, params), 0.999, d)
                  for d in (2, 4)]
        cfg = SynthesisConfig(iterations=iterations, seed=5)
        index, (image_id, img) = 3, imgs[3]
        tss, rel_err = synthesis.evaluate_image(models, cfg, 9, (index, (image_id, img)))
        assert tss.dtype == rel_err.dtype == np.float64
        assert tss.shape == rel_err.shape == (2,)
        run_cfg = SynthesisConfig(iterations=iterations, seed=5 + index, size=32)
        v = pss.extract_pss(img, params)
        for j, model in enumerate(models):
            decoded = hppca.decode(model, hppca.encode(model, v))
            out, _ = synthesis.synthesize(decoded, run_cfg)
            assert tss[j] == synthesis.sample_grid_tss(out, img, 9)[0]
            assert rel_err[j] == (np.linalg.norm(decoded.values - v.values)
                                  / np.linalg.norm(v.values))

    def test_zero_iterations_score_the_seeded_noise(self, tiny_setup):
        self.check_each_model_scores_its_own_synthesis(tiny_setup, 0)

    def test_each_model_scores_its_synthesis_in_model_order(self, tiny_setup):
        self.check_each_model_scores_its_own_synthesis(tiny_setup, 2)

    def test_non_finite_decoded_statistic_raises(self, tiny_setup, monkeypatch):
        params, imgs, x = tiny_setup
        model = hppca.fit_hierarchy(hppca.GroupSpectra(x, params), 0.999, 3)
        decode = hppca.decode

        def non_finite(m, code):
            v = decode(m, code)
            v.values[10] = np.inf
            return v
        monkeypatch.setattr(hppca, "decode", non_finite)
        with pytest.raises(pss.NumericError, match="relative error inf"):
            synthesis.evaluate_image([model], SynthesisConfig(iterations=0), 9,
                                     (0, imgs[0]))


class TestConfigValidation:
    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError, match=r"iterations must be >= 0, got -1$"):
            SynthesisConfig(iterations=-1)

    @pytest.mark.parametrize("size", [-4, 24])
    def test_bad_size_rejected_before_the_noise_draw(self, rng, monkeypatch, size):
        target = pss.extract_pss(rng.standard_normal((32, 32)) * 20 + 100, PssParams(2, 2, 3))
        draws, unit_noise = [], synthesis._unit_noise
        monkeypatch.setattr(synthesis, "_unit_noise",
                            lambda cfg: draws.append(1) or unit_noise(cfg))
        with pytest.raises(ValueError, match=f"image side must be a power of two, got {size}"):
            synthesis.synthesize(target, SynthesisConfig(iterations=1, size=size))
        assert draws == []
