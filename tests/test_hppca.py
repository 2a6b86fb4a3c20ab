import numpy as np
import pytest

from conftest import vector_matrix
from texlat import archive, hppca, ppca, pss
from texlat.pss import PssParams, PssVector


@pytest.fixture
def small_corpus(rng):
    params = PssParams(2, 2, 3)
    vecs = [pss.extract_pss(rng.standard_normal((32, 32)) * (15 + 3 * (i % 5)) + 110,
                            params) for i in range(30)]
    x, params = vector_matrix(vecs)
    return params, vecs, x


def rank2_blocks(rng, sizes, n):
    """Data whose every group slice has exact rank 2, or 1 if it is one column."""
    cols = []
    for size in sizes:
        basis = rng.standard_normal((min(2, size), size))
        cols.append(rng.standard_normal((n, min(2, size))) @ basis)
    return np.hstack(cols)


class TestFitHierarchy:
    def test_rank2_groups_give_two_latents_each(self, rng):
        params = PssParams(1, 1, 3)
        x = rank2_blocks(rng, pss.group_sizes(params), 60)
        model = hppca.fit_hierarchy(x, 0.999, 7, params=params)
        ranks = tuple(min(2, s) for s in pss.group_sizes(params))  # C5, C8 and C10 are one column
        assert model.group_dims == ranks
        assert model.intermediate_dim == sum(ranks) == 17

    def test_zero_variance_group_contributes_zero_latent(self, small_corpus):
        params, _, x = small_corpus
        xc = x.copy()
        xc[:, params.group_slice(10)] = 5.0
        model = hppca.fit_hierarchy(xc, 0.999, 3, params=params)
        g10 = model.group_models[9]
        assert g10.q == 1
        enc = ppca.encode(g10, xc[:, params.group_slice(10)])
        np.testing.assert_array_equal(enc, np.zeros_like(enc))

    def test_group_constant_up_to_rounding_gets_zero_latent(self, rng):
        # the covariance route (group dim <= n) must drop rounding-level
        # eigenvalues like the Gram route, not whiten them into a latent
        params = PssParams(1, 1, 3)
        x = rng.standard_normal((12, pss.pss_dim(params)))
        g9 = params.group_slice(9)
        x[:, g9] = 127 * rng.standard_normal(3) + 127e-16 * rng.standard_normal((12, 3))
        model = hppca.fit_hierarchy(x, 0.999, 3, params=params)
        enc = ppca.encode(model.group_models[8], x[:, g9])
        np.testing.assert_array_equal(enc, np.zeros_like(enc))

    def test_output_dim_above_intermediate_is_an_error(self, small_corpus):
        params, _, x = small_corpus
        probe = hppca.fit_hierarchy(x, 0.9, 1, params=params)
        too_big = probe.intermediate_dim + 1
        with pytest.raises(ValueError, match=str(probe.intermediate_dim)):
            hppca.fit_hierarchy(x, 0.9, too_big, params=params)

    def test_inconsistent_layouts_rejected(self, small_corpus, rng):
        params, _, _ = small_corpus
        other, _ = vector_matrix([pss.extract_pss(rng.standard_normal((32, 32)),
                                                  PssParams(2, 2, 5)) for _ in range(3)])
        with pytest.raises(ValueError, match="layout"):
            hppca.fit_hierarchy(other, 0.9, 2, params=params)

    def test_too_few_samples_rejected(self, small_corpus):
        params, _, x = small_corpus
        with pytest.raises(ValueError):
            hppca.fit_hierarchy(x[:1], 0.9, 2, params=params)


class TestGroupSpectra:
    def test_reused_spectra_fit_the_same_bytes_as_the_matrix(self, small_corpus, tmp_path,
                                                             monkeypatch):
        params, _, x = small_corpus
        calls = []
        sample_eig = ppca._sample_eig
        monkeypatch.setattr(ppca, "_sample_eig", lambda a: calls.append(1) or sample_eig(a))
        spectra = hppca.GroupSpectra(x, params)
        assert calls == []  # nothing is decomposed before a fit needs it
        grid = [(threshold, d) for threshold in (0.9, 0.999, 1.0) for d in (1, 4, 10)]
        for threshold, d in grid:
            archive.save_model(hppca.fit_hierarchy(spectra, threshold, d, params),
                               tmp_path / "spectra.hpca")
            archive.save_model(hppca.fit_hierarchy(x, threshold, d, params),
                               tmp_path / "matrix.hpca")
            assert ((tmp_path / "spectra.hpca").read_bytes()
                    == (tmp_path / "matrix.hpca").read_bytes())
        # the matrix fits decompose all 11 stages each; the spectra only their final stage
        assert len(calls) == 10 + len(grid) * (1 + 11)

    @pytest.mark.parametrize("take", [lambda x: x[0], lambda x: x[None]],
                             ids=["one-row", "three-d"])
    def test_non_2d_matrix_rejected(self, small_corpus, take):
        params, _, x = small_corpus
        with pytest.raises(ValueError, match=r"data shape \(.*\) does not match layout dim 142"):
            hppca.GroupSpectra(take(x), params)

    def test_spectra_of_another_layout_rejected(self, small_corpus, rng):
        params, _, _ = small_corpus
        other, other_params = vector_matrix([pss.extract_pss(rng.standard_normal((32, 32)),
                                                             PssParams(2, 2, 5))
                                             for _ in range(3)])
        spectra = hppca.GroupSpectra(other, other_params)
        reason = r"group spectra are for PssParams\(.*=5\), not PssParams\(.*=3\)"
        with pytest.raises(ValueError, match=reason):
            hppca.fit_hierarchy(spectra, 0.9, 2, params)


class TestEncodeDecode:
    def test_code_length_and_mean_behavior(self, small_corpus):
        params, vecs, x = small_corpus
        model = hppca.fit_hierarchy(x, 0.999, 5, params=params)
        code = hppca.encode(model, vecs[0])
        assert code.shape == (5,)
        mean_vec = PssVector(x.mean(axis=0), params)
        np.testing.assert_allclose(hppca.encode(model, mean_vec), 0.0, atol=1e-9)
        np.testing.assert_allclose(hppca.decode(model, np.zeros(5)).values,
                                   x.mean(axis=0), atol=1e-9)

    def test_encode_is_affine(self, small_corpus, rng):
        params, vecs, x = small_corpus
        model = hppca.fit_hierarchy(x, 0.999, 5, params=params)
        a = rng.standard_normal(pss.pss_dim(params))
        b = rng.standard_normal(pss.pss_dim(params))
        base = vecs[0].values
        enc = lambda arr: hppca.encode(model, PssVector(arr, params))
        lhs = enc(base + a + b) - enc(base)
        rhs = (enc(base + a) - enc(base)) + (enc(base + b) - enc(base))
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_roundtrip_idempotent(self, small_corpus):
        params, vecs, x = small_corpus
        model = hppca.fit_hierarchy(x, 0.999, 6, params=params)
        once = hppca.decode(model, hppca.encode(model, vecs[3]))
        twice = hppca.decode(model, hppca.encode(model, once))
        np.testing.assert_allclose(twice.values, once.values, atol=1e-8)

    def test_reconstruction_error_non_increasing_in_d(self, small_corpus):
        params, _, x = small_corpus
        errs = []
        for d in (1, 2, 4, 8):
            m = hppca.fit_hierarchy(x, 0.999, d, params=params)
            rec = hppca.decode_batch(m, hppca.encode_batch(m, x))
            errs.append(np.linalg.norm(rec - x))
        assert all(np.diff(errs) <= 1e-9)

    def test_noiseless_full_width_final_stage_is_transparent(self, rng):
        # exact rank-2 groups and a full-width, zero-noise final stage:
        # the two-stage round trip equals the group-stage-only round trip
        params = PssParams(1, 1, 3)
        x = rank2_blocks(rng, pss.group_sizes(params), 60)
        model = hppca.fit_hierarchy(x, 1.0 - 1e-9, 17, params=params)
        assert model.intermediate_dim == 17
        assert model.final_model.noise_var <= 1e-10
        two_stage = hppca.decode_batch(model, hppca.encode_batch(model, x))
        group_only = np.hstack([
            ppca.decode(g, ppca.encode(g, x[:, params.group_slice(i + 1)]))
            for i, g in enumerate(model.group_models)])
        np.testing.assert_allclose(two_stage, group_only, atol=1e-8)
        np.testing.assert_allclose(two_stage, x, atol=1e-8)

    def test_group_independence_before_final_stage(self, small_corpus, rng):
        params, vecs, x = small_corpus
        model = hppca.fit_hierarchy(x, 0.999, 5, params=params)
        base = vecs[0].values
        bumped = base.copy()
        bumped[params.group_slice(3)] += rng.standard_normal(pss.group_sizes(params)[2])
        for gi, gm in enumerate(model.group_models, start=1):
            sl = params.group_slice(gi)
            z1 = ppca.encode(gm, base[sl])
            z2 = ppca.encode(gm, bumped[sl])
            if gi == 3:
                assert np.abs(z1 - z2).max() > 0
            else:
                np.testing.assert_array_equal(z1, z2)

    def test_layout_mismatch_rejected(self, small_corpus, rng):
        params, _, x = small_corpus
        model = hppca.fit_hierarchy(x, 0.999, 5, params=params)
        other = pss.extract_pss(rng.standard_normal((32, 32)), PssParams(2, 2, 5))
        with pytest.raises(ValueError, match="layout"):
            hppca.encode(model, other)
        with pytest.raises(ValueError, match="code length"):
            hppca.decode(model, np.zeros(6))


class TestReductionRate:
    def test_paper_scale_arithmetic(self):
        params = PssParams(4, 4, 7)
        final = ppca.PpcaModel(np.zeros(965), np.zeros((965, 200)), 0.0,
                               np.zeros(965), 200)
        model = hppca.HppcaModel([], final, params, 0.99999999)
        assert abs(hppca.reduction_rate(model) - 0.8879) < 5e-5
        final1000 = ppca.PpcaModel(np.zeros(1000), np.zeros((1000, 1000)), 0.0,
                                   np.zeros(1000), 1000)
        model1000 = hppca.HppcaModel([], final1000, params, 1.0)
        assert abs(hppca.reduction_rate(model1000) - 0.4395) < 5e-5

    def test_full_width_code_reduces_nothing(self, small_corpus):
        params, _, x = small_corpus
        model = hppca.fit_hierarchy(x, 0.999, 3, params=params)
        model.final_model.q = pss.pss_dim(params)  # hypotheticalident-width code
        assert hppca.reduction_rate(model) == 0.0


class TestModelSerialization:
    def test_roundtrip_bit_exact(self, small_corpus, tmp_path):
        params, _, x = small_corpus
        model = hppca.fit_hierarchy(x, 0.999, 5, params=params)
        p = tmp_path / "m.hpca"
        archive.save_model(model, p)
        loaded = archive.load_model(p)
        archive.save_model(loaded, tmp_path / "m2.hpca")
        assert p.read_bytes() == (tmp_path / "m2.hpca").read_bytes()
        assert loaded.intermediate_threshold == model.intermediate_threshold
        for a, b in zip(loaded.group_models + [loaded.final_model],
                        model.group_models + [model.final_model]):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.loadings, b.loadings)
            np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
            assert a.noise_var == b.noise_var

    def test_corrupt_magic(self, tmp_path):
        p = tmp_path / "m.hpca"
        p.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ValueError, match="corrupt container"):
            archive.load_model(p)

    def test_version_mismatch_names_both_versions(self, small_corpus, tmp_path):
        params, _, x = small_corpus
        model = hppca.fit_hierarchy(x, 0.999, 2, params=params)
        p = tmp_path / "m.hpca"
        archive.save_model(model, p)
        raw = bytearray(p.read_bytes())
        raw[4] = 7
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"7.*1|1.*7"):
            archive.load_model(p)

    def test_truncation_detected(self, small_corpus, tmp_path):
        params, _, x = small_corpus
        model = hppca.fit_hierarchy(x, 0.999, 2, params=params)
        p = tmp_path / "m.hpca"
        archive.save_model(model, p)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(ValueError, match="corrupt container"):
            archive.load_model(p)
