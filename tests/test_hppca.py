import numpy as np
import pytest

from conftest import vector_matrix
from texlat import hppca, ppca, pss
from texlat.pss import PssLayout, PssParams, PssVector


@pytest.fixture
def small_corpus(rng):
    params = PssParams(2, 2, 3)
    vecs = [pss.extract_pss(rng.standard_normal((32, 32)) * (15 + 3 * (i % 5)) + 110,
                            params) for i in range(30)]
    x, layout = vector_matrix(vecs)
    return layout, vecs, x


def rank2_blocks(rng, sizes, n):
    """Data whose every group slice has exact rank 2, or 1 if it is one column."""
    cols = []
    for size in sizes:
        basis = rng.standard_normal((min(2, size), size))
        cols.append(rng.standard_normal((n, min(2, size))) @ basis)
    return np.hstack(cols)


class TestFitHierarchy:
    def test_rank2_groups_give_two_latents_each(self, rng):
        layout = PssLayout(PssParams(1, 1, 3))
        x = rank2_blocks(rng, layout.sizes, 60)
        model = hppca.fit_hierarchy(x, 0.999, 7, layout=layout)
        ranks = tuple(min(2, s) for s in layout.sizes)  # C5, C8 and C10 are one column
        assert model.group_dims == ranks
        assert model.intermediate_dim == sum(ranks) == 17

    def test_zero_variance_group_contributes_zero_latent(self, small_corpus):
        layout, _, x = small_corpus
        xc = x.copy()
        xc[:, layout.group_slice(10)] = 5.0
        model = hppca.fit_hierarchy(xc, 0.999, 3, layout=layout)
        g10 = model.group_models[9]
        assert g10.q == 1
        enc = ppca.encode(g10, xc[:, layout.group_slice(10)])
        np.testing.assert_array_equal(enc, np.zeros_like(enc))

    def test_group_constant_up_to_rounding_gets_zero_latent(self, rng):
        # the covariance route (group dim <= n) must drop rounding-level
        # eigenvalues like the Gram route, not whiten them into a latent
        layout = PssLayout(PssParams(1, 1, 3))
        x = rng.standard_normal((12, layout.dim))
        g9 = layout.group_slice(9)
        x[:, g9] = 127 * rng.standard_normal(3) + 127e-16 * rng.standard_normal((12, 3))
        model = hppca.fit_hierarchy(x, 0.999, 3, layout=layout)
        enc = ppca.encode(model.group_models[8], x[:, g9])
        np.testing.assert_array_equal(enc, np.zeros_like(enc))

    def test_output_dim_above_intermediate_is_an_error(self, small_corpus):
        layout, _, x = small_corpus
        probe = hppca.fit_hierarchy(x, 0.9, 1, layout=layout)
        too_big = probe.intermediate_dim + 1
        with pytest.raises(ValueError, match=str(probe.intermediate_dim)):
            hppca.fit_hierarchy(x, 0.9, too_big, layout=layout)

    def test_inconsistent_layouts_rejected(self, small_corpus, rng):
        layout, _, _ = small_corpus
        other, _ = vector_matrix([pss.extract_pss(rng.standard_normal((32, 32)),
                                                  PssParams(2, 2, 5)) for _ in range(3)])
        with pytest.raises(ValueError, match="layout"):
            hppca.fit_hierarchy(other, 0.9, 2, layout=layout)

    def test_too_few_samples_rejected(self, small_corpus):
        layout, _, x = small_corpus
        with pytest.raises(ValueError):
            hppca.fit_hierarchy(x[:1], 0.9, 2, layout=layout)


class TestEncodeDecode:
    def test_code_length_and_mean_behavior(self, small_corpus):
        layout, vecs, x = small_corpus
        model = hppca.fit_hierarchy(x, 0.999, 5, layout=layout)
        code = hppca.encode(model, vecs[0])
        assert code.shape == (5,)
        mean_vec = PssVector(x.mean(axis=0), layout)
        np.testing.assert_allclose(hppca.encode(model, mean_vec), 0.0, atol=1e-9)
        np.testing.assert_allclose(hppca.decode(model, np.zeros(5)).values,
                                   x.mean(axis=0), atol=1e-9)

    def test_encode_is_affine(self, small_corpus, rng):
        layout, vecs, x = small_corpus
        model = hppca.fit_hierarchy(x, 0.999, 5, layout=layout)
        a = rng.standard_normal(layout.dim)
        b = rng.standard_normal(layout.dim)
        base = vecs[0].values
        enc = lambda arr: hppca.encode(model, PssVector(arr, layout))
        lhs = enc(base + a + b) - enc(base)
        rhs = (enc(base + a) - enc(base)) + (enc(base + b) - enc(base))
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_roundtrip_idempotent(self, small_corpus):
        layout, vecs, x = small_corpus
        model = hppca.fit_hierarchy(x, 0.999, 6, layout=layout)
        once = hppca.decode(model, hppca.encode(model, vecs[3]))
        twice = hppca.decode(model, hppca.encode(model, once))
        np.testing.assert_allclose(twice.values, once.values, atol=1e-8)

    def test_reconstruction_error_non_increasing_in_d(self, small_corpus):
        layout, _, x = small_corpus
        errs = []
        for d in (1, 2, 4, 8):
            m = hppca.fit_hierarchy(x, 0.999, d, layout=layout)
            rec = hppca.decode_batch(m, hppca.encode_batch(m, x))
            errs.append(np.linalg.norm(rec - x))
        assert all(np.diff(errs) <= 1e-9)

    def test_noiseless_full_width_final_stage_is_transparent(self, rng):
        # exact rank-2 groups and a full-width, zero-noise final stage:
        # the two-stage round trip equals the group-stage-only round trip
        layout = PssLayout(PssParams(1, 1, 3))
        x = rank2_blocks(rng, layout.sizes, 60)
        model = hppca.fit_hierarchy(x, 1.0 - 1e-9, 17, layout=layout)
        assert model.intermediate_dim == 17
        assert model.final_model.noise_var <= 1e-10
        two_stage = hppca.decode_batch(model, hppca.encode_batch(model, x))
        group_only = np.hstack([
            ppca.decode(g, ppca.encode(g, x[:, layout.group_slice(i + 1)]))
            for i, g in enumerate(model.group_models)])
        np.testing.assert_allclose(two_stage, group_only, atol=1e-8)
        np.testing.assert_allclose(two_stage, x, atol=1e-8)

    def test_group_independence_before_final_stage(self, small_corpus, rng):
        layout, vecs, x = small_corpus
        model = hppca.fit_hierarchy(x, 0.999, 5, layout=layout)
        base = vecs[0].values
        bumped = base.copy()
        bumped[layout.group_slice(3)] += rng.standard_normal(layout.sizes[2])
        for gi, gm in enumerate(model.group_models, start=1):
            sl = layout.group_slice(gi)
            z1 = ppca.encode(gm, base[sl])
            z2 = ppca.encode(gm, bumped[sl])
            if gi == 3:
                assert np.abs(z1 - z2).max() > 0
            else:
                np.testing.assert_array_equal(z1, z2)

    def test_layout_mismatch_rejected(self, small_corpus, rng):
        layout, _, x = small_corpus
        model = hppca.fit_hierarchy(x, 0.999, 5, layout=layout)
        other = pss.extract_pss(rng.standard_normal((32, 32)), PssParams(2, 2, 5))
        with pytest.raises(ValueError, match="layout"):
            hppca.encode(model, other)
        with pytest.raises(ValueError, match="code length"):
            hppca.decode(model, np.zeros(6))


class TestReductionRate:
    def test_paper_scale_arithmetic(self):
        layout = PssLayout(PssParams(4, 4, 7))
        final = ppca.PpcaModel(np.zeros(965), np.zeros((965, 200)), 0.0,
                               np.zeros(965), 200)
        model = hppca.HppcaModel([], final, layout, 0.99999999)
        assert abs(hppca.reduction_rate(model) - 0.8879) < 5e-5
        final1000 = ppca.PpcaModel(np.zeros(1000), np.zeros((1000, 1000)), 0.0,
                                   np.zeros(1000), 1000)
        model1000 = hppca.HppcaModel([], final1000, layout, 1.0)
        assert abs(hppca.reduction_rate(model1000) - 0.4395) < 5e-5

    def test_full_width_code_reduces_nothing(self, small_corpus):
        layout, _, x = small_corpus
        model = hppca.fit_hierarchy(x, 0.999, 3, layout=layout)
        model.final_model.q = layout.dim  # hypotheticalident-width code
        assert hppca.reduction_rate(model) == 0.0


class TestModelSerialization:
    def test_roundtrip_bit_exact(self, small_corpus, tmp_path):
        layout, _, x = small_corpus
        model = hppca.fit_hierarchy(x, 0.999, 5, layout=layout)
        p = tmp_path / "m.hpca"
        hppca.save_model(model, p)
        loaded = hppca.load_model(p)
        hppca.save_model(loaded, tmp_path / "m2.hpca")
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
            hppca.load_model(p)

    def test_version_mismatch_names_both_versions(self, small_corpus, tmp_path):
        layout, _, x = small_corpus
        model = hppca.fit_hierarchy(x, 0.999, 2, layout=layout)
        p = tmp_path / "m.hpca"
        hppca.save_model(model, p)
        raw = bytearray(p.read_bytes())
        raw[4] = 7
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"7.*1|1.*7"):
            hppca.load_model(p)

    def test_truncation_detected(self, small_corpus, tmp_path):
        layout, _, x = small_corpus
        model = hppca.fit_hierarchy(x, 0.999, 2, layout=layout)
        p = tmp_path / "m.hpca"
        hppca.save_model(model, p)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(ValueError, match="corrupt container"):
            hppca.load_model(p)
