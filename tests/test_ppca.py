import numpy as np
import pytest

from texlat import ppca


def brute_pca_reconstruction(data, q):
    """Independent oracle: SVD projection onto the top-q subspace."""
    mu = data.mean(axis=0)
    centered = data - mu
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return mu + centered @ vt[:q].T @ vt[:q]


def solve_posterior_mean(m, x):
    """Reference: dense (W'W + sigma^2 I)^-1 W'(x - mu), pseudo-inverse at sigma^2 = 0."""
    w = m.loadings
    mat = w.T @ w + m.noise_var * np.eye(m.q)
    rhs = (x - m.mean) @ w
    if m.noise_var > 0:
        return np.linalg.solve(mat, rhs.T).T
    return (np.linalg.pinv(mat) @ rhs.T).T


class TestFit:
    def test_collinear_points_hand_oracle(self):
        # points (t, 2t): covariance [[2/3, 4/3], [4/3, 8/3]], spectrum
        # [10/3, 0], loading along (1, 2)/sqrt(5) scaled by sqrt(10/3)
        data = np.array([[-1.0, -2.0], [0.0, 0.0], [1.0, 2.0]])
        m = ppca.fit(data, 1)
        np.testing.assert_allclose(m.eigenvalues, [10 / 3, 0.0], atol=1e-12)
        assert m.noise_var == 0.0
        np.testing.assert_allclose(
            m.loadings.ravel(), np.array([1.0, 2.0]) / np.sqrt(5) * np.sqrt(10 / 3),
            atol=1e-12)

    def test_exactly_isotropic_data(self, rng):
        # whiten a sample so its covariance is the identity: every
        # eigenvalue is 1, the noise floor absorbs everything, W -> 0
        x = rng.standard_normal((40, 5))
        x -= x.mean(axis=0)
        cov = x.T @ x / x.shape[0]
        w, v = np.linalg.eigh(cov)
        x = x @ v / np.sqrt(w) @ v.T
        m = ppca.fit(x, 2)
        np.testing.assert_allclose(m.eigenvalues, np.ones(5), atol=1e-9)
        np.testing.assert_allclose(m.noise_var, 1.0, atol=1e-9)
        np.testing.assert_allclose(m.loadings, 0.0, atol=1e-6)

    def test_full_rank_roundtrip_lossless(self, rng):
        x = rng.standard_normal((30, 4)) @ np.diag([3.0, 2.0, 1.0, 0.5])
        m = ppca.fit(x, 4)
        assert m.noise_var == 0.0
        np.testing.assert_allclose(ppca.decode(m, ppca.encode(m, x)), x, atol=1e-9)

    def test_gram_route_matches_dense_eigenvalues(self, rng):
        x = rng.standard_normal((8, 20))
        m = ppca.fit(x, 3)
        centered = x - x.mean(axis=0)
        dense = np.sort(np.linalg.eigvalsh(centered.T @ centered / 8))[::-1]
        np.testing.assert_allclose(m.eigenvalues, np.maximum(dense, 0), atol=1e-9)

    @pytest.mark.parametrize("n, dim", [(12, 40), (50, 10)], ids=["gram-route", "dense-route"])
    def test_sample_eig_returns_rank_sized_eigenvectors(self, rng, n, dim):
        x = rng.standard_normal((n, dim))
        mu, eigvals, vecs = ppca._sample_eig(x)
        assert eigvals.shape == (dim,)
        assert vecs.shape == (dim, min(n, dim))
        rank = min(n - 1, dim)  # centering removes one dimension
        np.testing.assert_allclose(vecs[:, :rank].T @ vecs[:, :rank], np.eye(rank), atol=1e-12)
        m = ppca._model_from_eig(mu, eigvals, vecs, dim)  # q past the rank: zero loadings
        assert m.loadings.shape == (dim, dim)
        np.testing.assert_array_equal(m.loadings[:, rank:], 0.0)

    def test_refit_is_bit_identical(self, rng):
        x = rng.standard_normal((20, 6))
        m1, m2 = ppca.fit(x, 3), ppca.fit(x, 3)
        np.testing.assert_array_equal(m1.loadings, m2.loadings)
        np.testing.assert_array_equal(m1.eigenvalues, m2.eigenvalues)

    def test_row_permutation_changes_nothing_material(self, rng):
        x = rng.standard_normal((20, 6))
        m1 = ppca.fit(x, 3)
        m2 = ppca.fit(x[rng.permutation(20)], 3)
        np.testing.assert_allclose(m1.loadings, m2.loadings, atol=1e-9)
        np.testing.assert_allclose(m1.eigenvalues, m2.eigenvalues, atol=1e-9)

    def test_input_validation(self, rng):
        with pytest.raises(ValueError):
            ppca.fit(rng.standard_normal((1, 4)), 1)
        with pytest.raises(ValueError):
            ppca.fit(rng.standard_normal((10, 4)), 0)
        with pytest.raises(ValueError):
            ppca.fit(rng.standard_normal((10, 4)), 5)
        bad = rng.standard_normal((10, 4))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            ppca.fit(bad, 2)


class TestEncodeDecode:
    def test_mean_encodes_to_zero(self, rng):
        x = rng.standard_normal((25, 6))
        m = ppca.fit(x, 3)
        np.testing.assert_allclose(ppca.encode(m, m.mean), 0.0, atol=1e-12)
        np.testing.assert_allclose(ppca.decode(m, np.zeros(3)), m.mean, atol=1e-12)

    def test_encode_is_linear_about_the_mean(self, rng):
        x = rng.standard_normal((25, 6))
        m = ppca.fit(x, 2)
        v = rng.standard_normal(6)
        np.testing.assert_allclose(ppca.encode(m, m.mean + 3.0 * v),
                                   3.0 * ppca.encode(m, m.mean + v), atol=1e-9)

    @pytest.mark.parametrize("q", [1, 3, 5])
    def test_projection_matches_brute_force_oracle(self, rng, q):
        x = rng.standard_normal((50, 10)) @ np.diag(np.linspace(3, 0.4, 10))
        m = ppca.fit(x, q)
        rec = ppca.decode(m, ppca.encode(m, x))
        np.testing.assert_allclose(rec, brute_pca_reconstruction(x, q), atol=1e-8)

    def test_sigma_zero_branch_matches_oracle(self, rng):
        # data of exact rank 3: the trailing spectrum vanishes
        basis = rng.standard_normal((3, 10))
        x = rng.standard_normal((50, 3)) @ basis + rng.standard_normal(10)
        m = ppca.fit(x, 3)
        assert m.noise_var <= 1e-12
        rec = ppca.decode(m, ppca.encode(m, x))
        np.testing.assert_allclose(rec, brute_pca_reconstruction(x, 3), atol=1e-8)
        np.testing.assert_allclose(rec, x, atol=1e-8)

    def test_roundtrip_idempotent(self, rng):
        x = rng.standard_normal((30, 8))
        m = ppca.fit(x, 3)
        once = ppca.decode(m, ppca.encode(m, x))
        twice = ppca.decode(m, ppca.encode(m, once))
        np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_latent_roundtrip_identity_when_noiseless(self, rng):
        basis = rng.standard_normal((3, 8))
        x = rng.standard_normal((40, 3)) @ basis
        m = ppca.fit(x, 3)
        z = rng.standard_normal((7, 3))
        np.testing.assert_allclose(ppca.encode(m, ppca.decode(m, z)), z, atol=1e-9)

    def test_reconstruction_error_non_increasing_in_q(self, rng):
        x = rng.standard_normal((40, 8)) @ np.diag(np.linspace(2.5, 0.3, 8))
        errs = []
        for q in range(1, 9):
            m = ppca.fit(x, q)
            errs.append(np.linalg.norm(ppca.decode(m, ppca.encode(m, x)) - x))
        assert all(np.diff(errs) <= 1e-9)

    @pytest.mark.parametrize("n, dim, q", [
        pytest.param(50, 10, 4, id="covariance-route"),
        pytest.param(12, 40, 5, id="gram-route"),
        pytest.param(36, 250, 200, id="noiseless-q-above-rank"),
    ])
    def test_encode_matches_solve_reference(self, rng, n, dim, q):
        x = rng.standard_normal((n, dim)) @ np.diag(np.linspace(3, 0.5, dim))
        m = ppca.fit(x, q)
        assert (m.noise_var == 0.0) == (q >= n)
        held_out = rng.standard_normal((4, dim))
        for data in (x, held_out):
            ref = solve_posterior_mean(m, data)
            np.testing.assert_allclose(ppca.encode(m, data), ref,
                                       rtol=0, atol=1e-10 * np.abs(ref).max())

    def test_zero_loading_column_roundtrip_projects_onto_the_others(self, rng):
        basis, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        m = ppca.PpcaModel(rng.standard_normal(6), basis * [2.0, 0.0, 1.0], 0.3,
                           np.array([4.3, 1.3, 0.3, 0.3, 0.3, 0.3]), 3)
        x = rng.standard_normal((5, 6))
        kept = basis[:, [0, 2]]
        expect = m.mean + (x - m.mean) @ kept @ kept.T
        np.testing.assert_allclose(ppca.decode(m, ppca.encode(m, x)), expect, atol=1e-12)
        np.testing.assert_array_equal(ppca.encode(m, x)[:, 1], 0.0)

    def test_dimension_mismatch_rejected(self, rng):
        m = ppca.fit(rng.standard_normal((10, 4)), 2)
        with pytest.raises(ValueError):
            ppca.encode(m, np.zeros(5))
        with pytest.raises(ValueError):
            ppca.decode(m, np.zeros(3))


class TestSpectrumTools:
    def test_cumulative_contribution_tables(self):
        np.testing.assert_allclose(ppca.cumulative_contribution([3, 1]), [0.75, 1.0])
        np.testing.assert_allclose(ppca.cumulative_contribution([1, 0, 0]), [1, 1, 1])
        np.testing.assert_allclose(ppca.cumulative_contribution([4, 2, 1, 1]),
                                   [0.5, 0.75, 0.875, 1.0])

    def test_cumulative_contribution_monotone_ends_at_one(self, rng):
        lam = np.sort(rng.uniform(0, 5, size=12))[::-1]
        ccr = ppca.cumulative_contribution(lam)
        assert (np.diff(ccr) >= -1e-15).all()
        assert ccr[-1] == 1.0

    def test_choose_dim_tables(self):
        assert ppca.choose_dim([4, 2, 1, 1], 0.75) == 2
        assert ppca.choose_dim([4, 2, 1, 1], 1.0) == 4
        assert ppca.choose_dim([1, 0, 0], 1.0) == 1
        assert ppca.choose_dim([1.0], 0.5) == 1

    def test_choose_dim_non_decreasing_in_threshold(self, rng):
        lam = np.sort(rng.uniform(0, 5, size=10))[::-1]
        qs = [ppca.choose_dim(lam, r) for r in (0.1, 0.5, 0.9, 0.999, 1.0)]
        assert all(np.diff(qs) >= 0)

    def test_degenerate_spectra_rejected(self):
        with pytest.raises(ValueError):
            ppca.cumulative_contribution([0.0, 0.0])
        with pytest.raises(ValueError):
            ppca.cumulative_contribution([1.0, 2.0])
        with pytest.raises(ValueError):
            ppca.cumulative_contribution([1.0, -0.5])
        with pytest.raises(ValueError):
            ppca.choose_dim([1.0], 0.0)

    def test_spectrum_that_is_not_a_vector_rejected(self):
        with pytest.raises(ValueError, match="eigenvalues must be a non-empty 1-D vector"):
            ppca.cumulative_contribution(np.ones((2, 2)))
