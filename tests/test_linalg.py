import numpy as np

from elastiq import elastic
from elastiq.linalg import (
    svd_full,
    spectral_norm,
    tucker2_fit,
)

from oracles import jacobi_gram_eigvals, tucker2_recompose

# spectral_norm's relative upper-bound slack
SLACK = 1.0 + 1e-8


def _rand(m, n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal((m, n))


class TestSvdFull:
    def test_matches_independent_jacobi_gram_oracle(self):
        # singular values squared must equal the Gram eigenvalues produced
        # by a separately written largest-pivot Jacobi eigensolver
        for seed, (m, n) in [(0, (8, 8)), (1, (12, 7)), (2, (6, 13)), (3, (20, 20))]:
            w = _rand(m, n, seed)
            f = svd_full(w)
            evals = jacobi_gram_eigvals(w if m >= n else w.T)
            assert np.allclose(f.core**2, np.maximum(evals, 0.0), atol=1e-9 * max(1.0, evals[0]))

    def test_matches_numpy_reference(self):
        for seed in range(6):
            w = _rand(11, 9, seed + 10)
            f = svd_full(w)
            ref = np.linalg.svd(w, compute_uv=False)
            assert np.allclose(f.core, ref, rtol=1e-10, atol=1e-12)

    def test_orthonormal_factors_and_reconstruction(self):
        for seed, (m, n) in [(0, (16, 12)), (1, (12, 16)), (2, (9, 9))]:
            w = _rand(m, n, seed + 20)
            f = svd_full(w)
            r = min(m, n)
            assert f.u.shape == (m, r) and f.v.shape == (n, r)
            assert np.allclose(f.u.T @ f.u, np.eye(r), atol=1e-8)
            assert np.allclose(f.v.T @ f.v, np.eye(r), atol=1e-8)
            recon = f.u @ np.diag(f.core) @ f.v.T
            assert np.linalg.norm(recon - w) <= 1e-8 * np.linalg.norm(w)

    def test_sigma_descending_nonnegative(self):
        w = _rand(10, 14, 31)
        f = svd_full(w)
        assert np.all(f.core >= 0)
        assert np.all(np.diff(f.core) <= 1e-12)

    def test_identity(self):
        f = svd_full(np.eye(8))
        assert np.allclose(f.core, np.ones(8), atol=1e-12)

    def test_diagonal(self):
        f = svd_full(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(f.core, [3.0, 2.0, 1.0], atol=1e-12)

    def test_zero_matrix(self):
        f = svd_full(np.zeros((5, 4)))
        assert np.allclose(f.core, 0.0)
        assert np.allclose(f.u.T @ f.u, np.eye(4), atol=1e-10)
        assert np.allclose(f.v.T @ f.v, np.eye(4), atol=1e-10)

    def test_rank_deficient_gets_orthonormal_completion(self):
        rng = np.random.Generator(np.random.PCG64(5))
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal((3, 8))
        w = a @ b
        f = svd_full(w)
        assert np.all(f.core[3:] <= 1e-10 * f.core[0])
        assert np.allclose(f.u.T @ f.u, np.eye(8), atol=1e-8)
        recon = f.u @ np.diag(f.core) @ f.v.T
        assert np.linalg.norm(recon - w) <= 1e-8 * np.linalg.norm(w)

    def test_transpose_invariance(self):
        w = _rand(13, 6, 77)
        assert np.allclose(svd_full(w).core, svd_full(w.T).core, rtol=1e-12, atol=1e-12)

    def test_eckart_young_small(self):
        w = _rand(10, 8, 42)
        f = svd_full(w)
        for k in range(1, 8):
            wk = f.u[:, :k] @ np.diag(f.core[:k]) @ f.v[:, :k].T
            resid = np.linalg.svd(w - wk, compute_uv=False)[0]
            target = f.core[k] if k < 8 else 0.0
            assert abs(resid - target) <= 1e-9 * max(1.0, f.core[0])

    def test_deterministic(self):
        w = _rand(9, 9, 3)
        f1 = svd_full(w)
        f2 = svd_full(w)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.core, f2.core)
        assert np.array_equal(f1.v, f2.v)

    def test_sign_convention(self):
        # the largest-magnitude entry of each u column is positive, so
        # negating w keeps u and negates v
        for seed, (m, n) in [(0, (7, 5)), (1, (5, 7)), (2, (6, 6))]:
            w = _rand(m, n, seed + 90)
            f, g = svd_full(w), svd_full(-w)
            rows = np.argmax(np.abs(f.u), axis=0)
            assert np.all(f.u[rows, np.arange(f.u.shape[1])] > 0)
            assert np.allclose(g.u, f.u, rtol=0.0, atol=1e-12)
            assert np.allclose(g.v, -f.v, rtol=0.0, atol=1e-12)
            assert np.allclose(g.core, f.core, rtol=1e-14, atol=0.0)


class TestSpectralNorm:
    """spectral_norm is LAPACK's largest singular value times the slack:
    never below the true norm, and above it by at most the slack."""

    @staticmethod
    def _bracketed(got, w):
        want = np.linalg.svd(w, compute_uv=False)[0]
        return want <= got <= want * SLACK

    def test_matches_svd_oracle(self):
        for seed in range(8):
            w = _rand(12, 10, seed + 50)
            assert self._bracketed(spectral_norm(w), w)

    def test_hand_computed_column(self):
        # [[3],[4]] stacked with a zero column: largest singular value 5
        w = np.array([[3.0, 0.0], [4.0, 0.0]])
        assert 5.0 <= spectral_norm(w) <= 5.0 * SLACK

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_never_below_true_norm(self):
        for seed in range(5):
            w = _rand(9, 9, seed + 70)
            assert self._bracketed(spectral_norm(w), w)


class TestTucker2:
    def test_planted_rank11_recovery(self):
        rng = np.random.Generator(np.random.PCG64(11))
        uo = rng.standard_normal(6)
        ui = rng.standard_normal(5)
        spatial = rng.standard_normal((3, 3))
        w4 = np.einsum("o,i,hw->oihw", uo, ui, spatial)
        f = tucker2_fit(w4, 1, 1, sweeps=2)
        recon = tucker2_recompose(f)
        assert np.linalg.norm(recon - w4) <= 1e-8 * np.linalg.norm(w4)

    def test_full_rank_exact(self):
        rng = np.random.Generator(np.random.PCG64(12))
        w4 = rng.standard_normal((4, 3, 3, 3))
        f = tucker2_fit(w4, 4, 3, sweeps=1)
        recon = tucker2_recompose(f)
        assert np.linalg.norm(recon - w4) <= 1e-8 * np.linalg.norm(w4)

    def test_orthonormal_factors(self):
        rng = np.random.Generator(np.random.PCG64(13))
        w4 = rng.standard_normal((6, 5, 3, 3))
        f = tucker2_fit(w4, 3, 2, sweeps=3)
        assert np.allclose(f.u.T @ f.u, np.eye(3), atol=1e-8)
        assert np.allclose(f.v.T @ f.v, np.eye(2), atol=1e-8)

    def test_error_monotone_in_sweeps(self):
        rng = np.random.Generator(np.random.PCG64(14))
        w4 = rng.standard_normal((6, 5, 3, 3))
        errs = []
        for sweeps in range(5):
            f = tucker2_fit(w4, 3, 2, sweeps=sweeps)
            errs.append(np.linalg.norm(tucker2_recompose(f) - w4))
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-10

    def test_rank_validation(self):
        # tucker2_fit trusts its ranks; from_conv, its caller, clamps each
        # to the rank of its channel unfolding, so every fitted pair is in
        # range, 1x1 bottlenecks included, and recovers the kernel
        shapes = [(4, 3, 3, 3), (4, 8, 1, 1), (8, 4, 1, 1), (1, 5, 3, 3),
                  (6, 1, 3, 1)]
        for seed, (c_out, c_in, kh, kw) in enumerate(shapes):
            w4 = _rand(c_out, c_in * kh * kw, 20 + seed).reshape(
                c_out, c_in, kh, kw)
            f = elastic.from_conv(w4).factors
            r_out, r_in = f.core.shape[:2]
            assert 1 <= r_out <= min(c_out, r_in * kh * kw)
            assert 1 <= r_in <= min(c_in, r_out * kh * kw)
            assert np.allclose(tucker2_recompose(f), w4, rtol=0.0,
                               atol=1e-12)
