"""Independent reference implementations used only to check the package.

Everything in here is deliberately written as straight-line, obvious code
(or delegates to numpy/scipy reference routines) so it shares no code path
with src/. Slow is fine.
"""

import itertools

import numpy as np
import scipy.special


def jacobi_gram_eigvals(w, iters=20000, tol=1e-14):
    """Eigenvalues of w.T @ w by classical (largest-pivot) Jacobi rotations.

    Shares nothing with the package's LAPACK SVD: picks the single largest
    off-diagonal element each step and never accumulates eigenvectors.
    """
    s = w.T @ w
    s = 0.5 * (s + s.T)
    n = s.shape[0]
    if n == 1:
        return s.ravel().copy()
    fro = np.linalg.norm(s)
    if fro == 0.0:
        return np.zeros(n)
    s = s.copy()
    for _ in range(iters):
        offmask = np.abs(s) - np.diag(np.abs(np.diag(s)))
        np.fill_diagonal(offmask, 0.0)
        p, q = np.unravel_index(np.argmax(offmask), s.shape)
        if abs(s[p, q]) <= tol * fro:
            break
        tau = (s[q, q] - s[p, p]) / (2.0 * s[p, q])
        t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
        c = 1.0 / np.sqrt(1.0 + t * t)
        sn = t * c
        rot = np.eye(n)
        rot[p, p] = c
        rot[q, q] = c
        rot[p, q] = sn
        rot[q, p] = -sn
        s = rot.T @ s @ rot
        s = 0.5 * (s + s.T)
    return np.sort(np.diag(s))[::-1].copy()


def tucker2_recompose(f):
    """Kernel represented by Tucker-2 Factors, by one plain einsum."""
    return np.einsum("rshw,or,is->oihw", f.core, f.u, f.v)


def naive_dense_forward(weights, biases, acts, x, norms=None, residual=None):
    """Plain loop forward pass for a dense [W @ a -> norm -> act] stack.

    acts entries: callables applied elementwise. norms entries: (gamma, beta)
    or None. residual entries: bool per layer (skip connection around the
    whole block). x may be a single vector or a (batch, d) matrix.
    """
    a = np.asarray(x, dtype=np.float64)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    for i, w in enumerate(weights):
        h = a @ w.T
        if biases is not None and biases[i] is not None:
            h = h + biases[i]
        if norms is not None and norms[i] is not None:
            gamma, beta = norms[i]
            h = h * gamma + beta
        h = acts[i](h)
        if residual is not None and residual[i]:
            h = a + h
        a = h
    return a[0] if single else a


def counted_svd_matvec(u, sigma, v, x):
    """Staged factorized matvec with an explicit scalar-op counter.

    Counts one multiply + one add per multiply-accumulate (accumulator
    starts at zero) and one multiply per diagonal scaling, matching the
    widely used 2*n-flops-per-length-n-dot convention. Returns (y, flops).
    """
    k = sigma.shape[0]
    n = v.shape[0]
    m = u.shape[0]
    flops = 0
    t = np.zeros(k)
    for j in range(k):
        acc = 0.0
        for i in range(n):
            acc += v[i, j] * x[i]
            flops += 2
        t[j] = acc
    for j in range(k):
        t[j] = t[j] * sigma[j]
        flops += 1
    y = np.zeros(m)
    for o in range(m):
        acc = 0.0
        for j in range(k):
            acc += u[o, j] * t[j]
            flops += 2
        y[o] = acc
    return y, flops


def counted_tucker2_conv(u_out, core, u_in, x):
    """Staged Tucker-2 convolution (stride 1, same zero padding) with a
    scalar-op counter. Every kernel tap at every output position counts as
    one multiply-accumulate (2 flops), including taps over the zero padding,
    so the count matches the closed-form 2*H*W*(C_i r_i + r_o r_i h w + C_o r_o).

    x: (c_in, H, W). Returns (y, flops) with y (c_out, H, W).
    """
    c_out, r_out = u_out.shape
    c_in, r_in = u_in.shape
    _, _, kh, kw = core.shape
    _, hh, ww = x.shape
    flops = 0
    # stage 1: 1x1 channel reduction
    t1 = np.zeros((r_in, hh, ww))
    for s in range(r_in):
        for yy in range(hh):
            for xx in range(ww):
                acc = 0.0
                for ci in range(c_in):
                    acc += u_in[ci, s] * x[ci, yy, xx]
                    flops += 2
                t1[s, yy, xx] = acc
    # stage 2: small spatial conv on the reduced channels
    ph, pw = kh // 2, kw // 2
    t2 = np.zeros((r_out, hh, ww))
    for r in range(r_out):
        for yy in range(hh):
            for xx in range(ww):
                acc = 0.0
                for s in range(r_in):
                    for dy in range(kh):
                        for dx in range(kw):
                            sy = yy + dy - ph
                            sx = xx + dx - pw
                            val = (
                                t1[s, sy, sx]
                                if 0 <= sy < hh and 0 <= sx < ww
                                else 0.0
                            )
                            acc += core[r, s, dy, dx] * val
                            flops += 2
                t2[r, yy, xx] = acc
    # stage 3: 1x1 channel expansion
    y = np.zeros((c_out, hh, ww))
    for co in range(c_out):
        for yy in range(hh):
            for xx in range(ww):
                acc = 0.0
                for r in range(r_out):
                    acc += u_out[co, r] * t2[r, yy, xx]
                    flops += 2
                y[co, yy, xx] = acc
    return y, flops


def naive_conv2d_same(x, kernel):
    """Quadruple-loop stride-1 zero-padded conv, output size = input size.

    x is (batch, c_in, h, w); kernel is (c_out, c_in, kh, kw) with odd
    sides. Scalar accumulation per output pixel, no vectorization.
    """
    x = np.asarray(x, dtype=np.float64)
    k = np.asarray(kernel, dtype=np.float64)
    b, c, hh, ww = x.shape
    o, _, kh, kw = k.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((b, o, hh, ww))
    for bi in range(b):
        for oi in range(o):
            for y in range(hh):
                for xx in range(ww):
                    acc = 0.0
                    for ci in range(c):
                        for dy in range(kh):
                            for dx in range(kw):
                                yy = y + dy - ph
                                xx2 = xx + dx - pw
                                if 0 <= yy < hh and 0 <= xx2 < ww:
                                    acc += k[oi, ci, dy, dx] * x[bi, ci, yy, xx2]
                    out[bi, oi, y, xx] = acc
    return out

def conv_matrix(kernel, hh, ww):
    """The stride-1 zero-padded conv of an (hh, ww) map with kernel
    (c_out, c_in, kh, kw), odd sides, as one explicit matrix acting on
    the (c_in, hh, ww) input flattened in C order."""
    k = np.asarray(kernel, dtype=np.float64)
    o, c, kh, kw = k.shape
    mat = np.zeros((o, hh, ww, c, hh, ww))
    for y in range(hh):
        for x in range(ww):
            for dy in range(kh):
                for dx in range(kw):
                    yy, xx = y + dy - kh // 2, x + dx - kw // 2
                    if 0 <= yy < hh and 0 <= xx < ww:
                        mat[:, y, x, :, yy, xx] += k[:, :, dy, dx]
    return mat.reshape(o * hh * ww, c * hh * ww)


def _act_apply(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "identity":
        return z
    if name == "gelu":
        return 0.5 * z * (1.0 + scipy.special.erf(z / np.sqrt(2.0)))
    raise ValueError(name)


def _act_derivative(name, z):
    if name == "relu":
        return (z > 0.0).astype(float)
    if name == "identity":
        return np.ones_like(z)
    if name == "gelu":
        cdf = 0.5 * (1.0 + scipy.special.erf(z / np.sqrt(2.0)))
        pdf = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
        return cdf + z * pdf
    raise ValueError(name)


def dense_block_jacobians(weights, biases, gammas, betas, acts, residuals, x):
    """Exact per-block Jacobians of a dense stack at input x, from explicit
    matrices and activation-derivative diagonals only.

    Block map: a -> act(gamma * (W a + b) + beta) (+ a if residual).
    Returns (block_jacobians, post_weight_jacobians) where entry j of the
    first is d out_j / d in_j and of the second is d out_j / d u_j with
    u_j = W_j a + b_j (the signal right after the weight multiply).
    """
    a = np.asarray(x, dtype=np.float64)
    full_jacs, post_w_jacs = [], []
    for j, w in enumerate(weights):
        u = w @ a + (biases[j] if biases[j] is not None else 0.0)
        z = u
        scale = np.ones(u.shape[0])
        if gammas[j] is not None:
            scale = gammas[j]
            z = scale * u + betas[j]
        d = _act_derivative(acts[j], z)
        post_w = np.diag(d * scale)
        full = post_w @ w
        if residuals[j]:
            full = full + np.eye(full.shape[0])
        post_w_jacs.append(post_w)
        full_jacs.append(full)
        h = _act_apply(acts[j], z)
        a = a + h if residuals[j] else h
    return full_jacs, post_w_jacs


def exhaustive_allocation(menus, benefit, cost_of, cap, upper=None):
    """Least-mass menu assignment by enumerating every combination.

    Plain-loop reference: tries every product of per-layer menu positions
    whose entries lie at or below upper (rank and width, width None as
    32), sums mass in layer order, prices the entry list with cost_of, and
    keeps the smallest (mass, cost) among those with cost <= cap. Returns
    (mass, cost, entries), or None when nothing fits.
    """
    def admitted(entry, bound):
        if bound is None:
            return True
        width = 32 if entry[1] is None else entry[1]
        bound_width = 32 if bound[1] is None else bound[1]
        return entry[0] <= bound[0] and width <= bound_width

    bounds = upper if upper is not None else [None] * len(menus)
    best = None
    for picks in itertools.product(*(range(len(m)) for m in menus)):
        entries = [menus[m][i] for m, i in enumerate(picks)]
        if not all(admitted(e, b) for e, b in zip(entries, bounds)):
            continue
        total = cost_of(entries)
        if total > cap:
            continue
        mass = 0.0
        for m, i in enumerate(picks):
            mass += benefit[m][i]
        if best is None or (mass, total) < best[:2]:
            best = (mass, total, entries)
    return best


def straight_line_objective(net, x, y, ranks, lam_sd, lam_aug, lam_cert,
                            epsilon, coeffs, x_aug=None):
    """Four-term training objective replayed with plain numpy.

    Dense SVD stacks only. ranks is the per-layer compressed rank. Returns
    (total, per-term dict) with each term already multiplied by its
    weight.
    """
    from scipy.special import log_softmax

    def run(xb, ks):
        a = xb
        for blk, k in zip(net.blocks, ks):
            f = blk.elastic.factors
            pre = a @ ((f.u[:, :k] * f.core[:k]) @ f.v[:, :k].T).T
            if blk.elastic.bias is not None:
                pre = pre + blk.elastic.bias
            a = _act_apply(blk.activation, pre)
        return a

    full = [b.elastic.k_max for b in net.blocks]
    b_sz = x.shape[0]
    lp_f = log_softmax(run(x, full), axis=-1)
    lp_c = log_softmax(run(x, ranks), axis=-1)
    task = -float(np.mean(lp_f[np.arange(b_sz), y]))
    sd = float(np.sum(np.exp(lp_f) * (lp_f - lp_c)) / b_sz)
    aug = 0.0
    if x_aug is not None:
        la_f = log_softmax(run(x_aug, full), axis=-1)
        la_c = log_softmax(run(x_aug, ranks), axis=-1)
        aug = float(np.sum(np.exp(la_f) * (la_f - la_c)) / b_sz)
    delta = 0.0
    for blk, k, c in zip(net.blocks, ranks, coeffs):
        tail = blk.elastic.factors.core[int(k):blk.elastic.k_max]
        if tail.size:
            delta += float(c) * float(np.max(np.abs(tail)))
    cert = max(0.0, delta - epsilon)
    terms = {"task": task, "self_distill": lam_sd * sd,
             "aug_consistency": lam_aug * aug,
             "drift_cap": lam_cert * cert}
    return sum(terms.values()), terms


def stepwise_round_trip(t, bits):
    """The symmetric max-range quantizer in three separate steps.

    The scale is max|t| / g with g = 2^(bits-1) - 1 the largest code,
    floored at the smallest normal float64, the codes are round(t / s) as
    int64, ties to even, clipped to [-g, g], and the served values are
    code * s. Expects a non-empty finite tensor and bits >= 2; checks
    nothing.
    """
    t = np.asarray(t, dtype=np.float64)
    g = 2 ** (int(bits) - 1) - 1
    s = max(float(np.max(np.abs(t))) / g, np.finfo(np.float64).tiny)
    codes = np.clip(np.rint(t / s), -g, g).astype(np.int64)
    return codes.astype(np.float64) * s
