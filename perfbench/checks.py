"""Output checks that do not trust the code under test.

Served logits are compared with a forward pass written here in plain numpy
from the weights elastic.effective_weight reconstructs, and conservative
certificates are compared with the drift actually observed.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from elastiq import certificate, elastic, manifest, network

LOGIT_RTOL = 1e-10


def _conv_same(x, w):
    kh, kw = w.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return np.einsum("bcyxij,ocij->boyx", win, w)


def reference_logits(net, xs, pairs):
    """Batched logits of net at per-layer (k, q) pairs."""
    a = np.asarray(xs, dtype=np.float64)
    for blk, (k, q) in zip(net.blocks, pairs):
        w = elastic.effective_weight(blk.elastic, k, q)
        conv = blk.is_conv
        pre = _conv_same(a, w) if conv else a @ w.T
        shape = (-1, 1, 1) if conv else (-1,)
        if blk.elastic.bias is not None:
            pre = pre + blk.elastic.bias.reshape(shape)
        if blk.gamma is not None:
            pre = pre * blk.gamma.reshape(shape) + blk.beta.reshape(shape)
        if blk.activation == network.RELU:
            h = np.maximum(pre, 0.0)
        elif blk.activation == network.IDENTITY:
            h = pre
        else:
            raise ValueError(f"no reference for activation "
                             f"{blk.activation!r}")
        a = h + a if blk.residual else h
    return a


def relative_error(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.linalg.norm(got - want)
                 / max(float(np.linalg.norm(want)), 1e-300))


def served_logits_problems(served, rows, outputs):
    """outputs maps profile index -> list of (row index, served logits)."""
    problems = []
    for j, pairs in enumerate(served.profiles):
        got = outputs.get(j)
        if not got:
            problems.append(f"profile {j}: never served, so never checked")
            continue
        idx = [i for i, _ in got]
        ref = reference_logits(served.net, rows[idx], pairs)
        err = relative_error(np.stack([z for _, z in got]), ref)
        if not err <= LOGIT_RTOL:
            problems.append(f"profile {j}: served logits differ from the "
                            f"numpy reference by {err!r} relative")
    return problems


def bound_problems(served, rows):
    """Conservative pointwise bounds must cover the observed drift."""
    stats = manifest.stats_from_doc(served.doc["calibration"])
    problems = []
    for j, pairs in enumerate(served.profiles):
        bound = certificate.pointwise_bound(served.net, stats, pairs, rows)
        drift = network.logit_drift(served.net, rows, pairs)
        short = int(np.sum(bound < drift))
        if short:
            problems.append(f"profile {j}: conservative bound below the "
                            f"observed drift on {short} of {len(rows)} rows")
    return problems


def tightest_bound_over_drift(served, rows):
    """Certified expected bound / mean observed drift of the served profile
    with the largest certified bound."""
    ledger = served.doc["certificate"]["profiles"]
    bounds = [manifest.parse_float(ledger[n]["delta_hat"])
              for n in served.names]
    j = int(np.argmax(bounds))
    drift = network.logit_drift(served.net, rows, served.profiles[j])
    return bounds[j] / float(np.mean(drift))
