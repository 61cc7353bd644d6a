"""Template matching and viewport localisation.

vWitness determines the browser's current view port by sliding the sampled
frame over the VSPEC's "long" expected appearance and picking the vertical
offset with the best match (paper §III-C1).  Scrollable elements reuse the
same machinery with a horizontal or vertical axis (nested VSPECs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.vision.image import as_array

#: Windows with variance under this fraction of the centred page's sum of
#: squares are below running-sum rounding: they are scored directly.
_FLAT_FRACTION = 1e-5


@dataclass(frozen=True)
class MatchResult:
    """Outcome of a template search.

    Attributes:
        offset: best offset along the searched axis (pixels).
        score: normalized correlation score in [-1, 1]; 1.0 is a perfect
            match up to affine intensity changes.
    """

    offset: int
    score: float


def normalized_cross_correlation(patch_a, patch_b) -> float:
    """Zero-normalized cross-correlation of two same-shape patches.

    Returns 1.0 for patches that are identical up to brightness/contrast,
    and values near 0 for unrelated content.  Two constant patches compare
    by their mean intensity instead (NCC is undefined at zero variance).
    """
    a = as_array(patch_a).ravel()
    b = as_array(patch_b).ravel()
    if a.shape != b.shape:
        raise ValueError(f"NCC requires equal shapes, got {a.shape} vs {b.shape}")
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a @ a) * (b @ b))
    if denom < 1e-12:
        # Both (or one) patches are constant: fall back to intensity match.
        return 1.0 if np.allclose(patch_a, patch_b, atol=2.0) else 0.0
    return float((a @ b) / denom)


def vertical_ncc_scores(frame, long_image) -> np.ndarray:
    """NCC of ``frame`` against every vertical window of ``long_image``.

    Entry ``o`` equals ``normalized_cross_correlation(frame,
    long_image[o : o + frame_height])``, computed for all offsets at once
    with the fast NCC of J. P. Lewis (1995): the numerators are the
    diagonal sums of one GEMM, ``G = L @ (f - f.mean()).T``, and the
    window sums and sums of squares come from cumulative row sums of the
    page centred on its mean (centring keeps the subtraction from
    cancelling catastrophically on tall pages).  Blank and nearly blank
    windows, whose variance the running sums cannot resolve, are scored
    directly, so they keep the constant-strip intensity fallback; a
    constant frame scores every window by that fallback.  Scores are
    clipped to [-1, 1].
    """
    f = as_array(frame)
    page = as_array(long_image)
    n = f.shape[0]
    n_off = page.shape[0] - n + 1
    if f.min() == f.max():
        # Constant frame: a window matches if all its pixels are close.
        bad = np.abs(page - f[0, 0]) > 2.0 + 1e-5 * np.abs(page)
        bad_rows = np.concatenate(([0], np.cumsum(bad.any(axis=1))))
        return (bad_rows[n:] == bad_rows[:n_off]).astype(page.dtype)
    fc = f - f.mean()
    fvar = float(np.vdot(fc, fc))
    lc = page - page.mean()
    g = lc @ fc.T
    diagonals = np.lib.stride_tricks.as_strided(
        g, shape=(n_off, n), strides=(g.strides[0], g.strides[0] + g.strides[1])
    )
    numerator = diagonals.sum(axis=1)
    sums = np.concatenate(([0.0], np.cumsum(lc.sum(axis=1))))
    squares = np.concatenate(([0.0], np.cumsum(np.einsum("ij,ij->i", lc, lc))))
    window_sum = sums[n:] - sums[:n_off]
    wvar = squares[n:] - squares[:n_off] - window_sum * window_sum / f.size
    flat = wvar <= _FLAT_FRACTION * squares[-1]
    scores = numerator / np.sqrt(fvar * np.where(flat, 1.0, wvar))
    for off in np.flatnonzero(flat):
        scores[off] = normalized_cross_correlation(f, page[off : off + n])
    return np.clip(scores, -1.0, 1.0, out=scores)


def best_vertical_offset(frame, long_image) -> MatchResult:
    """Locate ``frame`` inside ``long_image`` by vertical offset.

    ``long_image`` must have the same width as ``frame`` and at least its
    height (the VSPEC expected appearance is rendered at the client width,
    at the page's full height).  The search is exhaustive and exact: it
    returns the offset with the best NCC of all (see
    :func:`vertical_ncc_scores`), and ties go to the lowest offset.
    """
    f = as_array(frame)
    long_arr = as_array(long_image)
    if f.shape[1] != long_arr.shape[1]:
        raise ValueError(
            f"frame width {f.shape[1]} != expected appearance width {long_arr.shape[1]}"
        )
    if f.shape[0] > long_arr.shape[0]:
        raise ValueError(
            f"frame height {f.shape[0]} exceeds expected appearance height {long_arr.shape[0]}"
        )
    if f.shape[0] == long_arr.shape[0]:
        return MatchResult(0, normalized_cross_correlation(f, long_arr))
    scores = vertical_ncc_scores(f, long_arr)
    offset = int(np.argmax(scores))
    return MatchResult(offset, float(scores[offset]))


def best_horizontal_offset(frame, wide_image) -> MatchResult:
    """Horizontal analogue of :func:`best_vertical_offset` (scrollable rows)."""
    return best_vertical_offset(as_array(frame).T, as_array(wide_image).T)


def match_template(image, template, threshold: float = 0.95) -> list[tuple[int, int, float]]:
    """Find all placements of ``template`` in ``image`` scoring >= threshold.

    Returns ``(x, y, score)`` tuples sorted by descending score, with greedy
    non-maximum suppression so overlapping detections collapse to one.
    Used by POF extraction to find carets and focus-outline corners.
    """
    img = as_array(image)
    tmp = as_array(template)
    th, tw = tmp.shape
    if th > img.shape[0] or tw > img.shape[1]:
        return []
    windows = np.lib.stride_tricks.sliding_window_view(img, (th, tw))
    wh, ww = windows.shape[:2]
    flat = windows.reshape(wh * ww, th * tw)
    t = tmp.ravel() - tmp.mean()
    t_norm = np.sqrt(t @ t)
    means = flat.mean(axis=1, keepdims=True)
    centered = flat - means
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
    if t_norm < 1e-12:
        scores = np.where(norms < 1e-12, 1.0, 0.0)
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = (centered @ t) / (norms * t_norm)
        scores = np.nan_to_num(scores, nan=0.0)
    hits = np.flatnonzero(scores >= threshold)
    ranked = sorted(((float(scores[i]), int(i % ww), int(i // ww)) for i in hits), reverse=True)
    kept: list[tuple[int, int, float]] = []
    for score, x, y in ranked:
        if any(abs(x - kx) < tw and abs(y - ky) < th for kx, ky, _s in kept):
            continue
        kept.append((x, y, score))
    return kept
