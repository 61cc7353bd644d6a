"""Tests for template matching and viewport localisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.raster.stacks import stack_registry
from repro.raster.text import render_text_line
from repro.vision.image import Image
from repro.vision.match import (
    MatchResult,
    best_horizontal_offset,
    best_vertical_offset,
    match_template,
    normalized_cross_correlation,
    vertical_ncc_scores,
)


def _page_with_sections() -> Image:
    page = Image.blank(200, 600)
    page.paste(render_text_line("SECTION A", 20), 10, 100)
    page.paste(render_text_line("SECTION B", 20), 10, 400)
    return page


class TestNCC:
    def test_identical_patches_score_one(self):
        rng = np.random.default_rng(0)
        patch = rng.uniform(0, 255, (16, 16))
        assert normalized_cross_correlation(patch, patch) == pytest.approx(1.0)

    def test_affine_intensity_invariance(self):
        rng = np.random.default_rng(1)
        patch = rng.uniform(0, 255, (16, 16))
        assert normalized_cross_correlation(patch, 0.5 * patch + 30) == pytest.approx(1.0)

    def test_inverted_patch_scores_minus_one(self):
        rng = np.random.default_rng(2)
        patch = rng.uniform(0, 255, (16, 16))
        assert normalized_cross_correlation(patch, -patch) == pytest.approx(-1.0)

    def test_constant_patches_fallback(self):
        a = np.full((8, 8), 100.0)
        assert normalized_cross_correlation(a, a + 1.0) == 1.0
        assert normalized_cross_correlation(a, a + 50.0) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            normalized_cross_correlation(np.zeros((4, 4)), np.zeros((5, 4)))


class TestViewportSearch:
    def test_exact_crop_found_at_offset(self):
        page = _page_with_sections()
        frame = page.crop(0, 380, 200, 120)
        result = best_vertical_offset(frame, page)
        assert result.offset == 380
        assert result.score == pytest.approx(1.0)

    def test_cross_stack_crop_found_nearby(self):
        page = _page_with_sections()
        stack = stack_registry()[3]
        client = Image.blank(200, 600, stack.background)
        client.paste(render_text_line("SECTION A", 20, stack=stack), 10, 100)
        client.paste(render_text_line("SECTION B", 20, stack=stack), 10, 400)
        frame = client.crop(0, 380, 200, 120)
        result = best_vertical_offset(frame, page)
        assert abs(result.offset - 380) <= 2
        assert result.score > 0.9

    def test_stride_coarse_search_still_finds_offset(self):
        page = _page_with_sections()
        # An odd offset whose window contains SECTION A.
        frame = page.crop(0, 93, 200, 120)
        result = best_vertical_offset(frame, page)
        assert result.offset == 93

    def test_blank_frame_matches_some_blank_window(self):
        page = _page_with_sections()
        frame = page.crop(0, 233, 200, 120)  # all-background window
        result = best_vertical_offset(frame, page)
        matched = page.crop(0, result.offset, 200, 120)
        assert matched.equals(frame, tolerance=1.0)

    def test_full_height_frame_offset_zero(self):
        page = _page_with_sections()
        result = best_vertical_offset(page, page)
        assert result.offset == 0
        assert result.score == pytest.approx(1.0)

    def test_width_mismatch_raises(self):
        page = _page_with_sections()
        with pytest.raises(ValueError):
            best_vertical_offset(Image.blank(100, 50), page)

    def test_frame_taller_than_page_raises(self):
        page = _page_with_sections()
        with pytest.raises(ValueError):
            best_vertical_offset(Image.blank(200, 700), page)

    def test_horizontal_variant(self):
        strip = Image.blank(600, 40)
        strip.paste(render_text_line("LEFT", 16), 20, 10)
        strip.paste(render_text_line("RIGHT", 16), 480, 10)
        window = strip.crop(460, 0, 120, 40)
        result = best_horizontal_offset(window, strip)
        assert result.offset == 460


def _brute_scores(frame, page):
    n = frame.shape[0]
    return np.array(
        [normalized_cross_correlation(frame, page[o : o + n]) for o in range(page.shape[0] - n + 1)]
    )


def _search_case(seed, kind):
    """A ``(frame, page)`` pair of integer-valued pixels, as rasters are."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(3, 24))
    n = int(rng.integers(2, 24))
    height = n + int(rng.integers(0, 90))
    page = rng.integers(0, 256, (height, width)).astype(float)
    if kind == "periodic":
        # A tall form's label + box + spacing repeating down the page.
        period = rng.integers(0, 256, (int(rng.integers(2, 12)), width)).astype(float)
        page = np.resize(period, (height, width))
    elif kind == "blank-strips":
        for _ in range(int(rng.integers(1, 4))):
            y = int(rng.integers(0, height))
            page[y : y + n + int(rng.integers(0, 20))] = 252.0
    elif kind == "letterbox":
        # A page shorter than the display, padded with background rows.
        page[height - int(rng.integers(1, n + 1)) :] = 252.0
    off = int(rng.integers(0, height - n + 1))
    frame = page[off : off + n].copy()
    if rng.random() < 0.5:
        frame += rng.integers(-3, 4, frame.shape)
    return frame, page


class TestExactSearch:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["random", "periodic", "blank-strips", "letterbox"]),
    )
    def test_equals_brute_force_ncc_at_every_offset(self, seed, kind):
        frame, page = _search_case(seed, kind)
        scores = vertical_ncc_scores(frame, page)
        brute = _brute_scores(frame, page)
        assert scores.shape == brute.shape
        assert np.all(np.abs(scores) <= 1.0)
        np.testing.assert_allclose(scores, brute, rtol=0.0, atol=1e-9)
        result = best_vertical_offset(frame, page)
        assert result.offset == int(np.argmax(scores))
        assert result.score >= brute.max() - 1e-9

    def test_blank_strip_ties_go_to_lowest_offset(self):
        page = np.full((300, 16), 252.0)
        page[100:140] = np.random.default_rng(3).integers(0, 256, (40, 16))
        frame = np.full((30, 16), 252.0)
        scores = vertical_ncc_scores(frame, page)
        assert set(np.unique(scores)) == {0.0, 1.0}
        assert best_vertical_offset(frame, page) == MatchResult(0, 1.0)
        # Past the content every window ties again; the lowest one wins.
        assert best_vertical_offset(frame, page[100:]).offset == 40

    def test_periodic_layout_finds_a_true_maximum(self):
        # Every window of a periodic page has a near-twin a period away.
        # A coarse-to-fine search picks an alias here (stride 2: offset
        # 278, stride 8: offset 153); the exhaustive search cannot.
        rng = np.random.default_rng(4)
        page = np.resize(rng.integers(0, 256, (60, 32)).astype(float), (600, 32))
        page[::60, :4] = np.arange(10)[:, None] * 20.0  # tell the repeats apart
        frame = page[213:333] + rng.normal(0.0, 1.0, (120, 32))
        assert best_vertical_offset(frame, page).offset == 213


class TestNumericalRegression:
    def _tall_page(self):
        # High-contrast rows with a constant band in the middle of a
        # ~4000-row page: the running sums are large where the band sits.
        rng = np.random.default_rng(11)
        page = np.where(rng.random((4000, 48)) < 0.5, 0.0, 255.0)
        page[2000:2300] = 252.0
        return page

    def test_constant_window_gets_the_fallback_score(self):
        page = self._tall_page()
        band = range(2000, 2300 - 120 + 1)
        content = page[1000:1120] + np.random.default_rng(12).normal(0.0, 1.0, (120, 48))
        scores = vertical_ncc_scores(content, page)
        # Not within 2 levels of the band: the fallback says 0.0 exactly.
        assert np.all(scores[band] == 0.0)
        assert best_vertical_offset(content, page).offset == 1000
        # A near-blank frame within 2 levels of the band: 1.0 exactly.
        near_blank = np.full((120, 48), 252.0)
        near_blank[::7, ::5] = 251.0
        scores = vertical_ncc_scores(near_blank, page)
        assert np.all(scores[band] == 1.0)
        for off in (1999, 2000, 2090, 2180, 2181):
            direct = normalized_cross_correlation(near_blank, page[off : off + 120])
            assert scores[off] == pytest.approx(direct, rel=0.0, abs=1e-9)
        assert best_vertical_offset(near_blank, page) == MatchResult(2000, 1.0)


class TestTemplateMatch:
    def test_finds_all_instances_with_nms(self):
        canvas = Image.blank(64, 64)
        template = Image.blank(6, 6, 0.0)
        template.pixels[2:4, 2:4] = 255.0
        canvas.paste(template, 5, 5)
        canvas.paste(template, 40, 30)
        hits = match_template(canvas, template, threshold=0.99)
        positions = {(x, y) for x, y, _ in hits}
        assert (5, 5) in positions
        assert (40, 30) in positions
        assert len(hits) == 2

    def test_no_hits_below_threshold(self):
        canvas = Image.blank(32, 32, 255.0)
        template = Image(np.random.default_rng(5).uniform(0, 255, (8, 8)))
        assert match_template(canvas, template, threshold=0.9) == []

    def test_oversized_template_returns_empty(self):
        assert match_template(Image.blank(4, 4), Image.blank(8, 8)) == []
