"""The two-kernel scalar aerial-image model."""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import correlate1d, gaussian_filter

from repro.geometry import Rect, Region
from repro.litho.raster import Cells, Runs, raster_cells, raster_to_region, rasterize
from repro.obs import get_registry, names
from repro.tech.technology import LithoSettings

# unit roundoff of float64
_U = float(np.finfo(np.float64).eps) / 2
# output lines per block of the factored product (LithoModel._blur_factored)
_BLOCK = 32


def _gamma(m: int) -> float:
    """Higham's ``gamma(m) = m u / (1 - m u)``: the relative error bound
    of ``m`` roundings (of a sum of ``m + 1`` terms, say)."""
    return m * _U / (1.0 - m * _U)


def _gaussian_taps(sigma: float) -> np.ndarray:
    """The 1-D taps ``scipy.ndimage.gaussian_filter`` applies at ``sigma``.

    Truncated at ``int(4 * sigma + 0.5)`` (scipy's default ``truncate``)
    and normalised to sum 1 by the same float operations in the same
    order, so the taps are bit-identical to scipy's own.
    """
    radius = int(4.0 * float(sigma) + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    return phi / phi.sum()


class LithoModel:
    """Aerial-image simulator for a litho settings object.

    Intensity model::

        I = (1 + flare) * G[sigma](mask) - flare * G[flare_ratio * sigma](mask)

    where ``sigma`` combines the optical PSF width and defocus blur in
    quadrature.  A clear field prints at intensity 1.0; the printed
    contour is ``I * dose >= resist_threshold``.
    """

    def __init__(
        self,
        settings: LithoSettings | None = None,
        flare: float = 0.35,
        flare_ratio: float = 3.0,
    ):
        self.settings = settings or LithoSettings()
        self.flare = flare
        self.flare_ratio = flare_ratio

    # -- derived quantities --------------------------------------------------
    def blur_sigma_nm(self, defocus_nm: float = 0.0) -> float:
        s0 = self.settings.psf_sigma_nm
        sd = self.settings.defocus_sigma_nm(defocus_nm)
        return math.hypot(s0, sd)

    def halo_nm(self, defocus_nm: float = 0.0) -> int:
        """Guard band needed around a simulation window: 2.5x the widest
        kernel (residual tail < 2% of the flare term)."""
        return int(math.ceil(2.5 * self.flare_ratio * self.blur_sigma_nm(defocus_nm)))

    def _halo_px(self, defocus_nm: float, grid: int) -> int:
        """The halo in whole pixels (rounded up to the pixel grid)."""
        return -(-self.halo_nm(defocus_nm) // grid)

    def _blur(self, raster: np.ndarray, sigma_px: float) -> np.ndarray:
        """The intensity field of a raster: main PSF minus flare kernel."""
        main = gaussian_filter(raster, sigma_px, mode="constant")
        wide = gaussian_filter(raster, sigma_px * self.flare_ratio, mode="constant")
        return (1.0 + self.flare) * main - self.flare * wide

    def _blur_factored(
        self, runs: Runs, sigma_px: float, trim: int
    ) -> tuple[np.ndarray, float]:
        """:meth:`_blur` inside a ``trim``-pixel border as a sum of small
        products over a raster's maximal runs of identical lines
        (:meth:`Cells.runs <repro.litho.raster.Cells.runs>`, read off
        the raster's cells), and a bound ``delta`` on its distance from
        :meth:`_blur`'s image at any pixel.

        A raster whose lines (rows, or columns when those have fewer
        runs) come in ``k`` non-empty runs of identical consecutive
        lines is the sum, over runs ``c`` of lines ``[s_c, e_c)`` with
        content ``L_c``, of the run's indicator times ``L_c``.  A
        separable kernel ``t x t`` maps each term to ``(t * indicator)
        x (t * L_c)``, so each kernel's image is a product ``A B``:

        * ``A[i, c]``, the blurred indicator at output line ``i``, is a
          sum of consecutive taps, ``C[e_c - i + r] - C[s_c - i + r]``
          with ``C`` the running tap sums (``C[0] = 0``, indices clipped
          to ``[0, n]`` for ``n = 2r + 1`` taps);
        * ``B[c]`` is ``L_c`` correlated with the taps by scipy's
          ``correlate1d`` (zero boundary, as ``mode="constant"``).

        Runs that repeat a line share one ``B`` row: their ``A``
        columns are added.  This is :meth:`_blur`'s linear operator,
        the same :func:`_gaussian_taps` and zero boundary, summed in
        another order.  The product is formed with ``np.einsum``, in
        blocks of ``_BLOCK`` output lines over the columns of ``A``
        that are non-zero in the block (``A`` is banded: a run reaches
        ``r`` lines past its ends).  Not with a BLAS product: pooled
        scans pin each worker to one CPU, and OpenBLAS's helper threads
        spin on it after every call.

        The cost grows with the runs.  Drawn layout is cheap: a tile of
        the benchmark's designs has at most 65 runs along its factored
        axis.  A raster whose every line differs costs about a direct
        separable convolution: about 100 ms at 716x756 pixels on a
        two-vCPU host, where a padded 2-D FFT takes 20-30 ms.

        ``delta`` is derived to first order in the unit roundoff ``u``,
        with ``gamma(m) = m u / (1 - m u)`` the bound of ``m``
        roundings, ``K = 1 + 2 |flare|`` the kernel's L1 norm (the taps
        sum to 1) and ``I`` the exact convolution of the raster with
        the float taps:

        * Product side.  Every quantity is non-negative but the two
          kernel weights ``w`` (``1 + flare`` and ``-flare``): the taps
          sum to 1 and the coverage lies in ``[0, 1]``, so every ``B``
          entry and every row sum of ``A`` is at most 1.  Per kernel,
          with ``n`` taps: ``C`` is a running sum of at most ``n`` taps,
          each entry off by at most ``gamma(n)``; an ``A`` entry is the
          difference of two, off by at most ``2 gamma(n)`` plus one
          rounding of itself.  A row of ``A`` has at most ``k`` non-zero
          entries (an entry out of reach clips both indices to one end
          and is exactly 0), so the ``A`` errors move a pixel by at most
          ``2 k gamma(n) + u``.  Adding the columns of runs that share a
          line is a sum of at most ``k`` non-negative terms:
          ``gamma(k)``; the weight's product: ``u``.  A ``B`` entry sums
          ``n`` tap products over values of at most 1 (as scipy's pass
          below): off by at most ``gamma(n)``, which ``A``'s row sum
          carries to the pixel.  So a kernel's terms err by at most
          ``|w| (2 k gamma(n) + gamma(n) + gamma(k) + 2u)``.  Each pixel
          then sums the ``M`` products of its block's columns (both
          kernels, ``M`` at most twice the distinct lines) in some
          order, which adds at most ``gamma(M) K``.
        * scipy side.  Each of scipy's 1-D passes sums ``2r + 1`` tap
          products per pixel over values of magnitude at most 1 (the
          coverage, then a first pass's output), which errs by at most
          ``gamma(2r + 1)`` (its tap-sum rounding).  Two passes per
          kernel and the three roundings of the flare combination give
          ``|I - I_scipy| <= K (2 gamma(2 reach + 1) + 3u)``, ``reach``
          the wider kernel's tap radius.

        ``delta`` is the sum of the two.
        """
        f = self.flare
        kernels = (
            (1.0 + f, _gaussian_taps(sigma_px)),
            (-f, _gaussian_taps(sigma_px * self.flare_ratio)),
        )
        reach = max(len(taps) for _, taps in kernels) // 2
        transpose, starts, content, n0 = runs
        n1 = content.shape[1]
        m0, m1 = n0 - 2 * trim, n1 - 2 * trim
        ends = np.append(starts[1:], n0)
        filled = content.any(axis=1)  # an empty run adds nothing
        starts, ends, content = starts[filled], ends[filled], content[filled]
        k = len(starts)
        seen: dict[bytes, int] = {}
        line_of = np.array(
            [seen.setdefault(line.tobytes(), len(seen)) for line in content], dtype=np.intp
        )
        distinct = content[np.unique(line_of, return_index=True)[1]]

        l1 = 1.0 + 2.0 * abs(f)
        err = l1 * (2.0 * _gamma(2 * reach + 1) + 3.0 * _U)
        if k == 0:
            return np.zeros((m1, m0) if transpose else (m0, m1)), err
        by_line = np.argsort(line_of, kind="stable")
        groups = np.searchsorted(line_of[by_line], np.arange(len(distinct)))
        factors, lined = [], []
        for w, taps in kernels:
            n = len(taps)
            r = n // 2
            cum = np.concatenate(([0.0], np.cumsum(taps)))
            # ramp[q] = C[clip(n0 - q + r, 0, n)]: its window at n0 + trim
            # - e holds C[clip(e - i + r, 0, n)] over the output lines i =
            # trim, trim + 1, ..., so A's column is two windows' difference
            ramp = cum[np.clip(np.arange(n0, -n0 - 1, -1) + r, 0, n)]
            windows = sliding_window_view(ramp, m0)
            a = windows[n0 + trim - ends] - windows[n0 + trim - starts]
            if len(distinct) < k:
                a = np.add.reduceat(a[by_line], groups, axis=0)
            a *= w
            factors.append(a)
            lined.append(correlate1d(distinct, taps, axis=1, mode="constant")[:, trim : n1 - trim])
            err += abs(w) * (2 * k * _gamma(n) + _gamma(n) + _gamma(k) + 2.0 * _U)
        at = np.concatenate(factors)  # (kernel, distinct line) x output line
        b = np.concatenate(lined)
        image = np.empty((m0, m1))
        terms = 0
        for i0 in range(0, m0, _BLOCK):
            block = at[:, i0 : i0 + _BLOCK]
            used = np.flatnonzero(block.any(axis=1))
            terms = max(terms, len(used))
            # a block out of every run's reach sums no terms: zeros
            np.einsum("ci,cj->ij", block[used], b[used], out=image[i0 : i0 + _BLOCK])
        err += _gamma(terms) * l1
        if transpose:
            image = np.ascontiguousarray(image.T)
        return image, err

    # -- core simulation --------------------------------------------------------
    def aerial_image(
        self,
        mask: Region,
        window: Rect,
        defocus_nm: float = 0.0,
        grid: int | None = None,
    ) -> np.ndarray:
        """Aerial intensity over ``window``.

        The mask is rasterized over the window expanded by the optical
        halo (:meth:`halo_nm`, 7.5 sigma), so geometry just outside the
        window still images into it.  The flare kernel reaches 12 sigma,
        past the halo: mask beyond the halo is not seen, a residual tail
        below 2% of the flare term.
        """
        g = grid or self.settings.grid_nm
        trim = self._halo_px(defocus_nm, g)
        halo = trim * g
        big = Rect(window.x0 - halo, window.y0 - halo, window.x1 + halo, window.y1 + halo)
        raster = rasterize(mask, big, g)
        image = self._blur(raster, self.blur_sigma_nm(defocus_nm) / g)
        return image[trim:-trim or None, trim:-trim or None]

    def print_image(
        self,
        mask: Region,
        window: Rect,
        dose: float = 1.0,
        defocus_nm: float = 0.0,
        grid: int | None = None,
    ) -> np.ndarray:
        """Boolean printed raster at the given process condition.

        ``dose`` must be a positive number: ``ValueError`` otherwise,
        NaN included."""
        if not dose > 0:
            raise ValueError("dose must be positive")
        image = self.aerial_image(mask, window, defocus_nm, grid)
        return image * dose >= self.settings.resist_threshold

    def print_contour(
        self,
        mask: Region,
        window: Rect,
        dose: float = 1.0,
        defocus_nm: float = 0.0,
        grid: int | None = None,
    ) -> Region:
        """Printed geometry as a Region (pixel-resolution contour)."""
        g = grid or self.settings.grid_nm
        printed = self.print_image(mask, window, dose, defocus_nm, g)
        return raster_to_region(printed, window, g)

    def sim_cache(
        self,
        mask: Region,
        window: Rect,
        grid: int | None = None,
        defocus_hint: tuple[float, ...] | list[float] = (),
    ) -> "SimCache":
        """A :class:`SimCache` for repeated simulation of one window.

        ``defocus_hint`` lists the defocus values the caller intends to
        simulate, so the mask is rasterized exactly once, at the widest
        halo any of them needs.
        """
        return SimCache(self, mask, window, grid, defocus_hint)

    def measure_cd(
        self,
        mask: Region,
        cut,
        dose: float = 1.0,
        defocus_nm: float = 0.0,
        grid: int | None = None,
        reach_nm: int = 400,
    ) -> float:
        """Sub-pixel printed CD at a cutline (see litho.cd.subpixel_cd).

        Simulates a small strip window around the cut (``reach_nm`` each
        way along the cut direction) — cheap enough for dose/focus sweeps.
        ``dose`` must be a positive number, as for :meth:`print_image`.
        """
        from repro.litho.cd import subpixel_cd

        if not dose > 0:
            raise ValueError("dose must be positive")
        g = grid or self.settings.grid_nm
        x, y = cut.at.x, cut.at.y
        if cut.horizontal:
            window = Rect(x - reach_nm, y - 4 * g, x + reach_nm, y + 4 * g)
        else:
            window = Rect(x - 4 * g, y - reach_nm, x + 4 * g, y + reach_nm)
        image = self.aerial_image(mask, window, defocus_nm, g)
        threshold = self.settings.resist_threshold / dose
        return subpixel_cd(image, window, g, cut, threshold)


class SimCache:
    """Unique-condition reuse for one (mask, window, grid) simulation.

    Process-corner and process-window sweeps re-simulate the same mask
    over the same window at many (dose, defocus) conditions, but the
    expensive work depends on far fewer degrees of freedom:

    * the mask raster depends only on the window and grid — the cache
      holds it as its constant cells (:class:`repro.litho.raster.Cells`,
      never the pixel array), built once at the widest halo requested,
      and serves every narrower halo by trimming those cells when the
      window is a whole number of pixels on both axes (exact, because
      :func:`repro.litho.raster.raster_cells` accumulates integer
      areas, making rasters slice-invariant across pixel-aligned
      windows); an unaligned window clips its last pixel row and column
      at each halo's own edge, so its cells are built once per halo
      instead;
    * the aerial image depends only on the blur sigma — ±defocus
      collapse under ``hypot``, so the cache computes one intensity
      image per unique sigma, a product over the raster's runs of
      identical lines, which the cells hand over without a pixel scan
      (:meth:`LithoModel._blur_factored`), counted by
      ``sim.blur_unique``;
    * dose only scales the resist threshold — thresholding a cached
      aerial image is nearly free.

    A five-corner sweep therefore costs 1 rasterization and 2 blurred
    images instead of 5 rasterizations and 10 Gaussian filters, and a
    5x3 process-window grid costs 1 and 3 instead of 15 and 30.  Every
    printed raster is bit-identical to the uncached :class:`LithoModel`
    methods: :meth:`print_image` certifies each pixel's threshold
    decision against the image's error bound and takes the few it
    cannot certify from the scipy image — asserted by the fast-path
    equivalence tests.  :meth:`aerial_image` stays the scipy image of
    the expanded cells, bit-identical to :meth:`LithoModel.aerial_image`.
    """

    def __init__(
        self,
        model: LithoModel,
        mask: Region,
        window: Rect,
        grid: int | None = None,
        defocus_hint: tuple[float, ...] | list[float] = (),
    ):
        self.model = model
        self.mask = mask
        self.window = window
        self.grid = grid or model.settings.grid_nm
        if self.grid <= 0:
            raise ValueError("grid must be positive")
        self._aligned = (window.x1 - window.x0) % self.grid == 0 and (
            window.y1 - window.y0
        ) % self.grid == 0
        self._cells: Cells | None = None
        self._cells_halo_px = 0
        self._images: dict[float, np.ndarray] = {}  # blur sigma (nm) -> scipy image
        # blur sigma (nm) -> (certified image, its error bound)
        self._certified: dict[float, tuple[np.ndarray, float]] = {}
        if defocus_hint:
            self._cells_halo_px = max(
                model._halo_px(d, self.grid) for d in defocus_hint
            )

    def _raster_for(self, halo_px: int) -> Cells:
        """The cells of the mask raster over the window expanded by
        ``halo_px`` pixels."""
        cells, held = self._cells, self._cells_halo_px
        if cells is not None and (held == halo_px or (self._aligned and held > halo_px)):
            get_registry().inc(names.SIM_RASTER_REUSE)
        else:
            held = max(halo_px, held) if self._aligned else halo_px
            halo = held * self.grid
            w = self.window
            big = Rect(w.x0 - halo, w.y0 - halo, w.x1 + halo, w.y1 + halo)
            cells = self._cells = raster_cells(self.mask, big, self.grid)
            self._cells_halo_px = held
        # exact thanks to integer-area rasterization (see raster.py)
        return cells.trimmed(held - halo_px)

    def aerial_image(self, defocus_nm: float = 0.0) -> np.ndarray:
        """Aerial intensity over the window; bit-identical to
        :meth:`LithoModel.aerial_image` at the same condition."""
        sigma = self.model.blur_sigma_nm(defocus_nm)
        image = self._images.get(sigma)
        if image is None:
            g = self.grid
            trim = self.model._halo_px(defocus_nm, g)
            image = self.model._blur(self._raster_for(trim).expand(), sigma / g)
            image = image[trim:-trim or None, trim:-trim or None]
            self._images[sigma] = image
            get_registry().inc(names.SIM_BLUR_UNIQUE)
        return image

    def _certified_image(self, defocus_nm: float) -> tuple[np.ndarray, float]:
        """The factored intensity image over the window and its error
        bound (:meth:`LithoModel._blur_factored`)."""
        sigma = self.model.blur_sigma_nm(defocus_nm)
        entry = self._certified.get(sigma)
        if entry is None:
            trim = self.model._halo_px(defocus_nm, self.grid)
            runs = self._raster_for(trim).runs()
            entry = self.model._blur_factored(runs, sigma / self.grid, trim)
            self._certified[sigma] = entry
            get_registry().inc(names.SIM_BLUR_UNIQUE)
        return entry

    def print_image(self, dose: float = 1.0, defocus_nm: float = 0.0) -> np.ndarray:
        """Boolean printed raster at the given process condition;
        bit-identical to :meth:`LithoModel.print_image`.

        Pixels are thresholded on the certified image, the factored
        product.  One whose intensity there lies within the image's
        error bound of the cut ``resist_threshold / dose`` could decide
        either way; if there are any, their decisions come from the
        scipy image (:meth:`aerial_image`) and the condition counts one
        ``sim.exact_fallback``.
        """
        if not dose > 0:
            raise ValueError("dose must be positive")
        image, delta = self._certified_image(defocus_nm)
        threshold = self.model.settings.resist_threshold
        cut = threshold / dose
        # widened by a few ulps of the cut for the rounding of ``cut``
        # itself and of the reference's ``image * dose`` near it
        band = delta + 8 * _U * abs(cut)
        printed = image > cut + band
        unprinted = image < cut - band
        if np.count_nonzero(printed) + np.count_nonzero(unprinted) < image.size:
            unsure = ~(printed | unprinted)
            exact = self.aerial_image(defocus_nm)
            printed[unsure] = exact[unsure] * dose >= threshold
            get_registry().inc(names.SIM_EXACT_FALLBACK)
        return printed

    def print_contour(self, dose: float = 1.0, defocus_nm: float = 0.0) -> Region:
        """Printed geometry as a Region (pixel-resolution contour)."""
        printed = self.print_image(dose, defocus_nm)
        return raster_to_region(printed, self.window, self.grid)


def simulate(
    mask: Region,
    window: Rect,
    settings: LithoSettings | None = None,
    dose: float = 1.0,
    defocus_nm: float = 0.0,
) -> Region:
    """Convenience one-shot: printed contour of a mask region."""
    return LithoModel(settings).print_contour(mask, window, dose, defocus_nm)
