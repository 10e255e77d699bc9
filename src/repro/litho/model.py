"""The two-kernel scalar aerial-image model."""

from __future__ import annotations

import math

import numpy as np
import scipy.fft
from scipy.ndimage import gaussian_filter

from repro.geometry import Rect, Region
from repro.litho.raster import raster_to_region, rasterize
from repro.obs import get_registry, names
from repro.tech.technology import LithoSettings

# unit roundoff of float64
_U = float(np.finfo(np.float64).eps) / 2
# bound on the normwise relative error one FFT adds per log2 of its length
# (see LithoModel._blur_fft)
_ETA = 8 * _U


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


def _separable_spectrum(taps: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The ``rfft2`` spectrum over a ``shape`` grid of the 2-D kernel
    ``taps x taps`` centred on pixel (0, 0).

    Taps that overrun a period fold onto it.  The taps are symmetric,
    so the exact spectrum is real and only the real part is kept.
    """
    radius = len(taps) // 2
    axes = []
    for n, transform in zip(shape, (scipy.fft.fft, scipy.fft.rfft)):
        wrapped = np.zeros(n)
        np.add.at(wrapped, np.arange(-radius, radius + 1) % n, taps)
        axes.append(transform(wrapped).real)
    return np.multiply.outer(*axes)


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

    def _blur_fft(
        self, raster: np.ndarray, sigma_px: float, trim: int
    ) -> tuple[np.ndarray, float]:
        """:meth:`_blur` inside a ``trim``-pixel border, as one real 2-D
        FFT convolution, and a bound ``delta`` on its distance from
        :meth:`_blur`'s image at any pixel.

        The raster is zero-padded to a fast FFT length of at least
        ``n + reach - trim`` pixels per axis (``reach`` is the wider
        kernel's tap radius), which keeps wrap-around out of every kept
        pixel, and multiplied in the frequency domain by the rank-2
        spectrum ``(1 + flare) * g[s] x g[s] - flare * g[ratio s] x
        g[ratio s]``, ``g`` the 1-D spectrum of scipy's own taps
        (:func:`_gaussian_taps`).

        ``delta`` is derived, with ``u = 2**-53`` the unit roundoff,
        ``K = 1 + 2 |flare|`` the kernel's L1 norm (the taps sum to 1),
        ``L = log2(P0 * P1)`` for the FFT size ``P0 x P1``, and ``I``
        the exact convolution of the raster with the float taps:

        * FFT side.  A length-``P`` FFT has normwise relative error at
          most ``eta * log2(P)``, ``eta = u + 4u (sqrt(2) + u)/(1 - 4u)``
          (about 6.7u) for radix 2 (Higham, *Accuracy and Stability of
          Numerical Algorithms*, Thm. 24.2); ``eta = 8u`` here covers the
          radix-3/4/5 passes a fast length may use.  A 2-D transform
          adds the two axes' errors: ``eta * L``.  The forward
          transform, the spectrum (each 1-D spectrum entry is off by at
          most ``eta * log2(P)`` times the taps' sum, so ``K`` entries by
          ``K * eta * L``), and the inverse transform each add
          ``eta * L * K * ||raster||_2`` to the 2-norm error of the
          image (the unnormalised DFT scales 2-norms by ``sqrt(P0 P1)``
          and the inverse divides it back out); the three products and
          the ``1 / (P0 P1)`` scaling add ``5u`` more.  The real
          transforms store half the spectrum, which costs at most a
          ``sqrt(2)`` on each side.  A pixel's error is at most the
          image's 2-norm error, so
          ``|I_fft - I| <= 2 (3 eta L + 5u) K ||raster||_2``.
        * scipy side.  Each of scipy's 1-D passes sums ``2r + 1`` tap
          products per pixel over values of magnitude at most 1 (the
          coverage, then a first pass's output), which errs by at most
          ``gamma(2r + 1) = (2r + 1) u / (1 - (2r + 1) u)`` (its tap-sum
          rounding).  Two passes per kernel and the three roundings of
          the flare combination give, to first order in ``u``,
          ``|I - I_scipy| <= K (2 gamma(2 reach + 1) + 3u)``.

        ``delta`` is the sum of the two.  ``scipy.fft`` runs with its
        default single worker, so pooled scans are not oversubscribed.
        """
        f = self.flare
        main_taps = _gaussian_taps(sigma_px)
        wide_taps = _gaussian_taps(sigma_px * self.flare_ratio)
        reach = max(len(main_taps), len(wide_taps)) // 2
        ny, nx = raster.shape
        shape = (
            scipy.fft.next_fast_len(ny + reach - trim, real=True),
            scipy.fft.next_fast_len(nx + reach - trim, real=True),
        )
        kernel = (1.0 + f) * _separable_spectrum(main_taps, shape)
        kernel -= f * _separable_spectrum(wide_taps, shape)
        spectrum = scipy.fft.rfft2(raster, s=shape)
        spectrum *= kernel
        image = scipy.fft.irfft2(spectrum, s=shape, overwrite_x=True)
        # a contiguous copy, so the padded buffers are freed
        image = image[trim : ny - trim, trim : nx - trim].copy()

        l1 = 1.0 + 2.0 * abs(f)
        levels = math.log2(shape[0] * shape[1])
        # einsum, not np.linalg.norm: a BLAS dot would wake BLAS threads
        # that spin on the CPUs a pooled scan's other workers are using
        norm = math.sqrt(np.einsum("ij,ij->", raster, raster))
        fft_err = 2.0 * (3.0 * _ETA * levels + 5.0 * _U) * l1 * norm
        taps = 2 * reach + 1
        scipy_err = l1 * (2.0 * taps * _U / (1.0 - taps * _U) + 3.0 * _U)
        return image, fft_err + scipy_err

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
        """Boolean printed raster at the given process condition."""
        if dose <= 0:
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
        """
        from repro.litho.cd import subpixel_cd

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
      rasterizes once, at the widest halo requested, and serves every
      narrower halo as a centred slice when the window is a whole number
      of pixels on both axes (exact, because
      :func:`repro.litho.raster.rasterize` accumulates integer areas,
      making rasters slice-invariant across pixel-aligned windows); an
      unaligned window clips its last pixel row and column at each
      halo's own edge, so it is rasterized once per halo instead;
    * the aerial image depends only on the blur sigma — ±defocus
      collapse under ``hypot``, so the cache computes one intensity
      image per unique sigma, as one 2-D FFT convolution
      (:meth:`LithoModel._blur_fft`);
    * dose only scales the resist threshold — thresholding a cached
      aerial image is nearly free.

    A five-corner sweep therefore costs 1 rasterization and 2 FFT
    convolutions instead of 5 rasterizations and 10 Gaussian filters,
    and a 5x3 process-window grid costs 1 and 3 instead of 15 and 30.
    Every printed raster is bit-identical to the uncached
    :class:`LithoModel` methods: :meth:`print_image` certifies each
    pixel's threshold decision against the FFT's error bound and takes
    the few it cannot certify from the scipy image — asserted by the
    fast-path equivalence tests.  :meth:`aerial_image` stays the scipy
    image, bit-identical to :meth:`LithoModel.aerial_image`.
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
        self._raster: np.ndarray | None = None
        self._raster_halo_px = 0
        self._images: dict[float, np.ndarray] = {}  # blur sigma (nm) -> scipy image
        # blur sigma (nm) -> (FFT image, its error bound)
        self._fft_images: dict[float, tuple[np.ndarray, float]] = {}
        if defocus_hint:
            self._raster_halo_px = max(
                model._halo_px(d, self.grid) for d in defocus_hint
            )

    def _raster_for(self, halo_px: int) -> np.ndarray:
        """The mask raster over the window expanded by ``halo_px`` pixels."""
        registry = get_registry()
        held = self._raster_halo_px if self._raster is not None else -1
        if held == halo_px or (self._aligned and held > halo_px):
            registry.inc(names.SIM_RASTER_REUSE)
        else:
            g = self.grid
            px = max(halo_px, self._raster_halo_px) if self._aligned else halo_px
            halo = px * g
            w = self.window
            big = Rect(w.x0 - halo, w.y0 - halo, w.x1 + halo, w.y1 + halo)
            self._raster = rasterize(self.mask, big, g)
            self._raster_halo_px = px
        trim = self._raster_halo_px - halo_px
        if trim == 0:
            return self._raster
        # exact thanks to integer-area rasterization (see raster.py)
        return np.ascontiguousarray(self._raster[trim:-trim, trim:-trim])

    def aerial_image(self, defocus_nm: float = 0.0) -> np.ndarray:
        """Aerial intensity over the window; bit-identical to
        :meth:`LithoModel.aerial_image` at the same condition."""
        sigma = self.model.blur_sigma_nm(defocus_nm)
        image = self._images.get(sigma)
        if image is None:
            g = self.grid
            trim = self.model._halo_px(defocus_nm, g)
            raster = self._raster_for(trim)
            image = self.model._blur(raster, sigma / g)
            image = image[trim:-trim or None, trim:-trim or None]
            self._images[sigma] = image
            get_registry().inc(names.SIM_BLUR_UNIQUE)
        return image

    def _fft_image(self, defocus_nm: float) -> tuple[np.ndarray, float]:
        """The FFT intensity image over the window and its error bound."""
        sigma = self.model.blur_sigma_nm(defocus_nm)
        entry = self._fft_images.get(sigma)
        if entry is None:
            trim = self.model._halo_px(defocus_nm, self.grid)
            raster = self._raster_for(trim)
            entry = self.model._blur_fft(raster, sigma / self.grid, trim)
            self._fft_images[sigma] = entry
            get_registry().inc(names.SIM_BLUR_UNIQUE)
        return entry

    def print_image(self, dose: float = 1.0, defocus_nm: float = 0.0) -> np.ndarray:
        """Boolean printed raster at the given process condition;
        bit-identical to :meth:`LithoModel.print_image`.

        Pixels are thresholded on the FFT image.  One whose FFT
        intensity lies within the image's error bound of the cut
        ``resist_threshold / dose`` could decide either way; if there
        are any, their decisions come from the scipy image
        (:meth:`aerial_image`) and the condition counts one
        ``sim.exact_fallback``.
        """
        if dose <= 0:
            raise ValueError("dose must be positive")
        image, delta = self._fft_image(defocus_nm)
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
