"""Low-pass reconstruction kernels with compactly supported spectrum.

The kernel g is defined through its spectrum: 1 on [-1, 1], 0 outside
[-T0, T0], and a smooth taper in between.  Two taper profiles
are available:

    "bump"                    infinitely smooth step built from exp(-1/x);
                              every derivative vanishes at both taper ends,
                              so g decays faster than any power and short
                              tabulation windows reach tight tail bounds.
    "raised-cosine-squared"   cos(pi*s/2)**4; its second derivative jumps
                              at the inner taper edge, so g decays like
                              t**-3 and tight tail tolerances can exceed
                              the tabulation cap (a ResourceError).

Besides the samples of g, the error bound needs the L1 norms of g, g'
and g''.  The derivatives are computed spectrally (extra omega factors
under the inverse transform), the norms by _l1_by_sign_splits.

Quadrature note: the inverse transforms are evaluated with the composite
trapezoid rule on a dense omega grid.  The integrands have vanishing odd
derivatives at omega = 0 (even functions) and vanish with all derivatives
at omega = T0 for the bump taper, so the rule converges superalgebraically
here; the omega spacing ~1/4096 keeps the aliased images of the sampled
cosines far outside every tabulated |t| <= 256.

The transforms run in one fused pass each, in 64-row blocks through
_kernels.map_blocks: a block builds its phase matrix 2*pi*t*omega in its
worker's buffer (at most 16 of them, as large as the 1024-row chunk the
design once held), takes cosines or sines in place and writes every
matrix-vector product into its own output rows.  The cosine pass covers
the whole tabulation cap and gives g (which decides the truncation
point) and g'' together; the sine pass gives g' over the blocks that
cover the kept rows.  The blocks keep every bit: OpenBLAS's dgemv sums a
row the same way whenever it sits in a group of 4 rows starting at a
multiple of 4, whatever the matrix around it and the thread count.
So the full blocks take the rows in chains s, 2s, 4s, ... (s odd), and
row 2s copies its columns j <= (n_om - 1)/2 from row s's columns 2j in
the same block, taking trig of the rest only: a quarter fewer values.
The phases are equal bit for bit, fl(t[2s]*om[j]) = 2*fl(t[s]*om[j]) =
fl(t[s]*om[2j]), as t[2s] = 2*t[s] and om[2j] = 2*om[j] exactly (checked
per pass: linspace sets its last node to the endpoint).  The ragged last
rows are one block in row order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import InvalidInputError, ResourceError, _check_array_len

__all__ = ["FilterSpec", "design_filter", "taper_profiles"]

_W_STAGES = (64.0, 256.0)   # tabulation caps, tried in order
_DT = 1.0 / 64.0            # tabulation spacing of the kernel samples
_W_MIN = 2.0                # never truncate inside the main lobe
_OMEGA_DENSITY = 4096       # quadrature points per unit of omega
_BLOCK = 64                 # t rows per transform block; see the note


def _smoothstep(x):
    """C-infinity monotone step: 0 for x <= 0, 1 for x >= 1."""
    x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        bx = np.where(x > 0.0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
        cx = np.where(x < 1.0, np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return bx / (bx + cx)


def _phi_bump(s):
    return _smoothstep(1.0 - np.asarray(s, dtype=np.float64))


def _phi_cos4(s):
    s = np.clip(np.asarray(s, dtype=np.float64), 0.0, 1.0)
    return np.cos(0.5 * math.pi * s) ** 4


def taper_profiles():
    """Mapping of taper profile name to its [0,1] -> [1,0] shape function."""
    return {"bump": _phi_bump, "raised-cosine-squared": _phi_cos4}


@dataclass
class FilterSpec:
    """A designed kernel: spectrum parameters, tabulation, and norms."""

    T0: float
    rolloff: str
    dt: float
    W: float
    trunc_tol: float
    tail_bound: float
    g_l1: float
    g1_l1: float
    g2_l1: float
    t_tab: np.ndarray = field(repr=False, default=None)
    g_tab: np.ndarray = field(repr=False, default=None)
    g1_tab: np.ndarray = field(repr=False, default=None)
    g2_tab: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        from scipy.interpolate import CubicSpline  # slow import, loaded on use

        self._spl_g = CubicSpline(self.t_tab, self.g_tab)

    @property
    def C_g(self) -> float:
        """Constant of the T**-2 error bound: ||g''|| + 2||g'|| + ||g||."""
        return self.g2_l1 + 2.0 * self.g1_l1 + self.g_l1

    def g(self, t):
        """Kernel values by cubic interpolation; 0 beyond the half-width W.

        g is even, so evaluation uses |t| against the one-sided table.
        """
        t = np.asarray(t, dtype=np.float64)
        a = np.abs(t)
        scalar = a.ndim == 0
        a = np.atleast_1d(a)
        out = np.zeros(a.shape)
        inside = a <= self.W
        if np.any(inside):
            out[inside] = self._spl_g(a[inside])
        return float(out[0]) if scalar else out


def _quadrature(T0, phi):
    """Trapezoid nodes omega on [0, T0] and weights times the spectrum."""
    n_om = int(round(_check_array_len(T0 * _OMEGA_DENSITY, "omega nodes"))) + 1
    om = np.linspace(0.0, T0, n_om)
    gh = np.where(om <= 1.0, 1.0, phi((om - 1.0) / (T0 - 1.0)))
    wts = np.full(n_om, om[1] - om[0])
    wts[0] *= 0.5
    wts[-1] *= 0.5
    return om, gh * wts


def _transforms(t, om, trig, weights):
    """[trig(2*pi*t*om) @ w for w in weights] for t[i] = i*dt, by 64-row
    blocks of row chains (see the note)."""
    outs = [np.empty(t.size) for _ in weights]
    h = (om.size + 1) // 2  # the columns j with 2j on the grid
    chains = _chain_blocks(t.size) if np.array_equal(om[::2], 2.0 * om[:h]) else []

    def block(span, buf):
        b = span.start // _BLOCK
        rows, counts = (chains[b] if b < len(chains)
                        else (np.arange(span.start, span.stop), [len(buf)]))
        np.multiply(t[rows, None], om, out=buf)
        buf *= 2.0 * math.pi
        for part in buf[:counts[0]], buf[counts[0]:, h:]:  # heads; the rest past h
            trig(part, out=part)
        a = 0
        for c_parent, c in zip(counts, counts[1:]):  # row 2s: row s, columns 2j
            buf[a + c_parent:a + c_parent + c, :h] = buf[a:a + c, ::2]
            a += c_parent
        for out, w in zip(outs, weights):
            out[rows] = np.dot(buf, w)

    _kernels.map_blocks(block, t.size, _BLOCK, om.size)
    return outs


def _chain_blocks(n):
    """(rows, counts) of each full 64-row block of the chains s, 2s, 4s, ...
    (s odd; 0 alone), its segments laid out by generation, longest first:
    counts[g] rows, each double the row at its index in generation g - 1."""
    full = n - n % _BLOCK
    # generation k holds the rows s << k, s odd: zipped, they give the chains
    gens = [range(1 << k, full, 2 << k) for k in range((full - 1).bit_length())]
    chains = [(0,), *(chain[:chain.index(None)] if None in chain else chain
                      for chain in itertools.zip_longest(*gens))]
    blocks, segs, room = [], [], _BLOCK
    for chain in chains:
        while chain:
            segs.append(chain[:room])
            chain = chain[room:]
            room -= len(segs[-1])
            if not room:
                segs.sort(key=len, reverse=True)
                by_gen = list(itertools.zip_longest(*segs))  # None past a segment
                blocks.append((np.array([r for gen in by_gen for r in gen
                                         if r is not None]),
                               [len(gen) - gen.count(None) for gen in by_gen]))
                segs, room = [], _BLOCK
    return blocks


def _l1_by_sign_splits(t, vals, anti_of=None):
    """Integral of |h| on [t0, tN] where h is the spline through vals.

    When anti_of is given it must be samples of an antiderivative-source
    table: the routine then sums |increments of a spline through anti_of|
    between the sign changes of vals.  With anti_of None the spline's own
    antiderivative is used.
    """
    from scipy.interpolate import CubicSpline

    spl = CubicSpline(t, vals)
    cuts = [t[0]]
    for r in np.atleast_1d(spl.roots(extrapolate=False)):
        if t[0] < r < t[-1]:
            cuts.append(float(r))
    cuts.append(t[-1])
    cuts = np.array(sorted(cuts))
    if anti_of is None:
        anti = spl.antiderivative()
        seg = np.diff(anti(cuts))
    else:
        src = CubicSpline(t, anti_of)
        seg = np.diff(src(cuts))
    return float(np.sum(np.abs(seg)))


def design_filter(
    T0: float = 2.0,
    trunc_tol: float = 1e-8,
    rolloff: str = "bump",
) -> FilterSpec:
    """Design a kernel whose truncation tail stays below trunc_tol.

    T0 > 1 is the spectral support half-width; trunc_tol > 0 bounds the
    tail mass 2*int_W^inf |g|, which caps the truncation's share of any sup
    reconstruction error since |q_n| <= 1; rolloff names a taper_profiles()
    entry (InvalidInputError otherwise).  ResourceError means the tail
    bound cannot be met within the tabulation cap, as for the
    raised-cosine-squared profile at tight tolerances.
    """
    if not (isinstance(T0, (int, float)) and math.isfinite(T0) and T0 > 1.0):
        raise InvalidInputError(f"T0 must be > 1, got {T0!r}")
    if not (trunc_tol > 0.0 and math.isfinite(trunc_tol)):
        raise InvalidInputError(f"trunc_tol must be positive, got {trunc_tol!r}")
    try:
        phi = taper_profiles()[rolloff]
    except KeyError:
        raise InvalidInputError(
            f"unknown rolloff {rolloff!r}; choose from {sorted(taper_profiles())}"
        ) from None

    om, w0 = _quadrature(T0, phi)
    best = math.inf
    for w_cap in _W_STAGES:
        n_t = int(round(w_cap / _DT)) + 1
        t = np.arange(n_t) * _DT
        g, g2 = _transforms(t, om, np.cos, (w0, om * (om * w0)))
        g, g2 = 2.0 * g, -2.0 * (2.0 * math.pi) ** 2 * g2

        # reverse cumulative trapezoid of |g|: tail(i) = int_{t_i}^{cap} |g|
        a = np.abs(g)
        seg = 0.5 * _DT * (a[:-1] + a[1:])
        tail = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))
        two_units = max(int(round(2.0 / _DT)), 1)
        beyond = 2.0 * float(np.max(a[-two_units:])) * w_cap
        total = 2.0 * tail + beyond

        i_min = int(round(_W_MIN / _DT))
        ok = np.nonzero(total[i_min:] <= trunc_tol)[0]
        best = min(best, float(np.min(total[i_min:])))
        if ok.size:
            i = i_min + int(ok[0])
            n_cover = min(t.size, -(-(i + 1) // _BLOCK) * _BLOCK)
            g1 = -4.0 * math.pi * _transforms(t[:n_cover], om, np.sin,
                                              (om * w0,))[0]
            t, g, g1, g2 = t[: i + 1], g[: i + 1], g1[: i + 1], g2[: i + 1]
            g_l1 = 2.0 * _l1_by_sign_splits(t, g)
            g1_l1 = 2.0 * _l1_by_sign_splits(t, g1, anti_of=g)
            g2_l1 = 2.0 * _l1_by_sign_splits(t, g2, anti_of=g1)
            return FilterSpec(
                T0=float(T0), rolloff=rolloff, dt=_DT, W=float(t[-1]),
                trunc_tol=float(trunc_tol), tail_bound=float(total[i]),
                g_l1=g_l1, g1_l1=g1_l1, g2_l1=g2_l1,
                t_tab=t, g_tab=g, g1_tab=g1, g2_tab=g2,
            )
    raise ResourceError(
        f"tail bound {trunc_tol!r} unreachable within half-width {_W_STAGES[-1]!r} "
        f"(best achievable {best!r}); the {rolloff!r} taper decays too slowly"
    )
