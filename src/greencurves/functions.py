"""Test functions with closed-form Wirtinger d-bar derivatives and closed-form bounds.

Each descriptor carries the function value and its d-bar derivative as
vectorized callables, so quadrature error is never confused with
differentiation error.  Holomorphic families have d-bar identically zero.

Each family also states ``bounds(c, r)``: upper bounds on sup|f| and on
sup(|df| + |dbar f|) over the closed disc of center c and radius r.  The
second is a Lipschitz constant of f on the disc (the mean-value bound along
any segment in it), so every remainder bound that reads the modulus of
continuity is a bound, not an estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import UnknownFamily


@dataclass
class FunctionDescriptor:
    name: str
    value: Callable
    dbar: Callable
    bounds: Callable  # (c, r) -> (sup|f|, sup(|df| + |dbar f|)) over the closed disc |z - c| <= r
    pole: Optional[complex] = None

    def modulus(self, delta: float, box) -> float:
        """Upper bound on the modulus of continuity at scale delta over ``box`` = (lo, hi).

        Every pair z, w with z in the box and |w - z| <= delta lies, with the
        segment joining them, in the closed disc about the box's center that
        reaches delta past its corners; the Lipschitz bound over that disc
        times delta bounds |f(w) - f(z)|.
        """
        if delta <= 0:
            raise ValueError("delta must be positive")
        lo, hi = box
        return float(self.bounds((lo + hi) / 2, abs(hi - lo) / 2 + delta)[1] * delta)


def _power_product(k: complex, z, p: int, q: int):
    """k * z**p * conj(z)**q as numpy evaluates it, without a power call for p, q in {0, 1}.

    numpy's complex power gives exactly 1+0j for exponent 0, and for
    exponent 1 its base, except that a zero base gives +0+0j; those factors
    are built as such.  Every product stays as written: a factor 1+0j can
    flip the sign of a zero, and the bits of a product depend on which
    operand is an array.
    """
    z = np.asarray(z, dtype=complex)

    def factor(n, conj):
        if n == 0:
            return np.ones(z.shape, dtype=complex)
        base = np.conj(z) if conj else z
        return np.where(base == 0, 0j, base) if n == 1 else base ** n

    return k * factor(p, False) * factor(q, True)


def _monomial(a=0, b=1, coeff=1.0):
    a, b = int(a), int(b)
    c = complex(coeff)
    if a < 0 or b < 0:
        raise ValueError(f"monomial exponents must be non-negative: a={a}, b={b}")

    def value(z):
        return _power_product(c, z, a, b)

    def dbar(z):
        if b == 0:
            return np.zeros_like(np.asarray(z, dtype=complex))
        return _power_product(c * b, z, a, b - 1)

    def bounds(center, radius):
        # |df| + |dbar f| = |c| (a + b) |z|^(a+b-1); conj z keeps the bits of |c| * delta
        m, d = np.float64(abs(center) + radius), a + b
        return abs(c) * m ** d, (abs(c) * d * m ** (d - 1) if d else 0.0)

    return FunctionDescriptor(name=f"monomial(z^{a} zbar^{b})", value=value, dbar=dbar,
                              bounds=bounds)


def _poly(terms=((1.0, 1, 0),)):
    if not terms:
        raise ValueError(f"poly terms must be nonempty: {list(terms)!r}")
    parts = [_monomial(a=a, b=b, coeff=c) for (c, a, b) in terms]

    def value(z):
        return sum(p.value(z) for p in parts)

    def dbar(z):
        return sum(p.dbar(z) for p in parts)

    def bounds(center, radius):
        each = [p.bounds(center, radius) for p in parts]
        return sum(s for s, _ in each), sum(lip for _, lip in each)

    name = "poly(" + "+".join(p.name for p in parts) + ")"
    return FunctionDescriptor(name=name, value=value, dbar=dbar, bounds=bounds)


def _zbar_absz():
    def value(z):
        z = np.asarray(z, dtype=complex)
        return np.conj(z) * np.abs(z)

    def dbar(z):
        z = np.asarray(z, dtype=complex)
        return 1.5 * np.abs(z) + 0j

    def bounds(center, radius):
        m = abs(center) + radius  # |df| = |z|/2, |dbar f| = 3|z|/2
        return m * m, 2 * m

    return FunctionDescriptor(name="zbar_absz", value=value, dbar=dbar, bounds=bounds)


def _bump(center=0j, radius=1.0, height=1.0):
    z0, R, h = complex(center), float(radius), float(height)
    if not R > 0:  # a radius of 0 or below would make the gradient bound 1/0 or negative
        raise ValueError(f"bump radius must be positive: {radius!r}")

    def value(z):
        z = np.asarray(z, dtype=complex)
        s = np.abs(z - z0) ** 2 / (R * R)
        core = np.where(s < 1.0, (1.0 - np.minimum(s, 1.0)) ** 4, 0.0)
        return h * core + 0j

    def dbar(z):
        z = np.asarray(z, dtype=complex)
        w = z - z0
        s = np.abs(w) ** 2 / (R * R)
        core = np.where(s < 1.0, (1.0 - np.minimum(s, 1.0)) ** 3, 0.0)
        return -4.0 * h * w * core / (R * R)

    # f is real, so |df| + |dbar f| = |grad f| = 2|dbar f|, largest at |w| = R/sqrt(7)
    grad_bound = 8 * abs(h) / (R * math.sqrt(7)) * (6 / 7) ** 3
    return FunctionDescriptor(name=f"bump(R={R})", value=value, dbar=dbar,
                              bounds=lambda center, radius: (abs(h), grad_bound))


def _reciprocal(pole=2.0 + 0j, coeff=1.0):
    p, c = complex(pole), complex(coeff)

    def value(z):
        z = np.asarray(z, dtype=complex)
        den = z - p
        with np.errstate(divide="ignore", invalid="ignore"):
            out = c / den
        return out

    def dbar(z):
        z = np.asarray(z, dtype=complex)
        return np.zeros_like(z)

    def bounds(center, radius):
        d = abs(p - center) - radius  # the pole's distance from the disc
        return (abs(c) / d, abs(c) / (d * d)) if d > 0 else (math.inf, math.inf)

    return FunctionDescriptor(name=f"reciprocal(pole={p})", value=value, dbar=dbar,
                              bounds=bounds, pole=p)


def smoothstep(t):
    """Quintic smoothstep on [0,1]: C^2 monotone ramp from 0 to 1."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def smoothstep_d(t):
    tc = np.clip(t, 0.0, 1.0)
    return 30.0 * tc * tc * (tc - 1.0) ** 2


def with_cutoff(f: FunctionDescriptor, r_inner: float, r_outer: float,
                center: complex = 0j) -> FunctionDescriptor:
    """Multiply by a radial compact-support cutoff: 1 inside r_inner, 0 outside r_outer.

    The product's d-bar and its bounds are assembled in closed form from the factors.
    """
    if not (0 < r_inner < r_outer):
        raise ValueError("need 0 < r_inner < r_outer")
    z0 = complex(center)
    width = r_outer - r_inner

    def chi(z):
        # for r <= r_inner the ramp argument rounds to >= 1, where smoothstep is exactly 1
        r = np.abs(np.asarray(z, dtype=complex) - z0)
        out = np.ones(r.shape)
        ramp = ~(r <= r_inner)
        if ramp.any():
            out[ramp] = smoothstep((r_outer - r[ramp]) / width)
        return out

    def dbar_chi(z):
        z = np.asarray(z, dtype=complex)
        w = z - z0
        r = np.abs(w)
        t = (r_outer - r) / width
        ramp = (t > 0) & (t < 1) & (r > 0)
        safe_r = np.where(r == 0, 1.0, r)
        slope = np.where(ramp, -smoothstep_d(t) / width, 0.0)
        return slope * w / (2 * safe_r)

    def value(z):
        return f.value(z) * chi(z)

    def dbar(z):
        return f.dbar(z) * chi(z) + f.value(z) * dbar_chi(z)

    def bounds(center, radius):
        dist = abs(center - z0)
        if dist - radius >= r_outer:  # the disc misses the support, where f and its slope are 0
            return 0.0, 0.0
        # |df| + |dbar f| <= chi (|dg| + |dbar g|) + |g| smoothstep'(t) / width; both
        # terms vanish off the support disc, so g is bounded over the smaller disc
        sup_g, lip = f.bounds(*min((center, radius), (z0, r_outer), key=lambda d: d[1]))
        lo, hi = max(dist - radius, r_inner), min(dist + radius, r_outer)
        if lo < hi:  # the disc meets the ramp; smoothstep' peaks at t = 1/2, where it is 15/8
            t = np.clip(0.5, (r_outer - hi) / width, (r_outer - lo) / width)
            lip = lip + sup_g * float(smoothstep_d(t)) / width
        return sup_g, lip

    return FunctionDescriptor(name=f"{f.name}*cutoff({r_inner},{r_outer})",
                              value=value, dbar=dbar, bounds=bounds, pole=f.pole)


def truncated_cauchy(center: complex, radius: float) -> FunctionDescriptor:
    """Bounded continuous kernel, holomorphic off the closed disc (center, radius).

    Equals radius^2/(z-center) outside the disc and conj(z-center) inside;
    the two expressions agree on the seam, and the sup norm is exactly radius.
    """
    c, r = complex(center), float(radius)

    def value(z):
        z = np.asarray(z, dtype=complex)
        w = z - c
        aw = np.abs(w)
        inside = aw < r
        safe = np.where(aw == 0, 1.0, w)
        outer = np.where(inside, 0.0, r * r / safe)
        inner = np.where(inside, np.conj(w), 0.0)
        return outer + inner

    def dbar(z):
        z = np.asarray(z, dtype=complex)
        aw = np.abs(z - c)
        return np.where(aw < r, 1.0 + 0j, 0.0 + 0j)

    # 1-Lipschitz: |dbar f| = 1 inside, |df| = r^2/|z - c|^2 <= 1 outside
    return FunctionDescriptor(name=f"truncated_cauchy({c},{r})", value=value, dbar=dbar,
                              bounds=lambda center, radius: (r, 1.0))


_FN_FAMILIES = {
    "monomial": (_monomial, "monomial(a=0, b=1, coeff=1): z^a zbar^b"),
    "poly": (_poly, "poly(terms=((coeff, a, b), ...)): linear combination of monomials"),
    "zbar_absz": (_zbar_absz, "zbar_absz(): zbar*|z|, d-bar = 3|z|/2"),
    "bump": (_bump, "bump(center=0, radius=1, height=1): smooth radial bump (1-|w|^2/R^2)^4"),
    "reciprocal": (_reciprocal, "reciprocal(pole=2, coeff=1): coeff/(z-pole), holomorphic off the pole"),
}


def make_function(family: str, **params) -> FunctionDescriptor:
    try:
        builder, _ = _FN_FAMILIES[family]
    except KeyError:
        raise UnknownFamily(f"unknown function family {family!r}") from None
    return builder(**params)


def function_families() -> dict:
    return {name: doc for name, (_, doc) in _FN_FAMILIES.items()}
