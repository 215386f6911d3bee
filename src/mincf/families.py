"""Distribution families: the three null families and the power-study laws.

The null families (Weibull, Pareto type I, Frechet) share the scale-power
structure F(x) = F0((x/c)^phi), so each is described by its standard member
F0 plus the (c, phi) reparameterization; their functions need numpy alone.
The module also provides the eight alternative distributions used in power
studies, parsed from a compact string grammar such as ``W(1.5,1)+1`` or
``LN(2.5)``. Every sampler needs numpy alone (the lognormal one takes the
generator's normal routine), and each takes a sample size or a whole shape,
so a batch of samples comes from one generator call. The densities and
distribution functions serve only the tests, which hold them in
``tests/oracles.py``.
"""
from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .special import exp_integral_e1


class Family(enum.Enum):
    """Null family selector."""

    WEIBULL = "weibull"
    PARETO = "pareto"
    FRECHET = "frechet"

    @classmethod
    def parse(cls, text: str) -> "Family":
        if not isinstance(text, str):
            raise ConfigError(f"a family must be a name string, got {text!r}")
        try:
            return cls(text.strip().lower())
        except ValueError:
            names = ", ".join(f.value for f in cls)
            raise ConfigError(f"unknown family {text!r} (expected one of {names})")


@dataclass(frozen=True)
class ParamPair:
    """Scale/shape pair (c, phi) of a scale-power family member."""

    c: float
    phi: float

    def __post_init__(self):
        if not (self.c > 0 and self.phi > 0):
            raise DomainError(f"parameters must be positive, got c={self.c}, phi={self.phi}")


STANDARD_PARAMS = ParamPair(1.0, 1.0)


# ---------------------------------------------------------------------------
# Null-family functions.
# ---------------------------------------------------------------------------

def null_min_cf(family: Family, t):
    """Min-characteristic function psi0(t) = E min{1, tX} of the standard member.

    Weibull: t(1 - e^(-1/t)); Pareto: t(1 - log t) for t <= 1, else 1;
    Frechet: 1 - e^(-t) + t*E1(t). Accepts scalars or arrays; t must be > 0.
    """
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(arr > 0):
        raise DomainError("null_min_cf requires t > 0")

    if family is Family.WEIBULL:
        out = arr * (-np.expm1(-1.0 / arr))
    elif family is Family.PARETO:
        out = np.where(arr <= 1.0, arr * (1.0 - np.log(arr)), 1.0)
    elif family is Family.FRECHET:
        out = -np.expm1(-arr) + arr * exp_integral_e1(arr)
    else:
        raise DomainError(f"unknown family {family!r}")
    return float(out[0]) if scalar else out.reshape(np.shape(t))


def _quantile_in_place(family: Family, params: ParamPair, u: np.ndarray) -> np.ndarray:
    """Overwrite the float array u in [0, 1) with the inverse distribution function
    at u, and return it: c (-log(1 - u))^(1/phi), c (1 - u)^(-1/phi), c (-log u)^(-1/phi)."""
    if family is Family.WEIBULL:
        np.negative(np.log1p(np.negative(u, out=u), out=u), out=u)
    elif family is Family.PARETO:
        np.subtract(1.0, u, out=u)
    elif family is Family.FRECHET:
        np.negative(np.log(np.maximum(u, 1e-300, out=u), out=u), out=u)
    else:
        raise DomainError(f"unknown family {family!r}")
    u **= (1.0 if family is Family.WEIBULL else -1.0) / params.phi
    u *= params.c
    return u


def null_quantile(family: Family, params: ParamPair, u):
    """Inverse distribution function at u in [0, 1); u itself is left unchanged."""
    arr = np.array(u, dtype=float, ndmin=1)
    if not np.all((arr >= 0) & (arr < 1)):
        raise DomainError("quantile requires u in [0, 1)")
    out = _quantile_in_place(family, params, arr)
    return float(out[0]) if np.ndim(u) == 0 else out.reshape(np.shape(u))


def _check_size(size) -> None:
    """A sample size, or every axis of a sample shape, must be at least 1."""
    if np.any(np.asarray(size) < 1):
        raise DomainError("sample size must be at least 1")


def sample_null(family: Family, params: ParamPair, size, rng: np.random.Generator) -> np.ndarray:
    """Draw variates of the given size or shape from the family member by
    inverse transform, applied in place on the generator's uniforms."""
    _check_size(size)
    return _quantile_in_place(family, params, rng.random(size))


# ---------------------------------------------------------------------------
# Alternative distributions for power studies.
# ---------------------------------------------------------------------------

#: The parameter counts each alternative takes; "Gamma" is another name for G.
_ARITY = {"W": (2,), "P": (2,), "G": (2,), "F": (2,), "LN": (1, 2),
          "HN": (1,), "LFR": (1,), "CH": (1,)}
#: The laws of a null family: W(shape, scale) is the member (c, phi) = (scale, shape).
_NULL_LAWS = {"W": Family.WEIBULL, "P": Family.PARETO, "F": Family.FRECHET}

_SPEC_RE = re.compile(
    r"""^\s*([A-Za-z]+)\s*\(\s*([^()]*?)\s*\)\s*(?:\+\s*([0-9.eE+-]+)\s*)?$"""
)


@dataclass(frozen=True)
class AlternativeSpec:
    """A power-study sampling law: name, parameters, optional location shift."""

    name: str
    params: tuple[float, ...]
    shift: float = 0.0

    def __post_init__(self):
        if self.name not in _ARITY:
            raise ConfigError(f"unknown alternative name {self.name!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        k, arity = len(self.params), _ARITY[self.name]
        if k not in arity:
            noun = "parameter" if arity == (1,) else "parameters"
            raise ConfigError(f"{self.name} takes {' or '.join(map(str, arity))} {noun}, got {k}")
        if not all(map(math.isfinite, (*self.params, self.shift))):
            raise ConfigError(f"parameters and shift of {self} must be finite")
        # Lognormal's first parameter of two is a log-scale location and may
        # be any finite real; every other parameter must be positive.
        positives = self.params[1:] if (self.name == "LN" and k == 2) else self.params
        if not all(p > 0 for p in positives):
            raise ConfigError(f"parameters of {self} must be positive")
        if self.shift < 0:
            raise ConfigError("shift must be nonnegative")

    def __str__(self):
        body = ",".join(f"{p:g}" for p in self.params)
        s = f"{self.name}({body})"
        if self.shift:
            s += f"+{self.shift:g}"
        return s

    @property
    def mu_sigma(self) -> tuple[float, float]:
        """Lognormal (mu, sigma); single-parameter form means mu = 0."""
        if self.name != "LN":
            raise ConfigError("mu_sigma is only defined for LN")
        return (0.0, self.params[0]) if len(self.params) == 1 else self.params


def parse_alternative(text: str) -> AlternativeSpec:
    """Parse a spec string like ``W(1.5,1)+1``, ``LN(2.5)`` or ``CH(0.8)+1``.

    Names are case-insensitive; ``G`` and ``Gamma`` both denote the gamma
    distribution.
    """
    if not isinstance(text, str):
        raise ConfigError(f"an alternative must be a spec string, got {text!r}")
    m = _SPEC_RE.match(text)
    if m is None:
        raise ConfigError(f"cannot parse alternative spec {text!r}")
    raw_name, raw_params, raw_shift = m.groups()
    name = {"GAMMA": "G"}.get(raw_name.upper(), raw_name.upper())
    if name not in _ARITY:
        raise ConfigError(f"unknown alternative name {raw_name!r} in {text!r}")
    try:
        params = tuple(float(p) for p in raw_params.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"bad parameter list in {text!r}")
    shift = float(raw_shift) if raw_shift is not None else 0.0
    return AlternativeSpec(name=name, params=params, shift=shift)


def sample_alternative(spec: AlternativeSpec, size, rng: np.random.Generator) -> np.ndarray:
    """Draw variates of the given size or shape from the alternative law,
    then apply the shift.

    Laws with a closed-form inverse use one uniform per variate, the W, P
    and F laws through :func:`null_quantile`'s transform, in place; the
    gamma, the lognormal (exp of mu + sigma Z) and the halfnormal (theta |Z|)
    use the generator's gamma and normal routines.
    """
    _check_size(size)
    name = spec.name

    if name in _NULL_LAWS:
        shape, scale = spec.params
        x = _quantile_in_place(_NULL_LAWS[name], ParamPair(c=scale, phi=shape), rng.random(size))
    elif name == "G":
        x = rng.gamma(*spec.params, size)
    elif name == "LN":
        mu, sigma = spec.mu_sigma
        x = np.exp(mu + sigma * rng.standard_normal(size))
    elif name == "HN":
        x = spec.params[0] * np.abs(rng.standard_normal(size))
    elif name == "LFR":
        theta = spec.params[0]
        e = -np.log1p(-rng.random(size))
        x = 2.0 * e / (1.0 + np.sqrt(1.0 + 2.0 * theta * e))
    else:  # CH, the last name AlternativeSpec admits
        theta = spec.params[0]
        x = np.log1p(-np.log1p(-rng.random(size)) / 2.0) ** (1.0 / theta)
    return np.add(x, spec.shift, out=x)
