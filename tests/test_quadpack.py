import itertools
import math

import pytest
from scipy.integrate import quad

from marcsim import _quadpack
from marcsim._quadpack import qags

# Integrands that take QAGS's extrapolation (end-point singularities), its
# round-off test (the narrow peak at a tight tolerance) and, at limit 10, its
# subdivision limit (the oscillating ones); none is evaluated at an end point.
INTEGRANDS = {
    "1/sqrt(x)": (lambda x: x**-0.5, 0.0, 1.0),
    "log(x)": (lambda x: math.log(x), 0.0, 1.0),
    "x^-0.9": (lambda x: x**-0.9, 0.0, 1.0),
    "log(x)/sqrt(x)": (lambda x: math.log(x) / math.sqrt(x), 0.0, 1.0),
    "peak": (lambda x: 1.0 / (1e-4 + (x - 0.5) ** 2), 0.0, 1.0),
    "sin^2(50x)": (lambda x: math.sin(50.0 * x) ** 2, 0.0, 1.0),
    "exp(-x)cos(30x)": (lambda x: math.exp(-x) * math.cos(30.0 * x), 0.0, 10.0),
}
TOLERANCES = [(1e-10, 1e-12), (0.0, 1e-8), (1.49e-8, 1.49e-8), (1e-14, 1e-14)]  # (epsabs, epsrel)
LIMITS = [10, 50]


def _scipy_quad(f, a, b, epsabs, epsrel, limit):
    """(value, abserr, message) of scipy's compiled QUADPACK; the message is
    empty when it reports success."""
    out = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    return out[0], out[1], out[3] if len(out) > 3 else ""


@pytest.mark.parametrize("name", INTEGRANDS)
def test_qags_equals_scipy_quad_bit_for_bit(name):
    f, a, b = INTEGRANDS[name]
    for (epsabs, epsrel), limit in itertools.product(TOLERANCES, LIMITS):
        value, abserr, _ = _scipy_quad(f, a, b, epsabs, epsrel, limit)
        assert qags(f, a, b, epsabs, epsrel, limit) == (value, abserr), (epsabs, epsrel, limit)


def test_cases_reach_extrapolation_roundoff_and_limit_paths(monkeypatch):
    extrapolations = []
    qelg = _quadpack._qelg
    monkeypatch.setattr(_quadpack, "_qelg", lambda *args: extrapolations.append(1) or qelg(*args))
    messages = set()
    for (f, a, b), (epsabs, epsrel), limit in itertools.product(INTEGRANDS.values(), TOLERANCES, LIMITS):
        messages.add(_scipy_quad(f, a, b, epsabs, epsrel, limit)[2].split(" (")[0].split(",")[0])
        qags(f, a, b, epsabs, epsrel, limit)
    assert "The maximum number of subdivisions" in messages
    assert "The occurrence of roundoff error is detected" in messages
    assert len(extrapolations) > 100


def test_qags_rejects_what_quadpack_rejects():
    with pytest.raises(ValueError):
        quad(math.exp, 0.0, 1.0, epsabs=0.0, epsrel=1e-30)
    with pytest.raises(ValueError, match="epsrel"):
        qags(math.exp, 0.0, 1.0, 0.0, 1e-30, 50)
    with pytest.raises(ValueError, match="limit"):
        qags(math.exp, 0.0, 1.0, 1e-10, 1e-10, 0)
