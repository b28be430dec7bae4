"""The tail model: term columns and the one least-squares fit."""

import numpy as np
import pytest

from cesaro.tailfit import TAIL_TERMS, fit_limit_array, fit_terms, term_column

XS = np.arange(100, 1000, dtype=float) + 0.5


def test_fit_terms_keys_each_coefficient_by_its_term():
    rho = -0.5 + 2j
    ys = (0.25 + (1 - 2j) * XS ** rho + 3 / XS
          - 0.7 * np.log(XS) ** 2 / XS)
    terms = [(0, 0), (rho, 0), (-1, 0), (-1, 2)]
    fit = fit_terms(XS, ys, terms)
    assert list(fit.coefficients) == terms
    want = {(0, 0): 0.25, (rho, 0): 1 - 2j, (-1, 0): 3.0, (-1, 2): -0.7}
    for term, c in want.items():
        assert fit.coefficients[term] == pytest.approx(c, abs=1e-8)
    assert fit.limit == pytest.approx(0.25, abs=1e-10)


def _tail():
    return (0.25 + 3 / XS - 0.5 * np.log(XS) / XS + 1e-9 * np.sin(XS))


@pytest.mark.parametrize("repeat", [(-1, 0), (-2.0, 0), (-1 + 0j, 1)])
def test_a_repeated_term_enters_once(repeat):
    # a duplicate column made the normal matrix singular, and the stderr
    # fell back to the residual rms
    plain = fit_limit_array(XS, _tail())
    again = fit_limit_array(XS, _tail(), [repeat])
    assert (again.limit, again.stderr) == (plain.limit, plain.stderr)
    assert plain.stderr < 0.75 * plain.residual_rms
    assert list(again.coefficients) == list(TAIL_TERMS)


def test_negative_integer_powers_are_reciprocals():
    assert np.array_equal(term_column(XS, -2), 1.0 / XS ** 2)
    assert np.array_equal(term_column(XS, -1.0, 2), np.log(XS) ** 2 / XS)
    assert np.array_equal(term_column(XS, 0, 1), np.log(XS))
    assert np.array_equal(term_column(XS, 0.5), XS ** 0.5)
