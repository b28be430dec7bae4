"""The tail model: term columns and the one least-squares fit."""

import numpy as np
import pytest

import cesaro.tailfit
from cesaro.climits import strong_cesaro_limit
from cesaro.seqfun import SeriesTerms, psum_function
from cesaro.tailfit import (TAIL_TERMS, TailDesign, fit_limit_array,
                            fit_terms, term_column)

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


def _whole_design_fit(xs, ys, terms):
    """The fit with its design stacked, then scaled as one matrix."""
    A = np.column_stack([term_column(xs, e, m) for e, m in terms])
    if np.iscomplexobj(ys) and not np.iscomplexobj(A):
        A = A.astype(complex)
    norms = np.max(np.abs(A), axis=0)
    An = A / norms
    coef, *_ = np.linalg.lstsq(An, ys, rcond=None)
    rms = float(np.sqrt(np.mean(np.abs(ys - An @ coef) ** 2)))
    cov = np.linalg.inv(An.conj().T @ An)
    stderr = float(np.sqrt(np.abs(cov[0, 0]) * rms**2 * len(ys)
                           / (len(ys) - len(coef))) / norms[0])
    return coef / norms, stderr, rms


@pytest.mark.parametrize("extra", [(-1, 2), (-0.5 + 2j, 0)])
@pytest.mark.parametrize("kind", [float, complex])
def test_a_kept_design_fits_each_sample_set_bit_for_bit(extra, kind):
    design = TailDesign(XS)
    terms = [*TAIL_TERMS, extra]
    for shift in (0.0, 1.0, -2.5):
        ys = (_tail() + shift).astype(kind) + (1j * shift / XS
                                                if kind is complex else 0)
        fit = fit_terms(design, ys, terms)
        coef, stderr, rms = _whole_design_fit(XS, ys, terms)
        assert list(fit.coefficients.values()) == list(coef)
        assert (fit.stderr, fit.residual_rms) == (stderr, rms)


def test_a_driver_builds_each_tail_column_once_per_call(monkeypatch):
    built, fits = [], []
    column, fit = cesaro.tailfit.term_column, cesaro.tailfit.fit_terms

    def counting_column(xs, e, m=0):
        built.append((len(xs), xs[0], complex(e), m))
        return column(xs, e, m)

    monkeypatch.setattr(cesaro.tailfit, "term_column", counting_column)
    monkeypatch.setattr(cesaro.tailfit, "fit_terms",
                        lambda *a: fits.append(a) or fit(*a))
    # the alternating p-sum at s = -1.5: strong(2), accepted by the fit exit
    alternating = SeriesTerms(
        lambda n: (1 if n % 2 else -1) * n ** 1.5, label="alternating(-1.5)",
        array=lambda ns: np.where(ns % 2 == 1, 1.0, -1.0) * ns ** 1.5)
    assert strong_cesaro_limit(psum_function(alternating)).mechanism \
        == "strong(2)"
    windows = {key[:2] for key in built}
    assert len(windows) == 2 and len(fits) >= 3 * len(windows)
    assert len(built) == len(set(built))
    assert {key[2:] for key in built} == {(complex(e), m) for e, m in
                                          [*TAIL_TERMS, (0, 1)]}
