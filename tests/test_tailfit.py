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
    # a duplicate column would make the triangular factor R singular
    plain = fit_limit_array(XS, _tail())
    again = fit_limit_array(XS, _tail(), [repeat])
    assert (again.limit, again.stderr) == (plain.limit, plain.stderr)
    assert plain.stderr < 0.75 * plain.residual_rms
    assert list(again.coefficients) == list(TAIL_TERMS)


@pytest.mark.parametrize("n", [3, 4])
def test_a_fit_needs_more_samples_than_terms(n):
    # four terms through four points or fewer leave no constant to read
    with pytest.raises(ValueError):
        fit_limit_array(XS[:n], _tail()[:n])


def test_negative_integer_powers_are_reciprocals():
    assert np.array_equal(term_column(XS, -2), 1.0 / XS ** 2)
    assert np.array_equal(term_column(XS, -1.0, 2), np.log(XS) ** 2 / XS)
    assert np.array_equal(term_column(XS, 0, 1), np.log(XS))
    assert np.array_equal(term_column(XS, 0.5), XS ** 0.5)


def _whole_design_fit(xs, ys, terms):
    """The fit with its design stacked, then scaled as one matrix, and
    solved by one QR factorisation of it with ys appended."""
    A = np.column_stack([term_column(xs, e, m) for e, m in terms])
    if np.iscomplexobj(ys) and not np.iscomplexobj(A):
        A = A.astype(complex)
    norms = np.max(np.abs(A), axis=0)
    n, k = A.shape
    R = np.linalg.qr(np.column_stack([A / norms, ys]), mode="r")
    coef = np.linalg.solve(R[:k, :k], R[:k, k])
    rms = float(abs(R[k, k]) / np.sqrt(n))
    row0 = np.linalg.solve(R[:k, :k], np.eye(k))[0]
    stderr = float(np.linalg.norm(row0) * rms * np.sqrt(n / (n - k))
                   / norms[0])
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


@pytest.mark.parametrize("extra", [(-1, 3), (-0.5 + 2j, 0)])
def test_a_fit_does_not_move_with_the_design_layout(extra, monkeypatch):
    # the normal-equation inverse moved the stderr with the memory order
    terms = [*TAIL_TERMS, (-1, 2), extra]
    plain = fit_terms(XS, _tail(), terms)
    stack = np.column_stack
    monkeypatch.setattr(np, "column_stack",
                        lambda arrays: np.asfortranarray(stack(arrays)))
    fortran = fit_terms(XS, _tail(), terms)
    assert (fortran.limit, fortran.stderr, fortran.residual_rms) == \
        (plain.limit, plain.stderr, plain.residual_rms)


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
