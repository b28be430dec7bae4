"""The tail model: term columns and the one least-squares fit."""

import gc
import weakref

import mpmath
import numpy as np
import pytest

import cesaro.tailfit
from cesaro.climits import cesaro_limit_discrete, strong_cesaro_limit
from cesaro.config import DEFAULT_CONFIG
from cesaro.seqfun import SeriesTerms, alt_ones, psum_function
from cesaro.tailfit import (FACTORS_KEPT, TAIL_TERMS, WINDOWS_KEPT,
                            TailDesign, fit_limit_array, fit_terms,
                            term_column)

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


def _mp_limit(xs, ys, terms):
    """The constant of the least-squares fit of ys on the fit's own scaled
    columns, solved in 40 digits by the normal equations."""
    cols = [term_column(xs, e, m) for e, m in terms]
    cols = [c / np.max(np.abs(c)) for c in cols]
    with mpmath.workdps(40):
        A = mpmath.matrix([[complex(c[i]) for c in cols]
                           for i in range(len(xs))])
        y = mpmath.matrix([complex(v) for v in ys])
        return complex(mpmath.lu_solve(A.H * A, A.H * y)[0])


@pytest.mark.parametrize("extra", [(-1, 2), (-0.5 + 2j, 0)])
@pytest.mark.parametrize("kind", [float, complex])
def test_a_kept_design_fits_each_sample_set_bit_for_bit(extra, kind):
    # a kept factor, a fresh one and the driver window's give the same bits;
    # the one-shot QR of [A | y] and a 40-digit solution agree to rounding
    kept = TailDesign(XS)
    window = cesaro.tailfit._tail_window("means", 1000)
    assert np.array_equal(window.xs, XS)
    terms = [*TAIL_TERMS, extra]
    for shift in (0.0, 1.0, -2.5):
        ys = (_tail() + shift).astype(kind) + (1j * shift / XS
                                                if kind is complex else 0)
        fit = fit_terms(kept, ys, terms)
        for again in (fit_terms(TailDesign(XS), ys, terms),
                      fit_terms(window, ys, terms)):
            assert list(again.coefficients.values()) == \
                list(fit.coefficients.values())
            assert (again.stderr, again.residual_rms) == \
                (fit.stderr, fit.residual_rms)
        coef, stderr, rms = _whole_design_fit(XS, ys, terms)
        limit = coef[0] if kind is complex else coef[0].real
        assert abs(fit.limit - limit) <= 1e-14
        assert fit.stderr == pytest.approx(stderr, rel=1e-7)
        assert fit.residual_rms == pytest.approx(rms, rel=1e-7)
        limit = _mp_limit(XS, ys, terms)
        limit = limit if kind is complex else limit.real
        assert abs(fit.limit - limit) <= 3e-14


#: the sample layouts a caller hands fit_limit_array: a column of a
#: C-ordered table (every other entry) and one of a Fortran-ordered table
LAYOUTS = {
    "strided": lambda a: np.stack([a, -a], axis=1)[:, 0],
    "fortran": lambda a: np.asfortranarray(np.stack([a, -a], axis=1))[:, 0],
}


def _results(f):
    return (f.limit, f.stderr, f.residual_rms, list(f.coefficients.items()))


@pytest.mark.parametrize("extra", [(-1, 3), (-0.5 + 2j, 0)])
def test_a_fit_does_not_move_with_the_design_layout(extra, monkeypatch):
    # a fit reads the caller's arrays as they are, so no layout may move it
    reached, fit = [], cesaro.tailfit.fit_terms

    def recording_fit(xs, ys, terms):
        reached.append((xs, ys))
        return fit(xs, ys, terms)

    monkeypatch.setattr(cesaro.tailfit, "fit_terms", recording_fit)
    for ys in (_tail(), _tail() + 0j):
        plain = _results(fit_limit_array(XS, ys, [(-1, 2), extra]))
        for name, layout in LAYOUTS.items():
            xs_in, ys_in = layout(XS), layout(ys)
            assert _results(fit_limit_array(xs_in, ys_in,
                                            [(-1, 2), extra])) == plain, name
            assert reached[-1][0] is xs_in and reached[-1][1] is ys_in, name
    assert LAYOUTS["strided"](XS).strides == (2 * XS.itemsize,)
    assert LAYOUTS["fortran"](XS).base.flags.f_contiguous
    # complex samples with a zero imaginary part give the real fit's bits:
    # a real design solves their parts apart, and their imaginary parts are
    # exactly 0; a complex design keeps the constant's imaginary part
    real, complex_ = (fit_limit_array(XS, ys, [(-1, 2), extra])
                      for ys in (_tail(), _tail() + 0j))
    assert (complex_.residual_rms, complex_.stderr) == \
        (real.residual_rms, real.stderr)
    assert complex_.limit.real == real.limit
    assert list(complex_.coefficients.items()) == \
        list(real.coefficients.items())
    if not complex(extra[0]).imag:
        assert complex_.limit.imag == 0
        assert all(c.imag == 0 for c in complex_.coefficients.values())


def test_a_fit_does_not_depend_on_what_its_design_kept():
    # each term set is factored whole, so a design primed with other term
    # sets, the probe's leading terms among them, fits bit for bit as a
    # fresh one
    primed = TailDesign(XS)
    for extras in ([], [(-1, 2)], [(0, 1), (-1, 2)], [(-3, 0)]):
        fit_limit_array(primed, _tail(), extras)
    for ys in (_tail(), _tail() + 1j / XS):
        assert _results(fit_limit_array(primed, ys, [(0, 1)])) == \
            _results(fit_limit_array(TailDesign(XS), ys, [(0, 1)]))


def _alternating_sum():
    # the alternating p-sum at s = -1.5: strong(2), accepted by the fit exit
    return psum_function(SeriesTerms(
        lambda n: (1 if n % 2 else -1) * n ** 1.5, label="alternating(-1.5)",
        array=lambda ns: np.where(ns % 2 == 1, 1.0, -1.0) * ns ** 1.5))


def test_a_driver_factors_each_window_term_set_once_per_process(
        monkeypatch):
    factored, built, fits, qr_calls = [], [], [], []
    factor, column = TailDesign.factor, cesaro.tailfit.term_column
    fit, qr = cesaro.tailfit.fit_terms, np.linalg.qr

    def counting_factor(design, terms):
        key = tuple((complex(e), m) for e, m in terms)
        if key not in design._factors:
            factored.append(((len(design.xs), design.xs[0]), key))
        return factor(design, terms)

    def counting_column(xs, e, m=0):
        built.append((len(xs), xs[0], complex(e), m))
        return column(xs, e, m)

    monkeypatch.setattr(TailDesign, "factor", counting_factor)
    monkeypatch.setattr(cesaro.tailfit, "term_column", counting_column)
    monkeypatch.setattr(cesaro.tailfit, "fit_terms",
                        lambda *a: fits.append(a) or fit(*a))
    monkeypatch.setattr(np.linalg, "qr",
                        lambda *a, **k: qr_calls.append(a) or qr(*a, **k))
    cesaro.tailfit._tail_window.cache_clear()
    assert strong_cesaro_limit(_alternating_sum()).mechanism == "strong(2)"
    windows = {window for window, _ in factored}
    assert len(windows) == 2 and len(fits) >= 3 * len(windows)
    assert len(factored) == len(set(factored)) == len(qr_calls)
    value = tuple((complex(e), m) for e, m in TAIL_TERMS)
    assert {key for _, key in factored} == {value, (*value, (0j, 1))}
    # columns are built only to be factored, each set whole by one QR
    assert len(built) == sum(len(key) for _, key in factored)
    # the windows and their factors outlive the call
    factored.clear(), built.clear(), qr_calls.clear()
    assert strong_cesaro_limit(_alternating_sum()).mechanism == "strong(2)"
    assert factored == [] and built == [] and qr_calls == []


def test_the_kept_factors_and_windows_are_bounded():
    design = TailDesign(XS)
    for j in range(3 * FACTORS_KEPT):
        fit_terms(design, _tail(), [*TAIL_TERMS, (-3 - j, 0)])
    assert len(design._factors) == FACTORS_KEPT
    cesaro.tailfit._tail_window.cache_clear()
    f = psum_function(alt_ones())
    refs = []
    for horizon in range(1000, 1000 + 100 * WINDOWS_KEPT, 100):
        cfg = DEFAULT_CONFIG.with_(horizon=horizon)
        assert strong_cesaro_limit(f, cfg).limit == pytest.approx(0.5)
        assert cesaro_limit_discrete(
            lambda n: 2.0 + 1.0 / n, [], cfg).limit == pytest.approx(2.0)
        refs += [weakref.ref(cesaro.tailfit._tail_window(kind, horizon))
                 for kind in ("means", "nodes", "sequence")]
    gc.collect()
    alive = [r() for r in refs if r() is not None]
    assert len(alive) == WINDOWS_KEPT
    assert all(len(w._factors) <= FACTORS_KEPT for w in alive)
