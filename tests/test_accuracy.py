"""How close the printed floats land to the true values of their formulas.

Every field of ``sensors.atomic_floor``'s report is held to an mpmath
evaluation, at 60 digits, of its formula as the docstrings of
``erlab.sensors``, ``erlab.species`` and ``bounds.spin_temperature`` state
it, over drawn species and cells from the catalog's range out to
extreme spins, masses, cross sections, densities and volumes; a draw that
``atomic_floor`` refuses must raise ValueError.  The six closed forms of
``erlab.bounds``, ``invert_sigma_v``, ``atomic_psd``, ``squid_erl``,
``diamond_erl``, ``measured_erl_from_psd``, ``erl_ratio``, the three
``erlab.species`` helpers and
``spinsim.scheme_variance`` are held the same way over draws from each
argument's physical range, and ``spinsim.analytic_variance`` at horizons
from 1e-8 to 3.  Each budget, in
units in the last place of the true value, is the largest error measured
over 200,000 seeded draws from the same ranges (400,000 for the closed
forms, in two seeds), rounded up, and then fixed here; for the report
fields, 30,000 examples of the property test found no larger one."""

import contextlib
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from erlab import bounds, sensors, species, spinsim
from erlab.species import Species
from erlab.units import constants

mpmath = pytest.importorskip("mpmath")
mpf = mpmath.mpf

# ulps of the true value, per AtomicErlReport field
_REPORT_BUDGETS = {
    "atom_count": 0.5,
    "relaxation_time": 4,
    "delta_B_floor": 6,
    "erl_hbar": 6,
    "kappa": 5,
    "kappa_bare": 6,
    "spin_temperature": 8,
    # n ** (-2/3) and n ** (-1/3) raise n to a rounded exponent: an error of
    # about 2e-17 ln(n) relative, 10 ulp and more at n = 1e30
    "correlation_atoms": 32,
    "correlation_volume": 33,
    "collision_time": 13,
    "sd_phase": 8,
    "delta_B_uncertainty_check": 5,
    "psd": 6,
}
_VARIANCE_BUDGET = 2


def _ulps(value: float, exact) -> float:
    return float(abs(mpf(value) - exact) / math.ulp(float(exact)))


def _mp_constants() -> dict:
    """Each constant's float, exactly, as an mpf of the working precision."""
    return {name: mpf(value) for name, value in constants()._asdict().items()}


def _exact_report(sp: Species, n: float, V: float) -> dict:
    """The true value of each report field, from the species' and cell's
    floats and the constants, by the formulas of ``erlab.sensors``."""
    with mpmath.workdps(60):
        c = _mp_constants()
        k = int(2 * sp.nuclear_spin)
        mu = c["mu_B"] / (mpf(3 + k * (k + 2)) / 3)  # mu_B / q
        v_bar = mpmath.sqrt(8 * c["k_B"] * mpf(sp.reference_temperature_K) / (mpmath.pi * mpf(sp.mass_kg) / 2))
        sigma, n, V = mpf(sp.sd_cross_section_m2), mpf(n), mpf(V)
        N = n * V
        tau = 1 / (n * sigma * v_bar)
        delta_B = mpmath.pi / (2 * mpmath.ln(2)) * c["hbar"] * sigma * v_bar * mpmath.sqrt(N) / (mu * V)
        kappa_bare = c["hbar"] * sigma * v_bar / (c["mu_0"] * mu**2)
        correlation_atoms = (c["hbar"] * v_bar / (c["mu_0"] * mu**2)) ** 2 * sigma * n ** (mpf(-2) / 3)
        collision_time = n ** (mpf(-1) / 3) / v_bar
        return {
            "atom_count": N,
            "relaxation_time": tau,
            "delta_B_floor": delta_B,
            "erl_hbar": mpmath.pi**2 / (8 * mpmath.ln(2) ** 2) * kappa_bare,
            "kappa": 3 * mpmath.pi / (4 * mpmath.ln(2)) * kappa_bare,
            "kappa_bare": kappa_bare,
            "spin_temperature": mu * mpmath.sqrt(N) * delta_B / c["k_B"],
            "correlation_atoms": correlation_atoms,
            "correlation_volume": correlation_atoms / n,
            "collision_time": collision_time,
            "sd_phase": mpmath.sqrt(collision_time / tau),
            "delta_B_uncertainty_check": c["hbar"] / (mu * tau * mpmath.sqrt(N)),
            "psd": delta_B * mpmath.sqrt(tau),
        }


def _log_uniform(low: float, high: float):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


def _species_and_cell(spin, mass, sigma, temperature, density, volume):
    return st.tuples(
        st.builds(Species, st.just("X"), spin, mass, sigma, temperature), density, volume)


_CASES = st.one_of(
    # around the catalog: spins 0 to 9/2, 6 to 250 amu, cells of the published range
    _species_and_cell(st.integers(0, 9).map(lambda k: Fraction(k, 2)), _log_uniform(1e-26, 4e-25),
                      _log_uniform(1e-22, 1e-16), st.floats(200, 600), _log_uniform(1e14, 1e24),
                      _log_uniform(1e-12, 1e-2)),
    # far from it, where most cells are refused: spins to 1e140, and tiny cross sections
    _species_and_cell(_log_uniform(0.5, 1e140).map(lambda spin: Fraction(round(2 * spin), 2)),
                      _log_uniform(1e-30, 1e-20),
                      _log_uniform(1e-300, 1e-10), _log_uniform(1, 1e4), _log_uniform(1, 1e30),
                      _log_uniform(1e-20, 1e5)),
)


def _fields_over_budget(sp: Species, n: float, V: float) -> dict:
    """Each field of the report of the cell ``(sp, n, V)`` that is over its
    budget, with its error in ulps; a refused cell's ValueError propagates."""
    report = sensors.atomic_floor(sensors.VaporCell(sp, n, V))
    exact = _exact_report(sp, n, V)
    errors = {name: _ulps(value, exact[name]) for name, value in vars(report).items()}
    return {name: e for name, e in errors.items() if e > _REPORT_BUDGETS[name]}


@settings(max_examples=300, deadline=None)
@given(case=_CASES)
# far outside the catalog, a plain product of the report's formulas is
# subnormal on the way to a normal field: mu tau in delta_B_uncertainty_check,
# and hbar v_bar in correlation_atoms and correlation_volume
@example(case=(Species("X", Fraction(201, 2), 1.0035258335919918e-20, 3.146990431839827e+287,
                       1.2500884492130165e-39), 1.5494009075547035e+26, 3.0656160671992546e-25))
@example(case=(Species("X", Fraction(3566434272291726899626819161423872), 2.358827851736266e+296,
                       4.4851736247311595e+205, 4.831053084229988e-251), 1.1045733187477845e+27,
               5.706147765188512e-16))
def test_every_report_field_is_within_its_budget_of_the_formula(case):
    with contextlib.suppress(ValueError):  # a refused cell
        assert _fields_over_budget(*case) == {}, case


# the faint.json species of the CLI's tests, a cross section of 1e-281 cm^2:
# the plain product hbar sigma_v is subnormal, but the report is in range,
# in its cell and in table1's
@pytest.mark.parametrize("n,V", [(1e10, 1e-10), (1e20, 1e-5)])
def test_a_faint_species_is_within_budget(n, V):
    faint = Species("X", Fraction(10**66), 86.72 * constants().atomic_mass, 1e-281 * 1e-4, 300.0)
    assert _fields_over_budget(faint, n, V) == {}


def _scheme_variance(config: spinsim.SimConfig):
    """sum_k c_k^2 du / N over the K steps of ``config``, c_k = 1 - e^(-u_k) at
    the midpoints u_k = (k + 1/2) du, summed as the geometric series of e^(-u_k)
    and e^(-2 u_k) it is."""
    K = config.step_count
    if K == 0:
        return mpf(0)
    du = mpf(config.horizon) / K
    q = mpmath.exp(-du)
    total = K - 2 * mpmath.exp(-du / 2) * (1 - q**K) / (1 - q) + q * (1 - q ** (2 * K)) / (1 - q**2)
    return total * du / config.atom_count


def _slowing_factor(I):
    """q = [S(S+1) + I(I+1)] / [S(S+1)] with S = 1/2."""
    return (mpf(3) / 4 + I * (I + 1)) / (mpf(3) / 4)


# each closed form of ``bounds``, ``invert_sigma_v``, ``atomic_psd``, the SQUID
# and diamond evaluators, ``erl_ratio``, the species helpers and the scheme
# variance: the strategy of each argument, from its physical range, its true
# value as the function's docstring states it, and its budget in ulps
_CLOSED_FORMS = {
    bounds.measurement_work_bound: (
        (_log_uniform(1e-3, 1e4), _log_uniform(1e-12, 1e2)),
        lambda c, T, I: c["k_B"] * T * I, 1.5),
    bounds.ml_min_time: (
        (_log_uniform(1e-300, 1e300),),
        lambda c, E: mpmath.pi * c["hbar"] / (2 * E), 1.5),
    bounds.erl_quantum: (
        (_log_uniform(1e-18, 1e-3), _log_uniform(1e-20, 1e5), _log_uniform(1e-12, 1e3)),
        lambda c, dB, V, tau: dB**2 * V * tau / (2 * c["mu_0"] * c["hbar"]), 3.5),
    bounds.field_fluctuation_from_work: (
        (_log_uniform(1e-40, 1e-10), _log_uniform(1e-20, 1e5)),
        lambda c, W, V: mpmath.sqrt(2 * c["mu_0"] * W / V), 1.5),
    bounds.spin_temperature: (
        (_log_uniform(1, 1e30), _log_uniform(1e-18, 1e-3), _log_uniform(1e-30, 1e-20)),
        lambda c, N, B, mu: mu * mpmath.sqrt(N) * B / c["k_B"], 3),
    bounds.spin_temp_polarization: (
        (_log_uniform(1e-9, 1e4), _log_uniform(1e-18, 1e2), _log_uniform(1e-30, 1e-20)),
        lambda c, T_s, B, mu: mpmath.tanh(mu * B / (2 * c["k_B"] * T_s)), 3.5),
    sensors.invert_sigma_v: (
        (_log_uniform(1e-18, 1e-3), _log_uniform(1e-30, 1e-20), _log_uniform(1e-20, 1e5), _log_uniform(1, 1e30)),
        lambda c, dB, mu, V, N: dB * mu * V * 2 * mpmath.ln(2) / (mpmath.pi * c["hbar"] * mpmath.sqrt(N)), 4.5),
    sensors.atomic_psd: (
        (_log_uniform(1e-18, 1e-3), _log_uniform(1e-12, 1e3)),
        lambda c, dB, tau: dB * mpmath.sqrt(tau), 1.5),
    sensors.squid_erl: (
        (st.builds(sensors.SquidSpec, _log_uniform(1e-12, 0.9), _log_uniform(1e-3, 1e3),
                   _log_uniform(1e-12, 1e3), st.none()),),
        lambda c, spec: -mpf(spec.flux_noise_fraction) * mpmath.ln(spec.flux_noise_fraction)
        * c["k_B"] * spec.bath_temperature * spec.measurement_time / c["hbar"], 4.5),
    sensors.diamond_erl: (
        (_log_uniform(1e-3, 1e4), _log_uniform(1e-12, 1e3)),
        lambda c, T, tau: c["k_B"] * T * mpmath.ln(2) * tau / c["hbar"], 3.5),
    sensors.measured_erl_from_psd: (
        (_log_uniform(1e-18, 1e-6), _log_uniform(1e-20, 1e5)),
        lambda c, psd, V: psd**2 * V / (2 * c["mu_0"] * c["hbar"]), 3),
    sensors.erl_ratio: (
        (_log_uniform(1e-3, 1e12), _log_uniform(1e-3, 1e12)),
        lambda c, measured, predicted: measured / predicted, 0.5),
    species.slowing_factor: (
        (st.one_of(st.integers(0, 9), _log_uniform(0.5, 1e155).map(round)).map(lambda k: Fraction(k, 2)),),
        lambda c, spin: _slowing_factor(mpf(spin.numerator) / spin.denominator), 0.5),
    species.magnetic_moment: (
        (_log_uniform(1, 1e300),),
        lambda c, q: c["mu_B"] / q, 0.5),
    species.mean_relative_velocity: (
        (_log_uniform(1e-30, 1e-20), st.one_of(st.just(0.0), _log_uniform(1e-3, 1e4))),
        lambda c, m, T: mpmath.sqrt(8 * c["k_B"] * T / (mpmath.pi * m / 2)), 2),
    spinsim.scheme_variance: (
        (st.builds(spinsim.SimConfig, _log_uniform(1, 1e30), st.just(1.0), st.just(1),
                   st.integers(10, 10_000), st.one_of(st.just(0.0), _log_uniform(1e-3, 10)), st.just(0)),),
        lambda c, config: _scheme_variance(config), 8),
}


def _within_budget(fn, args) -> bool:
    """Whether ``fn(*args)`` lands within its budget of the true value of its
    formula, at 60 digits; a ValueError of a refused input propagates."""
    value = fn(*args)
    _, formula, budget = _CLOSED_FORMS[fn]
    with mpmath.workdps(60):
        exact = formula(_mp_constants(), *(mpf(a) if isinstance(a, float) else a for a in args))
    return _ulps(value, exact) <= budget


@pytest.mark.parametrize("fn", _CLOSED_FORMS, ids=lambda fn: fn.__name__)
def test_every_closed_form_is_within_its_budget_of_the_formula(fn):
    @settings(max_examples=50, deadline=None)
    @given(args=st.tuples(*_CLOSED_FORMS[fn][0]))
    def check(args):
        with contextlib.suppress(ValueError):  # a refused draw
            assert _within_budget(fn, args), args

    check()


# Far outside the physical ranges a plain left-to-right product would
# underflow to a subnormal, keeping few of its bits, or overflow, on the way
# to a result in range; the exponent is carried apart from the mantissas,
# so each of these returns its result, within its budget.
@pytest.mark.parametrize("fn,args", [
    pytest.param(fn, args, id=fn.__name__) for fn, args in (
        (bounds.measurement_work_bound, (1.7126066504888335e-300, 7.733205038807439e+238)),
        (bounds.field_fluctuation_from_work, (1.0000000000001308e-300, 64080.380600826335)),
        (bounds.field_fluctuation_from_work, (1e308, 1e-308)),
        (bounds.field_fluctuation_from_work, (1e-300, 1e300)),
        (bounds.spin_temp_polarization, (1e-320, 1e-30, 1.5)),
        (sensors.invert_sigma_v, (1.2345e-300, 1e-20, 1e290, 1.0)),
        (sensors.diamond_erl, (1.0028027744046987e-179, 2.912524795397796e-122)),
        (species.mean_relative_velocity, (1e-30, 1e-300)),
        (species.mean_relative_velocity, (1e-320, 1e300)),
        (species.mean_relative_velocity, (5e-324, 0.5)),  # a mass whose half is 0 as a float
    )
])
def test_out_of_range_intermediates_stay_in_budget(fn, args):
    assert _within_budget(fn, args)


@pytest.mark.parametrize("h", [1e-8, 1e-6, 1e-4, 1e-3, 0.1, 0.5, 1.0, 3.0])
def test_analytic_variance_is_within_its_budget_of_the_closed_form(h):
    with mpmath.workdps(60):
        x = mpf(h)
        exact = x + 2 * mpmath.exp(-x) - mpmath.exp(-2 * x) / 2 - mpf(3) / 2
    assert _ulps(spinsim.analytic_variance(1.0, h), exact) <= _VARIANCE_BUDGET
