import re

from curvecross import validate
from curvecross.config import RunConfig
from curvecross.wavepacket import IdentityReport


def test_full_suite_runs_every_check_in_order(monkeypatch):
    # the suite without quick: the weak-form check on all its energies and
    # test functions, then the wavepacket check (its propagation stubbed
    # with a passing report) and the Raman check, in the order validate
    # prints them
    report = IdentityReport(omega=[10800.0, 11400.0], deviation_g11_elastic=[0.0011, 0.0013],
                            deviation_g11_raman=[0.0017, 0.0012], deviation_g21=[0.0456, 0.0123],
                            absorbed_norm=1.5e-3, max_step_growth=3.25e-9)
    monkeypatch.setattr(validate, "verify_resolvent_identity", lambda *args, **kwargs: report)
    results = validate.run_suite(RunConfig().validate(), quick=False)
    assert [result.name for result in results] == [
        "eigenstate orthonormality", "Wronskian constancy", "weak-form residual",
        "spectral-sum equivalence", "K0-scaling exponents", "wavepacket cross-check",
        "Raman more affected than absorption",
    ]
    assert all(result.passed for result in results), [result.line() for result in results]


def test_raman_is_more_affected_on_the_default_scan(model, grid, config):
    result = validate.check_raman_more_affected(model, grid, config.omega_grid())
    assert result.passed
    assert re.fullmatch(r"D_R = \d+\.\d{4} > D_A = \d+\.\d{4} > 0", result.detail)
