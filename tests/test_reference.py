"""The present outputs against the committed reference outputs.

On a host whose numerics match the fixtures' fingerprint every file must
match byte for byte; elsewhere (another numpy build, another CPU) only the
statuses and exit codes are compared, and the file comparison is skipped
with the reason.  See ``reference_cases.py`` for the cases and how to
regenerate them.
"""

import numpy as np
import pytest

import pathlift as pl

from reference_cases import CASES, differences, fingerprint, load_index

INDEX = load_index()
NUMERICS = fingerprint()
OTHER_NUMERICS = (
    f"numerics {NUMERICS!r} are not the fixtures' {INDEX['fingerprint']!r}: "
    "statuses and exit codes compared, files not")


def test_every_case_has_a_reference_status():
    assert sorted(INDEX["status"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_the_reference(name):
    status, files = CASES[name]()
    assert status == INDEX["status"][name]
    if NUMERICS != INDEX["fingerprint"]:
        pytest.skip(OTHER_NUMERICS)
    assert differences(name, files) == []


@pytest.mark.skipif(NUMERICS != INDEX["fingerprint"], reason=OTHER_NUMERICS)
def test_a_one_ulp_change_in_j_fails_the_comparison(monkeypatch):
    # the adaptive Brockett-20 lift with every J one ulp up in one entry:
    # the status holds, and the trace moves
    jacobian = pl.EndpointOracle.jacobian

    def nudged(self, u):
        jac = jacobian(self, u).copy()
        jac[0, 0] = np.nextafter(jac[0, 0], np.inf)
        return jac

    monkeypatch.setattr(pl.EndpointOracle, "jacobian", nudged)
    status, files = CASES["acceptance-brockett"]()
    assert status == INDEX["status"]["acceptance-brockett"]
    assert differences("acceptance-brockett", files)


@pytest.mark.skipif(NUMERICS != INDEX["fingerprint"], reason=OTHER_NUMERICS)
def test_a_changed_flag_fails_the_comparison():
    status, files = CASES["acceptance-sphere"]()
    trace = files["trace.csv"]
    files["trace.csv"] = trace.replace(",endgame\n", ",\n", 1)
    assert files["trace.csv"] != trace
    assert differences("acceptance-sphere", files)
