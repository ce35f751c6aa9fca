"""Design vector box constraints and flat packing."""

import numpy as np
import pytest

from swarmfl.design import DesignVector


def test_valid_design_passes():
    d = DesignVector(p=np.array([0.1, 0.2]), p_leader=0.3, beta=0.5, v=10.0)
    assert d.validate(p_max=0.5, v_max=20.0) == []


@pytest.mark.parametrize(
    "kwargs, needle",
    [
        (dict(p=np.array([0.0, 0.2]), p_leader=0.3, beta=0.5, v=10.0), "design.p must"),
        (dict(p=np.array([0.1, 0.9]), p_leader=0.3, beta=0.5, v=10.0), "design.p must"),
        (dict(p=np.array([0.1, 0.2]), p_leader=0.6, beta=0.5, v=10.0), "p_leader"),
        (dict(p=np.array([0.1, 0.2]), p_leader=0.3, beta=0.0, v=10.0), "beta"),
        (dict(p=np.array([0.1, 0.2]), p_leader=0.3, beta=1.0, v=10.0), "beta"),
        (dict(p=np.array([0.1, 0.2]), p_leader=0.3, beta=0.5, v=0.0), "v"),
        (dict(p=np.array([0.1, 0.2]), p_leader=0.3, beta=0.5, v=25.0), "v"),
        (dict(p=np.array([np.nan, 0.2]), p_leader=0.3, beta=0.5, v=10.0), "design.p must"),
    ],
)
def test_box_violations_named(kwargs, needle):
    msgs = DesignVector(**kwargs).validate(p_max=0.5, v_max=20.0)
    assert msgs and any(needle in m for m in msgs)


def test_flat_round_trip():
    d = DesignVector(p=np.array([0.11, 0.22, 0.33]), p_leader=0.44, beta=0.5, v=7.5)
    flat = d.as_flat()
    assert flat == pytest.approx(np.array([0.11, 0.22, 0.33, 0.44, 0.5, 7.5]))
    back = DesignVector.from_flat(flat, n_followers=3)
    assert back.p == pytest.approx(d.p)
    assert (back.p_leader, back.beta, back.v) == (d.p_leader, d.beta, d.v)
