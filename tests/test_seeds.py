"""Seed derivation: stable, collision-averse child seeds per sub-task."""

import pytest

from swarmfl.seeds import derive_seed


def test_same_path_same_seed():
    assert derive_seed(42, "mc", 3) == derive_seed(42, "mc", 3)


def test_different_labels_differ():
    seen = {
        derive_seed(42, "mc", 3),
        derive_seed(42, "mc", 4),
        derive_seed(42, "baseline", 3),
        derive_seed(43, "mc", 3),
        derive_seed(42, 3, "mc"),
    }
    assert len(seen) == 5


def test_string_and_int_parts_distinct():
    assert derive_seed(7, "3") != derive_seed(7, 3)


def test_seed_fits_in_64_bits():
    s = derive_seed(2**80, "x", 999999)
    assert 0 <= s < 2**64


def test_bad_path_part_rejected():
    with pytest.raises(TypeError):
        derive_seed(1, 3.14)


def test_known_pin():
    """Frozen value so any change to the derivation scheme is loud."""
    assert derive_seed(20240501, "sim-run", 0) == 5693613384622650527
