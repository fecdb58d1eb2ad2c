from __future__ import annotations

import random

import pytest

from ternary_ecc import bounds
from ternary_ecc.bounds import (
    sphere_packing_bound,
    sphere_volume_exact,
    sphere_volume_min,
)
from ternary_ecc.metric import min_dist_b

from oracles import brute_sphere_volume, sphere_volume_min_reference


class TestSphereVolumeExact:
    def test_small_values(self):
        assert sphere_volume_exact(3, 3, 1) == 4
        assert sphere_volume_exact(3, 0, 1) == 7

    def test_radius_zero_is_center_only(self):
        for n in range(0, 7):
            for w in range(n + 1):
                assert sphere_volume_exact(n, w, 0) == 1

    def test_matches_bruteforce(self):
        for n in range(1, 6):
            for w in range(n + 1):
                center = (1,) * w + (0,) * (n - w)
                for r in range(n + 1):
                    assert sphere_volume_exact(n, w, r) == brute_sphere_volume(
                        n, center, r
                    )

    def test_domain(self):
        with pytest.raises(ValueError):
            sphere_volume_exact(3, 4, 1)

    def test_long_center(self):
        # longer than a recursion per coordinate could go; the value is the
        # truncated product of (1 + 2x)^250 (1 + x + x^2)^250
        assert sphere_volume_exact(500, 250, 5) == 1964513228151
        assert sphere_volume_exact(2000, 2000, 4000) == 3**2000

    def test_length_cap(self):
        assert sphere_volume_exact(bounds._MAX_LENGTH, 0, 1) == 1 + 2 * bounds._MAX_LENGTH
        for n in (bounds._MAX_LENGTH + 1, 10**400):
            with pytest.raises(ValueError, match="cap"):
                sphere_volume_exact(n, 1, 1)


class TestSphereVolumeMin:
    def test_reported_values(self):
        assert sphere_volume_min(8, 1) == 9
        assert sphere_volume_min(3, 1) == 4
        assert sphere_volume_min(5, 2) == 21

    def test_equals_recursion_at_full_weight(self):
        for n in range(0, 11):
            for r in range(n + 1):
                assert sphere_volume_min(n, r) == sphere_volume_exact(n, n, r)

    def test_equals_recursion_past_twice_the_length(self):
        for n in range(0, 9):
            for r in range(2 * n + 4):
                assert sphere_volume_min(n, r) == sphere_volume_exact(n, n, r)

    def test_radius_past_float_range(self):
        # past radius 2n the sphere holds every word; the sum stops there
        assert sphere_volume_min(3, 10**400) == 27

    def test_equals_double_sum(self):
        # every radius up to n = 40, both sides of the middle where the
        # recurrence switches to counting the words beyond the radius
        for n in range(41):
            for r in range(2 * n + 2):
                assert sphere_volume_min(n, r) == sphere_volume_min_reference(n, r), (n, r)
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randrange(41, 400)
            r = rng.choice((n - 1, n, rng.randrange(2 * n + 2)))
            assert sphere_volume_min(n, r) == sphere_volume_min_reference(n, r), (n, r)

    def test_length_cap(self):
        assert sphere_volume_min(bounds._MAX_LENGTH, 1) == 1 + bounds._MAX_LENGTH
        for n in (bounds._MAX_LENGTH + 1, 10**400):
            with pytest.raises(ValueError, match="cap"):
                sphere_volume_min(n, 1)

    def test_volume_monotone_in_center_weight(self):
        for n in range(1, 9):
            for w in range(n):
                for r in range(n + 1):
                    assert sphere_volume_exact(n, w, r) >= sphere_volume_exact(
                        n, w + 1, r
                    )


class TestSpherePackingBound:
    def test_golden_values(self):
        assert sphere_packing_bound(8, 4) == 729
        assert sphere_packing_bound(8, 2) == 6561
        assert sphere_packing_bound(5, 3) == 40
        assert sphere_packing_bound(8, 8) == 41

    def test_sound_for_known_codes(self, code_5_21_3, code_5_27_3):
        for code in (code_5_21_3, code_5_27_3):
            assert code.size <= sphere_packing_bound(code.n, min_dist_b(code))

    def test_integer_exact(self):
        # 3^8 / 9 divides exactly; the general case floors
        assert 3**8 % sphere_volume_min(8, 1) == 0
        assert sphere_packing_bound(4, 3) == 81 // sphere_volume_min(4, 1)

    def test_one_word_past_twice_the_length(self):
        # no two words are further apart than dist_b 2n; from d = 4n + 5 on
        # the radius exceeds 2n + 1
        for n in range(1, 9):
            for d in range(2 * n + 1, 4 * n + 7):
                assert sphere_packing_bound(n, d) == 1

    def test_length_cap_refuses_before_any_power(self):
        for n in (bounds._MAX_LENGTH + 1, 100_000_000, 10**400):
            with pytest.raises(ValueError, match="cap"):
                sphere_packing_bound(n, 3)

    def test_domain(self):
        with pytest.raises(ValueError):
            sphere_packing_bound(0, 2)
        with pytest.raises(ValueError):
            sphere_packing_bound(5, 0)
