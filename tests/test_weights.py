import pytest

from wienerbounds.weights import (
    Monotonicity,
    PowerWeight,
    QWienerWeight,
    TableWeight,
    WeightError,
    classify_monotonicity,
    parse_weight_spec,
    q_bracket,
)


class TestPower:
    def test_identity(self):
        assert PowerWeight(1)(5) == 5

    def test_negative_two(self):
        assert PowerWeight(-2)(2) == 0.25

    def test_zero_is_constant_one(self):
        h = PowerWeight(0)
        assert all(h(k) == 1 for k in range(1, 40))

    def test_exactness(self):
        assert PowerWeight(3).exact
        assert PowerWeight(0).exact
        assert not PowerWeight(-1).exact
        assert not PowerWeight(0.5).exact

    @pytest.mark.parametrize("exponent", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_exponent_rejected(self, exponent):
        with pytest.raises(WeightError, match="exponent must be finite"):
            PowerWeight(exponent)

    def test_exact_values_are_ints(self):
        v = PowerWeight(4)(7)
        assert isinstance(v, int) and v == 2401

    def test_rejects_bad_k(self):
        for exponent in (1, 0, -1, 0.5):
            for k in (0, -1, -3, 1.5, "2"):
                with pytest.raises(WeightError) as info:
                    PowerWeight(exponent)(k)
                assert str(info.value) == f"weight functions are defined for integer k >= 1, got {k!r}"


class TestQBracket:
    def test_geometric_sum_small(self):
        assert QWienerWeight(0.5, 1)(3) == pytest.approx(1.75, abs=0)

    def test_bracket_identity(self):
        for q in (0.5, 0.9, 1.1, 2.0):
            for k in range(1, 33):
                geometric = sum(q**i for i in range(k))
                assert q_bracket(q, k) == pytest.approx(geometric, rel=1e-12)

    def test_limit_toward_one(self):
        for q in (1 - 1e-6, 1 + 1e-6):
            for k in range(1, 33):
                assert abs(q_bracket(q, k) - k) <= k * k * abs(q - 1)

    def test_variant_kernels(self):
        q = 0.5
        assert QWienerWeight(q, 3)(2) == pytest.approx(q_bracket(q, 2) * q**2)
        h2 = QWienerWeight(q, 2, diameter=4)
        assert h2(1) == pytest.approx(q_bracket(q, 1) * q**3)

    def test_variant2_needs_diameter(self):
        h = QWienerWeight(0.5, 2)
        with pytest.raises(WeightError):
            h(1)
        assert h.with_diameter(3)(1) == pytest.approx(0.25)

    def test_invalid_q(self):
        with pytest.raises(WeightError):
            QWienerWeight(1.0, 1)
        with pytest.raises(WeightError):
            QWienerWeight(-0.5, 1)
        with pytest.raises(WeightError):
            QWienerWeight(0.5, 4)
        with pytest.raises(WeightError):
            QWienerWeight(float("inf"), 1)

    @pytest.mark.parametrize("variant", [1, 3])
    def test_only_variant_2_takes_a_diameter(self, variant):
        with pytest.raises(WeightError, match="only variant 2 takes a diameter"):
            QWienerWeight(0.5, variant, diameter=3)
        with pytest.raises(WeightError, match="only variant 2 takes a diameter"):
            QWienerWeight(0.5, variant).with_diameter(3)

    @pytest.mark.parametrize("h", [QWienerWeight(1e100, 3), QWienerWeight(1e100, 2, diameter=5)])
    def test_a_product_past_a_double_raises_as_pow_does(self, h):
        # at k = 3, [3]_q is about 1e200 and q^3 (or q^(5-3)) at most 1e300:
        # each factor is a double, their product is not
        with pytest.raises(OverflowError, match="overflows a double at k=3"):
            h(3)


class TestTable:
    def test_lookup(self):
        h = TableWeight((2.0, 4.0, 8.0))
        assert h(1) == 2.0
        assert h(3) == 8.0

    def test_out_of_range(self):
        with pytest.raises(WeightError):
            TableWeight((1.0,))(2)

    def test_empty_rejected(self):
        with pytest.raises(WeightError):
            TableWeight(())

    @pytest.mark.parametrize("values", [(1.0, float("inf")), (float("nan"),)])
    def test_non_finite_value_rejected(self, values):
        with pytest.raises(WeightError, match="finite values"):
            TableWeight(values)


class TestMonotonicity:
    def test_power_increasing(self):
        assert classify_monotonicity(PowerWeight(2), 10) is Monotonicity.STRICTLY_INCREASING

    def test_power_decreasing(self):
        assert classify_monotonicity(PowerWeight(-1), 10) is Monotonicity.STRICTLY_DECREASING

    def test_tie_is_neither(self):
        assert classify_monotonicity(TableWeight((1, 1, 2)), 3) is Monotonicity.NEITHER

    def test_constant_is_neither(self):
        assert classify_monotonicity(PowerWeight(0), 5) is Monotonicity.NEITHER

    def test_q3_small_q_decreasing(self):
        # [k]_q q^k shrinks for q = 0.5 on any finite window
        assert classify_monotonicity(QWienerWeight(0.5, 3), 8) is Monotonicity.STRICTLY_DECREASING

    def test_damped_kernel_classified_per_instance(self):
        # nothing assumes a direction for the damped kernel; it is classified
        # numerically, and on these windows it comes out increasing both for
        # q < 1 (both factors grow) and q > 1 ([k]_2 2^(6-k) = 64 - 2^(6-k))
        h_small_q = QWienerWeight(0.5, 2, diameter=6)
        h_large_q = QWienerWeight(2.0, 2, diameter=6)
        assert classify_monotonicity(h_small_q, 6) is Monotonicity.STRICTLY_INCREASING
        assert classify_monotonicity(h_large_q, 6) is Monotonicity.STRICTLY_INCREASING

    def test_needs_domain(self):
        with pytest.raises(WeightError):
            classify_monotonicity(PowerWeight(1), 1)


class TestSpecParsing:
    def test_power_int_exact(self):
        h = parse_weight_spec("power:2")
        assert isinstance(h, PowerWeight) and h.exponent == 2 and h.exact

    def test_power_float(self):
        h = parse_weight_spec("power:2.5")
        assert h.exponent == 2.5 and not h.exact

    def test_q_variants(self):
        assert parse_weight_spec("q1:0.5") == QWienerWeight(0.5, 1)
        assert parse_weight_spec("q3:2") == QWienerWeight(2.0, 3)
        assert parse_weight_spec("q2:0.5") == QWienerWeight(0.5, 2)
        assert parse_weight_spec("q2:0.5:6") == QWienerWeight(0.5, 2, 6)

    def test_table(self):
        assert parse_weight_spec("table:1,2,3.5") == TableWeight((1.0, 2.0, 3.5))

    def test_descriptions_roundtrip(self):
        for spec in ("power:1", "power:-2", "q1:0.5", "q2:0.5:6", "q3:2.0", "table:1.0,2.0"):
            assert parse_weight_spec(parse_weight_spec(spec).description) == parse_weight_spec(spec)

    def test_rejects_garbage(self):
        for bad in ("power", "power:x", "q4:2", "q2:0.5:1:2", "table:", "nope:1",
                    "power:nan", "power:1e400", "q1:inf", "q3:-inf", "table:1,inf",
                    "q2:0.5:x", "q2:0.5:1.5", "q2:0.5:", "q2:0.5:-3"):
            with pytest.raises(WeightError):
                parse_weight_spec(bad)
