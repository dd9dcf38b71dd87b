"""Context state machine and source process tests.

The expected transitions are transcribed here a second time, row by row, as
guard/target rules.  The exhaustive checks require that exactly one rule
fires for every input and that the implementation agrees with it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdrohc.core import (
    ACTIONS,
    ACTION_COUNT,
    CompressorAction,
    HeaderLengths,
    HeaderType,
    SourceDynamics,
    decompressor_step,
    source_step,
)
from bdrohc.channels import GilbertElliotConfig, ObsNoiseConfig
from bdrohc.env import EnvConfig, RohcEnv

IR, CO7, CO3 = HeaderType.IR, HeaderType.CO7, HeaderType.CO3


def rule_table_next(v, w, header, tx, comp):
    """Independent transcription of the transition rules.  Returns the
    unique target; asserts exactly one guard holds."""
    if v <= w - 1:
        rules = [
            (0, tx == 1 and (comp == 1 or header != CO3)),
            (v + 1, tx == 0 and comp == 1),
            (w, comp == 0 and (tx == 0 or header == CO3)),
        ]
    elif v == w:
        rules = [
            (0, tx == 1 and header != CO3),
            (w, not (tx == 1 and header != CO3)),
        ]
    elif v == w + 1:
        rules = [
            (0, tx == 1 and header == IR),
            (w + 1, not (tx == 1 and header == IR)),
        ]
    else:
        raise AssertionError("bad state")
    hits = [target for target, guard in rules if guard]
    assert len(hits) == 1, f"guards not exclusive at v={v} w={w} h={header} tx={tx} c={comp}"
    return hits[0]


def all_cases(w):
    for v in range(w + 2):
        for header in HeaderType:
            for tx in (0, 1):
                for comp in (0, 1):
                    yield v, header, tx, comp


class TestDecompressorStep:
    @pytest.mark.parametrize("w,expected_cases", [(5, 84), (1, 36)])
    def test_exhaustive_against_rule_table(self, w, expected_cases):
        count = 0
        for v, header, tx, comp in all_cases(w):
            count += 1
            want = rule_table_next(v, w, header, tx, comp)
            got = decompressor_step(v, header, tx, comp, w)
            assert got == want, f"v={v} w={w} h={header.name} tx={tx} c={comp}"
        assert count == expected_cases

    def test_ir_into_no_context_recovers(self):
        w = 5
        nxt = decompressor_step(w + 1, IR, 1, 1, w)
        assert nxt == 0

    def test_failed_co3_slides_one_level(self):
        nxt = decompressor_step(2, CO3, 0, 1, 5)
        assert nxt == 3

    def test_co3_cannot_leave_repair(self):
        w = 5
        nxt = decompressor_step(w, CO3, 1, 1, w)
        assert nxt == w

    def test_co7_cannot_leave_no_context(self):
        w = 5
        nxt = decompressor_step(w + 1, CO7, 1, 1, w)
        assert nxt == w + 1

    def test_fresh_context_stays_on_success(self):
        nxt = decompressor_step(0, CO3, 1, 1, 5)
        assert nxt == 0

    def test_success_iff_level_zero(self):
        cfg = EnvConfig(
            lengths=HeaderLengths(20, 60, 15, 1),
            channel=GilbertElliotConfig(5.0, 0.5, 0.9, 0.3),
            noise=ObsNoiseConfig(0.0, 0.0),
            source=SourceDynamics.first_order(0.5, 0.3),
            w=5,
            delay=2,
            horizon=400,
        )
        env = RohcEnv(cfg)
        env.reset(0)
        rng = np.random.default_rng(1)
        levels = set()
        for _ in range(cfg.horizon):
            out = env.step(ACTIONS[int(rng.integers(ACTION_COUNT))])
            assert out.decode_success == (out.decomp_state == 0)
            assert (out.reward > 0) == out.decode_success
            levels.add(out.decomp_state)
        assert levels == set(range(cfg.w + 2))

    def test_zero_reachable_from_every_state(self):
        w = 5
        for v in range(w + 2):
            if v == w + 1:
                headers = [IR]
            elif v == w:
                headers = [IR, CO7]
            else:
                headers = list(HeaderType)
            reached = {
                decompressor_step(v, h, 1, 1, w) for h in headers
            }
            assert 0 in reached

    def test_failure_is_monotone_while_compressible(self):
        w = 5
        for v in range(w - 1):
            for header in HeaderType:
                nxt = decompressor_step(v, header, 0, 1, w)
                assert nxt == v + 1

    def test_no_context_traps_compressed_headers(self):
        w = 5
        for header in (CO7, CO3):
            for tx in (0, 1):
                for comp in (0, 1):
                    nxt = decompressor_step(w + 1, header, tx, comp, w)
                    assert nxt == w + 1

    @given(
        w=st.integers(min_value=1, max_value=8),
        header=st.sampled_from(list(HeaderType)),
        tx=st.integers(min_value=0, max_value=1),
        comp=st.integers(min_value=0, max_value=1),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_matches_rule_table_for_random_w(self, w, header, tx, comp, data):
        v = data.draw(st.integers(min_value=0, max_value=w + 1))
        want = rule_table_next(v, w, header, tx, comp)
        got = decompressor_step(v, header, tx, comp, w)
        assert got == want


class TestTypes:
    def test_header_codes(self):
        assert [int(h) for h in HeaderType] == [0, 1, 2]
        with pytest.raises(ValueError):
            HeaderType(3)

    def test_header_lengths_order_enforced(self):
        HeaderLengths(20, 60, 15, 1)
        with pytest.raises(ValueError):
            HeaderLengths(20, 15, 60, 1)
        with pytest.raises(ValueError):
            HeaderLengths(0, 60, 15, 1)
        with pytest.raises(ValueError):
            HeaderLengths(20, 60, 15, 0)

    def test_header_length_lookup(self):
        lengths = HeaderLengths(20, 60, 15, 1)
        assert lengths.header_bits(IR) == 60
        assert lengths.header_bits(CO7) == 15
        assert lengths.header_bits(CO3) == 1

    def test_action_space_is_six_distinct(self):
        assert ACTION_COUNT == 6
        assert len(set(ACTIONS)) == 6
        for i, a in enumerate(ACTIONS):
            assert a.index == i

    def test_w_one_degenerate_allowed(self):
        # w = 1: level 0 is the only full-context level, 1 repair, 2 none
        assert decompressor_step(0, CO3, 1, 1, 1) == 0
        assert decompressor_step(0, CO3, 0, 1, 1) == 1
        assert decompressor_step(1, CO3, 1, 1, 1) == 1
        assert decompressor_step(1, CO7, 1, 1, 1) == 0
        assert decompressor_step(2, CO7, 1, 1, 1) == 2
        assert decompressor_step(2, IR, 1, 1, 1) == 0


class TestSource:
    def test_first_order_encoding(self):
        dyn = SourceDynamics.first_order(1.0, 0.1)
        assert dyn.p_one == (1.0, 0.9)

    def test_dynamics_validation(self):
        with pytest.raises(ValueError):
            SourceDynamics(1, (0.5,))
        with pytest.raises(ValueError):
            SourceDynamics(1, (1.5, 0.5))
        with pytest.raises(ValueError):
            SourceDynamics(0, ())

    def test_zero_always_recovers(self):
        # P(1 | 0) = 1 makes the step deterministic out of state 0
        dyn = SourceDynamics.first_order(1.0, 0.1)
        rng = np.random.default_rng(0)
        for _ in range(50):
            history, bit = source_step(0, dyn, rng)
            assert bit == 1
            assert history == 1

    def test_one_leaves_at_expected_rate(self):
        dyn = SourceDynamics.first_order(1.0, 0.1)
        rng = np.random.default_rng(1)
        drops = 0
        n = 200_000
        for _ in range(n):
            _, bit = source_step(1, dyn, rng)
            drops += 1 - bit
        assert abs(drops / n - 0.1) < 0.005

    def test_constant_source(self):
        dyn = SourceDynamics.constant(1)
        rng = np.random.default_rng(2)
        history = 1
        for _ in range(100):
            history, bit = source_step(history, dyn, rng)
            assert bit == 1 and history == 1

    def test_second_order_window_shift(self):
        dyn = SourceDynamics(2, (1.0, 1.0, 1.0, 1.0))
        rng = np.random.default_rng(3)
        # newest bit 0, previous 1 -> history 0b10; the new bit enters as
        # bit 0 and the oldest bit falls off the two-bit window
        history, bit = source_step(0b10, dyn, rng)
        assert bit == 1
        assert history == 0b01

    def test_second_order_history_indexing(self):
        # index = newest bit + 2 * previous bit
        dyn = SourceDynamics(2, (0.0, 1.0, 0.0, 0.0))
        rng = np.random.default_rng(4)
        _, bit = source_step(0b01, dyn, rng)  # newest 1, older 0
        assert bit == 1
        _, bit = source_step(0b10, dyn, rng)  # newest 0, older 1
        assert bit == 0
