"""BPU corner cases: partial-tag aliasing, SBB/BTB interactions."""

import pytest

from repro.core.skia import Skia
from repro.frontend.bpu import BranchPredictionUnit
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.stats import SimStats
from repro.isa.branch import BranchKind
from repro.workloads.trace import BlockRecord


def record(kind, pc=0x1000, taken=True, target=0x2000, branch_len=5):
    return BlockRecord(block_start=pc - 10, n_instr=3, branch_pc=pc,
                       branch_len=branch_len, kind=kind, taken=taken,
                       target=target, fallthrough=pc + branch_len,
                       next_pc=target if taken else pc + branch_len)


def process(bpu, rec, branch_line_in_l1i, stats):
    """Feed one record's fields to the BPU."""
    return bpu.process(rec.block_start, rec.branch_pc, rec.kind, rec.taken,
                       rec.target, rec.fallthrough, branch_line_in_l1i,
                       stats)


class TestBTBAliasing:
    def make_narrow_bpu(self):
        """A BPU whose BTB has 1-bit tags: aliasing is easy to force."""
        config = FrontEndConfig(btb_entries=8, btb_assoc=2, btb_tag_bits=1)
        return BranchPredictionUnit(config)

    def find_alias(self, bpu, pc):
        reference = bpu.btb._index_tag(pc)
        return next(candidate for candidate in range(pc + 2, pc + 100_000, 2)
                    if bpu.btb._index_tag(candidate) == reference)

    def test_false_hit_wrong_kind_counts(self):
        bpu = self.make_narrow_bpu()
        stats = SimStats()
        process(bpu, record(BranchKind.DIRECT_UNCOND, pc=0x1000), True, stats)
        alias = self.find_alias(bpu, 0x1000)
        prediction = process(
            bpu, record(BranchKind.RETURN, pc=alias, branch_len=1), True,
            stats)
        assert stats.btb_false_hits == 1
        assert prediction.btb_hit
        assert prediction.resteer == "decode"

    def test_false_hit_same_kind_wrong_target(self):
        bpu = self.make_narrow_bpu()
        stats = SimStats()
        process(bpu, record(BranchKind.DIRECT_UNCOND, pc=0x1000,
                            target=0xAAAA), True, stats)
        alias = self.find_alias(bpu, 0x1000)
        prediction = process(
            bpu, record(BranchKind.DIRECT_UNCOND, pc=alias, target=0xBBBB),
            True, stats)
        # Same kind, different target: the decoder catches the wrong
        # target (not counted as a kind-mismatch false hit).
        assert prediction.resteer == "decode"

    def test_false_hit_on_not_taken_cond_costs_nothing(self):
        bpu = self.make_narrow_bpu()
        stats = SimStats()
        process(bpu, record(BranchKind.DIRECT_UNCOND, pc=0x1000), True, stats)
        alias = self.find_alias(bpu, 0x1000)
        prediction = process(
            bpu, record(BranchKind.DIRECT_COND, pc=alias, taken=False),
            True, stats)
        assert prediction.resteer is None


class TestSBBAliasInteractions:
    def make_skia_bpu(self):
        config = FrontEndConfig(skia=SkiaConfig())
        skia = Skia(image=b"\x90" * 64, base_address=0, config=config.skia)
        return BranchPredictionUnit(config, skia=skia), skia

    def test_usbb_hit_on_conditional_is_bogus_redirect(self):
        bpu, skia = self.make_skia_bpu()
        stats = SimStats()
        skia.sbb.insert_unconditional(0x1000, 0x2000)
        prediction = process(
            bpu, record(BranchKind.DIRECT_COND, pc=0x1000, taken=True),
            True, stats)
        assert prediction.sbb_hit == "u"
        assert prediction.resteer == "decode"
        assert stats.sbb_wrong_target == 1
        # The conditional still trained the direction predictor.
        assert stats.cond_predictions == 1

    def test_usbb_hit_on_indirect_trains_ittage(self):
        bpu, skia = self.make_skia_bpu()
        stats = SimStats()
        skia.sbb.insert_unconditional(0x1000, 0x2000)
        process(bpu, record(BranchKind.INDIRECT_UNCOND, pc=0x1000,
                            branch_len=2), True, stats)
        assert stats.indirect_predictions == 1

    def test_sbb_entry_becomes_shadowed_after_commit(self):
        """After the branch commits it enters the BTB; the SBB entry is
        no longer consulted on later executions."""
        bpu, skia = self.make_skia_bpu()
        stats = SimStats()
        skia.sbb.insert_unconditional(0x1000, 0x2000)
        first = process(bpu, record(BranchKind.DIRECT_UNCOND), True, stats)
        second = process(bpu, record(BranchKind.DIRECT_UNCOND), True, stats)
        assert first.used_sbb and not second.used_sbb
        assert second.btb_hit

    def test_ras_protected_from_bogus_usbb_returns(self):
        """A u-hit on an actual return must still pop the RAS exactly
        once (stack discipline survives bogus redirects)."""
        bpu, skia = self.make_skia_bpu()
        stats = SimStats()
        process(bpu, record(BranchKind.CALL, pc=0x900, target=0x1000),
                True, stats)
        assert len(bpu.ras) == 1
        skia.sbb.insert_unconditional(0x1000, 0xBAD)
        ret = record(BranchKind.RETURN, pc=0x1000, target=0x905,
                     branch_len=1)
        process(bpu, ret, True, stats)
        assert len(bpu.ras) == 0


class TestCommitBehaviour:
    def test_not_taken_cond_still_inserted_into_btb(self):
        bpu = BranchPredictionUnit(FrontEndConfig())
        stats = SimStats()
        rec = record(BranchKind.DIRECT_COND, taken=False)
        process(bpu, rec, True, stats)
        assert bpu.btb.contains(rec.branch_pc)

    def test_indirect_btb_entry_stores_last_target(self):
        bpu = BranchPredictionUnit(FrontEndConfig())
        stats = SimStats()
        rec = record(BranchKind.INDIRECT_UNCOND, branch_len=2)
        process(bpu, rec, True, stats)
        entry = bpu.btb.lookup(rec.branch_pc)
        assert entry.target == rec.target

    def test_return_btb_entry_has_no_target(self):
        bpu = BranchPredictionUnit(FrontEndConfig())
        stats = SimStats()
        rec = record(BranchKind.RETURN, branch_len=1)
        process(bpu, rec, True, stats)
        assert bpu.btb.lookup(rec.branch_pc).target is None
