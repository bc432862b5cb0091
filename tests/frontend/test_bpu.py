"""BPU outcome logic, case by case, with crafted BlockRecords."""

import pytest

from repro.core.skia import Skia
from repro.frontend.bpu import BranchPredictionUnit
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.stats import SimStats
from repro.isa.branch import BranchKind
from repro.workloads.trace import BlockRecord


def record(kind, pc=0x1000, taken=True, target=0x2000, branch_len=5,
           n_instr=3):
    return BlockRecord(block_start=pc - 10, n_instr=n_instr, branch_pc=pc,
                       branch_len=branch_len, kind=kind, taken=taken,
                       target=target, fallthrough=pc + branch_len,
                       next_pc=target if taken else pc + branch_len)


def process(bpu, rec, branch_line_in_l1i, stats):
    """Feed one record's fields to the BPU."""
    return bpu.process(rec.block_start, rec.branch_pc, rec.kind, rec.taken,
                       rec.target, rec.fallthrough, branch_line_in_l1i,
                       stats)


@pytest.fixture()
def bpu():
    return BranchPredictionUnit(FrontEndConfig())


@pytest.fixture()
def stats():
    return SimStats()


class TestUndetected:
    def test_uncond_miss_is_decode_resteer(self, bpu, stats):
        prediction = process(bpu, record(BranchKind.DIRECT_UNCOND), True,
                             stats)
        assert not prediction.btb_hit
        assert prediction.resteer == "decode"
        assert prediction.wrong_path_pc == 0x1005
        assert stats.btb_misses[BranchKind.DIRECT_UNCOND] == 1
        assert stats.btb_miss_l1i_hit == 1

    def test_l1i_presence_flag_recorded(self, bpu, stats):
        process(bpu, record(BranchKind.DIRECT_UNCOND), False, stats)
        assert stats.btb_miss_l1i_hit == 0

    def test_call_miss_is_decode_resteer_and_pushes_ras(self, bpu, stats):
        prediction = process(bpu, record(BranchKind.CALL), True, stats)
        assert prediction.resteer == "decode"
        assert bpu.ras.peek() == 0x1005

    def test_return_miss_with_good_ras(self, bpu, stats):
        process(bpu, record(BranchKind.CALL, pc=0x900, target=0x1000), True,
                stats)
        ret = record(BranchKind.RETURN, pc=0x1000, target=0x905,
                     branch_len=1)
        prediction = process(bpu, ret, True, stats)
        assert prediction.resteer == "decode"  # identified at decode
        assert stats.ras_mispredicts == 0

    def test_return_miss_with_empty_ras_is_exec(self, bpu, stats):
        prediction = process(
            bpu, record(BranchKind.RETURN, branch_len=1), True, stats)
        assert prediction.resteer == "exec"
        assert stats.ras_mispredicts == 1

    def test_not_taken_cond_costs_nothing_when_predicted_not_taken(
            self, bpu, stats):
        # Train not-taken first so the direction predictor agrees.
        for _ in range(50):
            process(bpu, record(BranchKind.DIRECT_COND, taken=False), True,
                    stats)
        prediction = process(
            bpu, record(BranchKind.DIRECT_COND, taken=False), True, stats)
        assert prediction.resteer is None

    def test_taken_cond_miss_resteers(self, bpu, stats):
        prediction = process(
            bpu, record(BranchKind.DIRECT_COND, pc=0x7770, taken=True), True,
            stats)
        assert prediction.resteer in ("decode", "exec")

    def test_indirect_miss(self, bpu, stats):
        prediction = process(
            bpu, record(BranchKind.INDIRECT_UNCOND, branch_len=2), True, stats)
        # First sight: ITTAGE cannot know the target -> exec resteer.
        assert prediction.resteer == "exec"


class TestBTBHit:
    def test_uncond_hit_no_resteer(self, bpu, stats):
        rec = record(BranchKind.DIRECT_UNCOND)
        process(bpu, rec, True, stats)       # inserts into BTB
        prediction = process(bpu, rec, True, stats)
        assert prediction.btb_hit
        assert prediction.resteer is None

    def test_call_hit_no_resteer(self, bpu, stats):
        rec = record(BranchKind.CALL)
        process(bpu, rec, True, stats)
        prediction = process(bpu, rec, True, stats)
        assert prediction.resteer is None

    def test_cond_hit_correct_direction(self, bpu, stats):
        rec = record(BranchKind.DIRECT_COND, taken=True)
        for _ in range(50):
            process(bpu, rec, True, stats)
        prediction = process(bpu, rec, True, stats)
        assert prediction.btb_hit
        assert prediction.resteer is None

    def test_cond_hit_mispredict_is_exec(self, bpu, stats):
        rec_taken = record(BranchKind.DIRECT_COND, taken=True)
        for _ in range(50):
            process(bpu, rec_taken, True, stats)
        flipped = record(BranchKind.DIRECT_COND, taken=False)
        prediction = process(bpu, flipped, True, stats)
        assert prediction.btb_hit
        assert prediction.resteer == "exec"
        assert prediction.wrong_path_pc == flipped.target

    def test_return_hit_good_ras(self, bpu, stats):
        process(bpu, record(BranchKind.CALL, pc=0x900, target=0x1000), True,
                stats)
        ret = record(BranchKind.RETURN, pc=0x1000, target=0x905,
                     branch_len=1)
        process(bpu, ret, True, stats)
        process(bpu, record(BranchKind.CALL, pc=0x900, target=0x1000), True,
                stats)
        prediction = process(bpu, ret, True, stats)
        assert prediction.btb_hit
        assert prediction.resteer is None

    def test_indirect_hit_with_stable_target(self, bpu, stats):
        rec = record(BranchKind.INDIRECT_UNCOND, branch_len=2)
        for _ in range(5):
            process(bpu, rec, True, stats)
        prediction = process(bpu, rec, True, stats)
        assert prediction.btb_hit
        assert prediction.resteer is None

    def test_miss_counting_stops_after_insert(self, bpu, stats):
        rec = record(BranchKind.DIRECT_UNCOND)
        process(bpu, rec, True, stats)
        process(bpu, rec, True, stats)
        assert stats.btb_misses[BranchKind.DIRECT_UNCOND] == 1
        assert stats.btb_lookups == 2


class TestSBBHit:
    def make_skia_bpu(self):
        config = FrontEndConfig(skia=SkiaConfig())
        skia = Skia(image=b"\x90" * 64, base_address=0,
                    config=config.skia)
        return BranchPredictionUnit(config, skia=skia), skia

    def test_correct_usbb_hit_avoids_resteer(self, stats):
        bpu, skia = self.make_skia_bpu()
        skia.sbb.insert_unconditional(0x1000, 0x2000)
        prediction = process(bpu, record(BranchKind.DIRECT_UNCOND), True,
                             stats)
        assert not prediction.btb_hit
        assert prediction.sbb_hit == "u"
        assert prediction.resteer is None
        assert prediction.used_sbb
        assert stats.sbb_hits_u == 1
        # The miss is still a BTB miss for MPKI accounting.
        assert stats.btb_misses[BranchKind.DIRECT_UNCOND] == 1

    def test_usbb_hit_marks_retired_on_commit(self, stats):
        bpu, skia = self.make_skia_bpu()
        skia.sbb.insert_unconditional(0x1000, 0x2000)
        process(bpu, record(BranchKind.DIRECT_UNCOND), True, stats)
        entry = skia.sbb.usbb.lookup(0x1000)
        assert entry.retired
        assert stats.sbb_retired_marks == 1

    def test_wrong_target_usbb_hit_is_decode_resteer(self, stats):
        bpu, skia = self.make_skia_bpu()
        skia.sbb.insert_unconditional(0x1000, 0xBAD)
        prediction = process(bpu, record(BranchKind.DIRECT_UNCOND), True,
                             stats)
        assert prediction.resteer == "decode"
        assert not prediction.used_sbb
        assert stats.sbb_wrong_target == 1

    def test_rsbb_hit_with_good_ras(self, stats):
        bpu, skia = self.make_skia_bpu()
        process(bpu, record(BranchKind.CALL, pc=0x900, target=0x1000), True,
                stats)
        skia.sbb.insert_return(0x1000)
        ret = record(BranchKind.RETURN, pc=0x1000, target=0x905,
                     branch_len=1)
        prediction = process(bpu, ret, True, stats)
        assert prediction.sbb_hit == "r"
        assert prediction.resteer is None
        assert prediction.used_sbb

    def test_rsbb_hit_on_non_return_is_bogus(self, stats):
        bpu, skia = self.make_skia_bpu()
        skia.sbb.insert_return(0x1000)
        prediction = process(bpu, record(BranchKind.DIRECT_COND, taken=True),
                             True, stats)
        assert prediction.sbb_hit == "r"
        assert prediction.resteer == "decode"
        assert stats.sbb_wrong_target == 1

    def test_btb_hit_shadows_sbb(self, stats):
        bpu, skia = self.make_skia_bpu()
        rec = record(BranchKind.DIRECT_UNCOND)
        process(bpu, rec, True, stats)   # now in BTB
        skia.sbb.insert_unconditional(0x1000, 0x2000)
        prediction = process(bpu, rec, True, stats)
        assert prediction.btb_hit
        assert prediction.sbb_hit is None


class TestWarmupGating:
    def test_no_stats_when_none(self, bpu):
        prediction = process(bpu, record(BranchKind.DIRECT_UNCOND), True,
                             None)
        assert prediction.resteer == "decode"
        # Structures still trained: second time hits.
        prediction = process(bpu, record(BranchKind.DIRECT_UNCOND), True,
                             None)
        assert prediction.btb_hit
