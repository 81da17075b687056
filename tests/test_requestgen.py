"""Request wave generation: bundles, seeding, manual mode, wave plans."""

import pytest

from sfcsim.catalog import default_catalog
from sfcsim.requestgen import RequestError, RequestGenerator, schedule_waves

CAT = default_catalog()


def wave(seed=3, n_dcs=5, idx=0, **kw):
    return RequestGenerator(CAT, n_dcs, seed, **kw).generate_wave(idx)


class TestGenerateWave:
    def test_bundle_sizes_within_ranges(self):
        for seed in range(20):
            counts = {}
            for rec in wave(seed):
                counts[rec.type_name] = counts.get(rec.type_name, 0) + 1
            for name, styp in CAT.sfcs.items():
                lo, hi = styp.bundle
                assert lo <= counts.get(name, 0) <= hi

    def test_same_seed_same_wave(self):
        a = wave(11)
        b = wave(11)
        assert [(r.tag, r.type_name, r.src_dc, r.dest_dc, r.bw) for r in a] == \
               [(r.tag, r.type_name, r.src_dc, r.dest_dc, r.bw) for r in b]

    def test_waves_differ_by_index(self):
        gen = RequestGenerator(CAT, 5, 11)
        a = gen.generate_wave(0)
        b = gen.generate_wave(1)
        assert [(r.type_name, r.src_dc, r.dest_dc) for r in a] != \
               [(r.type_name, r.src_dc, r.dest_dc) for r in b]

    def test_purity_per_wave_index(self):
        one = RequestGenerator(CAT, 5, 9)
        one.generate_wave(0)
        second_of_one = one.generate_wave(1)
        two = RequestGenerator(CAT, 5, 9)
        fresh_second = two.generate_wave(1)
        assert [(r.type_name, r.src_dc, r.dest_dc, r.bw) for r in second_of_one] == \
               [(r.type_name, r.src_dc, r.dest_dc, r.bw) for r in fresh_second]

    def test_tags_unique_across_waves(self):
        gen = RequestGenerator(CAT, 5, 4)
        tags = [r.tag for i in range(4) for r in gen.generate_wave(i)]
        assert len(tags) == len(set(tags))
        assert tags == sorted(tags)

    def test_src_dest_distinct(self):
        for rec in wave(7):
            assert rec.src_dc != rec.dest_dc
            assert 0 <= rec.src_dc < 5 and 0 <= rec.dest_dc < 5

    def test_voip_chain_state(self):
        recs = [r for r in wave(5) if r.type_name == "VoIP"]
        assert recs
        r = recs[0]
        assert [v.t_req for v in r.chain] == [6, 3, 7, 3, 6]
        assert all(not v.allocated and v.vnf_dc is None and v.func_id is None
                   for v in r.chain)
        assert r.sfc_dc == r.src_dc

    def test_miot_bandwidth_sampled_in_range(self):
        for seed in range(5):
            for rec in wave(seed):
                if rec.type_name == "MIoT":
                    assert 1.0 <= rec.bw <= 50.0
                elif rec.type_name == "CG":
                    assert rec.bw == 4.0

    def test_bundle_override(self):
        recs = wave(3, bundle_overrides={"VoIP": (2, 2)})
        assert sum(1 for r in recs if r.type_name == "VoIP") == 2

    def test_needs_two_dcs(self):
        with pytest.raises(RequestError):
            RequestGenerator(CAT, 1, 0)
        RequestGenerator(CAT, 1, 0, allow_loopback=True)  # explicit opt-in


class TestManualMode:
    def test_explicit_requests(self):
        gen = RequestGenerator(CAT, 3, 0)
        recs = gen.manual_wave([{"type": "Ind4.0", "src": 0, "dest": 2, "bw": 70}])
        assert len(recs) == 1
        assert recs[0].type_name == "Ind4.0"
        assert [v.vtype for v in recs[0].chain] == ["NAT", "FW"]

    def test_unknown_type(self):
        gen = RequestGenerator(CAT, 3, 0)
        with pytest.raises(RequestError):
            gen.manual_wave([{"type": "nope", "src": 0, "dest": 1}])

    def test_loopback_rejected_by_default(self):
        gen = RequestGenerator(CAT, 3, 0)
        with pytest.raises(RequestError):
            gen.manual_wave([{"type": "CG", "src": 1, "dest": 1}])

    def test_default_packet_len_follows_bandwidth(self):
        gen = RequestGenerator(CAT, 3, 0)
        rec = gen.manual_wave([{"type": "CG", "src": 0, "dest": 1}])[0]
        assert rec.packet_len_mb == rec.bw * 0.001


class TestWavePlan:
    def test_single_wave(self):
        assert schedule_waves([0]).times == (0,)

    def test_four_wave_plan(self):
        assert schedule_waves([0, 2500, 5000, 7500]).times == (0, 2500, 5000, 7500)

    def test_empty_plan_allowed(self):
        assert schedule_waves([]).times == ()

    def test_duplicate_time_rejected(self):
        with pytest.raises(RequestError):
            schedule_waves([0, 0])

    def test_unsorted_rejected(self):
        with pytest.raises(RequestError):
            schedule_waves([100, 0])

    def test_manual_shape_must_match(self):
        with pytest.raises(RequestError):
            schedule_waves([0, 10], manual=[[{"type": "CG", "src": 0, "dest": 1}]])
