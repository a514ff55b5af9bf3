"""Constants resolved at construction follow the inputs they were built from.

The timed path converts its timing constants to picoseconds once — the DDR3
device in ``__init__``, a clock's period in ``__post_init__``, the Flow LUT's
bucket stride and the DLU's bursts per bucket from the configuration — so
the per-event code only adds and compares integers.  These tests pin that
each cached value is the one its own inputs give: no per-preset cache can go
stale, and the value types that gained a cached field still compare, hash
and validate as before.
"""

import dataclasses

import pytest

from repro.core.config import small_test_config
from repro.core.flow_lut import FlowLUT
from repro.core.harness import run_lookup_experiment
from repro.memory.commands import CommandType, MemoryOp, MemoryRequest
from repro.memory.dram import DDR3Device
from repro.memory.timing import DDR3_1066_187E, DDR3_1600, DDR3Geometry
from repro.sim.clock import Clock
from repro.traffic.generators import descriptors_from_keys, random_flow_keys

GEOMETRY = DDR3Geometry()


def _conflict_then_hit(timing):
    """ACT/CAS times of an empty access, a row conflict and a row hit."""
    device = DDR3Device(timing, GEOMETRY, refresh_enabled=False)
    first = device.access(MemoryOp.READ, 0, 1, 0, now_ps=0)
    conflict = device.access(MemoryOp.READ, 0, 2, 0, now_ps=first.cas_ps)
    hit = device.access(MemoryOp.WRITE, 0, 2, 8, now_ps=conflict.cas_ps)
    return first, conflict, hit


@pytest.mark.parametrize("base", [DDR3_1600, DDR3_1066_187E])
def test_device_built_from_overridden_timing_uses_the_overrides(base):
    overridden = base.with_overrides(t_rc=base.t_rc + 11, t_rcd=base.t_rcd + 3, cl=base.cl + 2)
    # Interleave the preset and its override so a cache keyed by preset
    # (or shared between devices) would hand one the other's values.
    plain = _conflict_then_hit(base)
    changed = _conflict_then_hit(overridden)
    again = _conflict_then_hit(base)
    assert plain == again

    first, conflict, hit = changed
    assert conflict.activate_ps - first.activate_ps == overridden.ps(overridden.t_rc)
    assert first.cas_ps - first.activate_ps == overridden.ps(overridden.t_rcd)
    assert first.data_start_ps - first.cas_ps == overridden.ps(overridden.read_latency)
    assert hit.cas_ps - conflict.cas_ps == overridden.ps(overridden.read_to_write)
    assert conflict.activate_ps - plain[0].activate_ps > plain[1].activate_ps - plain[0].activate_ps


def test_refresh_interval_follows_the_device_timing():
    timing = DDR3_1600.with_overrides(t_refi=DDR3_1600.t_refi // 4)
    device = DDR3Device(timing, GEOMETRY, refresh_enabled=True)
    device.access(MemoryOp.READ, 0, 1, 0, now_ps=timing.ps(timing.t_refi) + 1)
    assert device.refreshes == 1
    assert DDR3Device(DDR3_1600, GEOMETRY).access(
        MemoryOp.READ, 0, 1, 0, now_ps=timing.ps(timing.t_refi) + 1
    ).cas_ps < timing.ps(timing.t_refi) + timing.ps(timing.t_rfc)


def test_access_commands_spell_out_the_reservation():
    timing = DDR3_1066_187E
    device = DDR3Device(timing, GEOMETRY, auto_precharge=True, refresh_enabled=False)
    result = device.access(MemoryOp.WRITE, 3, 9, 16, now_ps=0, bursts=3)
    kinds = [command.kind for command in result.commands]
    assert kinds == [CommandType.ACTIVATE] + [CommandType.WRITE] * 3 + [CommandType.PRECHARGE]
    cas = [command for command in result.commands if command.kind is CommandType.WRITE]
    assert [command.column for command in cas] == [16, 16 + timing.bl, 16 + 2 * timing.bl]
    assert [command.issue_ps for command in cas] == [
        result.cas_ps + i * timing.ps(timing.t_ccd) for i in range(3)
    ]
    assert all(command.bank == 3 for command in result.commands)
    assert result.commands[-1].issue_ps == result.close_ps


def test_clock_period_cache_keeps_equality_hash_and_repr():
    a, b = Clock(200e6), Clock(200e6)
    assert a == b and hash(a) == hash(b)
    assert a != Clock(100e6)
    assert repr(a) == "Clock(freq_hz=200000000.0, name='clk')"
    assert Clock(100e6).period_ps == 10_000
    slower = dataclasses.replace(a, freq_hz=400e6)
    assert slower.period_ps == 2_500 and slower.next_edge(1) == 2_500
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.period_ps = 1


def test_memory_request_validation_still_raises():
    with pytest.raises(ValueError):
        MemoryRequest(MemoryOp.READ, -32)
    with pytest.raises(ValueError):
        MemoryRequest(MemoryOp.WRITE, 0, 0)
    request = MemoryRequest(MemoryOp.READ, 64, 2)
    assert request.location is None and request.bursts == 2


def test_bucket_geometry_follows_the_flow_lut_config():
    # 256-bit entries make a 64-byte bucket: two 32-byte bursts per read and
    # a 64-byte stride between bucket addresses.
    config = small_test_config(entry_bits=256)
    assert config.bursts_per_bucket == 2
    lut = FlowLUT(config)
    keys = random_flow_keys(40, seed=5)
    run_lookup_experiment(lut, descriptors_from_keys(keys))
    for dlu, controller in zip(lut.dlus, lut.controllers):
        assert controller.device.reads == 2 * dlu.reads_issued
        assert controller.device.writes == 2 * dlu.writes_issued
    assert lut._bucket_address(3) == 3 * 64
