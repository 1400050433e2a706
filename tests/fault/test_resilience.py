"""Campaign resilience: chaos kills, deadlines, SIGKILL + resume."""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.exec import CHAOS_ENV, SupervisedPool
from repro.fault import (
    CampaignError,
    FaultableGateSimulator,
    GateFaultInjector,
    OUTCOMES,
    RtlFaultInjector,
    generate_fault_list,
    run_campaign,
)
from repro.rtl import RtlSimulator
from tests.fault.test_campaign import config, latching_module, stimulus

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _injector():
    return RtlFaultInjector(RtlSimulator(latching_module()))


class SlowStepInjector(RtlFaultInjector):
    """Injector burning wall-clock per cycle: deadline/kill test dilator.

    It also sleeps once per injection, longer than any deadline these
    tests set, so a replay overruns however few cycles it simulates (a
    replay that rejoins the golden run stops after a step or two).
    """

    delay = 0.05
    inject_delay = 0.25

    def inject(self, fault):
        time.sleep(self.inject_delay)
        super().inject(fault)

    def step(self, entry):
        time.sleep(self.delay)
        return super().step(entry)


def _slow_injector():
    return SlowStepInjector(RtlSimulator(latching_module()))


class SelectivelySlowInjector(RtlFaultInjector):
    """Crawls only while replaying faults on one target.

    Deadline tests want a *partial* quarantine — some faults timed out,
    the rest classified normally — to pin the summary-rate denominator.
    Like :class:`SlowStepInjector`, a slow replay also sleeps once per
    injection, so it overruns however few cycles it simulates.
    """

    slow_target = "busy"
    delay = 0.05
    _crawl = False

    def inject(self, fault):
        self._crawl = fault.target == self.slow_target
        if self._crawl:
            time.sleep(SlowStepInjector.inject_delay)
        super().inject(fault)

    def clear_faults(self):
        self._crawl = False
        super().clear_faults()

    def step(self, entry):
        if self._crawl:
            time.sleep(self.delay)
        return super().step(entry)


def _selectively_slow_injector():
    return SelectivelySlowInjector(RtlSimulator(latching_module()))


def _faults(n=8):
    return generate_fault_list(_injector(), n, 12, seed=4)


def _oracle(faults):
    return run_campaign(_injector(), stimulus(), faults, config(),
                        design="latcher", seed=4)


class TestChaos:
    def test_chaos_kills_keep_report_byte_identical(self, monkeypatch):
        faults = _faults(12)
        oracle = _oracle(faults)
        monkeypatch.setenv(CHAOS_ENV, "0.3")
        chaotic = run_campaign(None, stimulus(), faults, config(),
                               design="latcher", seed=4, jobs=3,
                               injector_factory=_injector)
        assert chaotic.to_json() == oracle.to_json()
        assert multiprocessing.active_children() == []


class TestInterrupt:
    def test_keyboard_interrupt_leaves_no_children(self, monkeypatch):
        """Regression: Ctrl-C used to orphan pool workers as zombies."""
        def interrupting_poll(self, block):
            raise KeyboardInterrupt

        monkeypatch.setattr(SupervisedPool, "_poll", interrupting_poll)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(None, stimulus(), _faults(), config(),
                         design="latcher", seed=4, jobs=2,
                         injector_factory=_injector)
        assert multiprocessing.active_children() == []


class TestStartMethods:
    @pytest.mark.slow
    def test_spawn_smoke_byte_identical(self):
        faults = _faults(6)
        spawned = run_campaign(None, stimulus(), faults, config(),
                               design="latcher", seed=4, jobs=2,
                               injector_factory=_injector,
                               start_method="spawn")
        assert spawned.to_json() == _oracle(faults).to_json()

    def test_unpicklable_factory_is_a_clear_error(self):
        with pytest.raises(CampaignError, match="pickle"):
            run_campaign(None, stimulus(), _faults(), config(),
                         design="latcher", seed=4, jobs=2,
                         injector_factory=lambda: _injector(),
                         start_method="spawn")


class TestDeadlines:
    def test_sequential_timeout_quarantines(self):
        faults = _faults(2)
        result = run_campaign(_slow_injector(), stimulus(), faults,
                              config(), design="latcher", seed=4,
                              fault_timeout=0.05, max_retries=1)
        assert result.records == []
        assert len(result.errors) == 2
        assert all(err["error"] == "timed_out" for err in result.errors)
        assert result.errors[0]["fault"] == faults[0].as_dict()
        assert result.exec_stats["quarantined"] == 2
        assert result.exec_stats["timeouts"] == 4  # one retry per fault
        assert result.exec_stats["timeout_retries"] == 2
        doc = result.as_dict()
        assert [err["error"] for err in doc["errors"]] == ["timed_out"] * 2
        assert doc["injected"] == 0

    def test_parallel_timeout_quarantines(self):
        faults = _faults(2)
        result = run_campaign(None, stimulus(), faults, config(),
                              design="latcher", seed=4, jobs=2,
                              injector_factory=_slow_injector,
                              fault_timeout=0.2, max_retries=0)
        assert result.records == []
        assert len(result.errors) == 2
        assert result.exec_stats["quarantined"] == 2
        assert multiprocessing.active_children() == []

    def test_quarantine_detail_names_the_fault_under_every_executor(self):
        """Regression: worker processes named the task index instead.

        ``jobs=1`` wrote ``"seu:busy[0]@7 exceeded ..."`` while ``jobs=2``
        wrote ``"task[0] exceeded ..."``, so the two quarantined
        reports differed.  Both must name the fault.
        """
        faults = _faults(2)
        reports = [
            run_campaign(_slow_injector(), stimulus(), faults, config(),
                         design="latcher", seed=4, jobs=jobs,
                         injector_factory=_slow_injector,
                         fault_timeout=0.05, max_retries=0)
            for jobs in (1, 2)
        ]
        assert reports[0].to_json() == reports[1].to_json()
        assert reports[1].exec_stats["jobs"] == 2
        assert [err["detail"] for err in reports[0].errors] == [
            f"{f.kind}:{f.target}[{f.bit}]@{f.cycle} exceeded its 0.05s "
            "deadline" for f in faults
        ]

    def test_clean_run_has_no_errors_section(self):
        result = _oracle(_faults(2))
        assert result.errors == []
        assert "errors" not in result.as_dict()
        assert result.exec_stats["quarantined"] == 0

    def test_all_quarantined_rates_are_zero(self):
        result = run_campaign(_slow_injector(), stimulus(), _faults(2),
                              config(), design="latcher", seed=4,
                              fault_timeout=0.05, max_retries=0)
        assert result.records == []
        assert result.outcome_rates() == {k: 0.0 for k in OUTCOMES}

    def test_partial_quarantine_rates_use_simulated_denominator(self):
        """Regression: rates divided by the full fault-list length.

        Quarantined faults were never classified, so counting them in
        the denominator understated every outcome share.  Rates must be
        taken over ``len(records)``, and the totals must reconcile:
        classified + quarantined == the injected fault list.
        """
        faults = list(dict.fromkeys(_faults(12)))  # dedup: 1 record each
        result = run_campaign(_selectively_slow_injector(), stimulus(),
                              faults, config(), design="latcher", seed=4,
                              fault_timeout=0.05, max_retries=0)
        assert result.errors, "no fault hit the deadline"
        assert result.records, "every fault hit the deadline"
        assert len(result.records) + len(result.errors) == len(faults)
        assert all(err["fault"]["target"] == "busy"
                   for err in result.errors)
        rates = result.outcome_rates()
        counts = result.outcomes
        simulated = len(result.records)
        assert rates == {k: counts[k] / simulated for k in OUTCOMES}
        assert sum(rates.values()) == pytest.approx(1.0)


RESUME_SCRIPT = textwrap.dedent("""\
    import sys
    from tests.fault.test_campaign import config, stimulus
    from tests.fault.test_resilience import SlowStepInjector, _faults, \\
        _slow_injector
    from repro.fault import run_campaign

    SlowStepInjector.delay = 0.05
    run_campaign(_slow_injector(), stimulus(), _faults(), config(),
                 design="latcher", seed=4, journal=sys.argv[1])
""")


class TestJournalResume:
    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = (f"{REPO_ROOT}/src:{REPO_ROOT}:"
                             + env.get("PYTHONPATH", ""))
        return env

    def test_sigkill_midflight_then_resume_byte_identical(self, tmp_path):
        faults = _faults()
        oracle = _oracle(faults)
        total = oracle.exec_stats["simulated"]
        journal = tmp_path / "campaign.jsonl"
        script = tmp_path / "victim.py"
        script.write_text(RESUME_SCRIPT)
        victim = subprocess.Popen(
            [sys.executable, str(script), str(journal)],
            cwd=REPO_ROOT, env=self._env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # Wait for two durable records (header + meta + 2), then
            # SIGKILL: no atexit, no cleanup, exactly like the OOM killer.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if (journal.exists()
                        and len(journal.read_bytes().splitlines()) >= 4):
                    break
                if victim.poll() is not None:
                    pytest.fail("victim campaign finished before the kill")
                time.sleep(0.01)
            else:
                pytest.fail("victim campaign never journaled two records")
            os.kill(victim.pid, signal.SIGKILL)
        finally:
            victim.wait()

        resumed = run_campaign(_injector(), stimulus(), faults, config(),
                               design="latcher", seed=4,
                               journal=str(journal), resume=True)
        assert resumed.to_json() == oracle.to_json()
        hits = resumed.exec_stats["journal_hits"]
        assert hits >= 2  # the killed run's work was not thrown away
        assert resumed.exec_stats["simulated"] == total - hits

    def test_full_resume_simulates_nothing(self, tmp_path):
        faults = _faults(4)
        journal = tmp_path / "campaign.jsonl"
        first = run_campaign(_injector(), stimulus(), faults, config(),
                             design="latcher", seed=4, journal=str(journal))
        resumed = run_campaign(None, stimulus(), faults, config(),
                               design="latcher", seed=4,
                               journal=str(journal), resume=True)
        assert resumed.to_json() == first.to_json()
        assert resumed.exec_stats["simulated"] == 0
        assert (resumed.exec_stats["journal_hits"]
                == first.exec_stats["simulated"])

    def test_resume_requires_journal(self):
        with pytest.raises(ValueError, match="journal"):
            run_campaign(_injector(), stimulus(), [], config(), resume=True)

    def test_resume_with_stale_journal_restarts(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        faults = _faults(3)
        run_campaign(_injector(), stimulus(), faults, config(),
                     design="latcher", seed=4, journal=str(journal))
        # A different campaign (other seed → other fault list) must not
        # trust the stale journal: fingerprint mismatch → fresh start.
        other = generate_fault_list(_injector(), 3, 12, seed=9)
        result = run_campaign(_injector(), stimulus(), other, config(),
                              design="latcher", seed=9,
                              journal=str(journal), resume=True)
        assert result.exec_stats["journal_hits"] == 0
        assert result.exec_stats["simulated"] > 0


class SlowGateInjector(GateFaultInjector):
    """Gate-level wall-clock dilator for the collapse-resume kill test."""

    delay = 0.01

    def step(self, entry):
        time.sleep(self.delay)
        return super().step(entry)


def _collapse_circuit_injector(slow=False, seed=0):
    from tests.fault.test_collapse_property import _collapse_circuit

    cls = SlowGateInjector if slow else GateFaultInjector
    return cls(FaultableGateSimulator(_collapse_circuit(seed),
                                      backend="compiled"))


def _collapse_faults(seed=0):
    from tests.fault.test_collapse_property import _fault_list

    return _fault_list(_collapse_circuit_injector(seed=seed), seed)


COLLAPSE_RESUME_SCRIPT = textwrap.dedent("""\
    import sys
    from tests.fault.test_resilience import (SlowGateInjector,
        _collapse_circuit_injector, _collapse_faults)
    from tests.fault.test_collapse_property import _config, _stimulus
    from repro.fault import run_campaign

    SlowGateInjector.delay = 0.01
    run_campaign(_collapse_circuit_injector(slow=True), _stimulus(0),
                 _collapse_faults(), _config(), seed=0, collapse=True,
                 journal=sys.argv[1])
""")


class TestCollapseJournalResume:
    """Regression: journal keys vs collapse-canonicalized fault ids.

    A collapsed campaign simulates equivalence-class representatives
    but the journal serves *faults*; resuming used to miss every entry
    because representative keys and expanded fault keys never matched.
    The fingerprint also deliberately excludes the collapse flag, so
    one journal serves both modes — in either direction.
    """

    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = (f"{REPO_ROOT}/src:{REPO_ROOT}:"
                             + env.get("PYTHONPATH", ""))
        return env

    def _run(self, faults, **kwargs):
        from tests.fault.test_collapse_property import _config, _stimulus

        return run_campaign(_collapse_circuit_injector(), _stimulus(0),
                            faults, _config(), seed=0, **kwargs)

    def test_sigkill_then_resume_collapse_byte_identical(self, tmp_path):
        faults = _collapse_faults()
        oracle = self._run(faults)
        journal = tmp_path / "campaign.jsonl"
        script = tmp_path / "victim.py"
        script.write_text(COLLAPSE_RESUME_SCRIPT)
        victim = subprocess.Popen(
            [sys.executable, str(script), str(journal)],
            cwd=REPO_ROOT, env=self._env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # Wait for two durable records (header + meta + 2), then
            # SIGKILL mid-collapsed-campaign: the journal now holds
            # records keyed by class representatives only.
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if (journal.exists()
                        and len(journal.read_bytes().splitlines()) >= 4):
                    break
                if victim.poll() is not None:
                    pytest.fail("victim campaign finished before the kill")
                time.sleep(0.01)
            else:
                pytest.fail("victim campaign never journaled two records")
            os.kill(victim.pid, signal.SIGKILL)
        finally:
            victim.wait()

        resumed = self._run(faults, collapse=True, journal=str(journal),
                            resume=True)
        assert resumed.to_json() == oracle.to_json()
        assert resumed.exec_stats["journal_hits"] >= 2

    def test_plain_journal_serves_collapsed_resume(self, tmp_path):
        faults = _collapse_faults()
        journal = tmp_path / "campaign.jsonl"
        plain = self._run(faults, journal=str(journal))
        collapsed = self._run(faults, collapse=True, journal=str(journal),
                              resume=True)
        assert collapsed.to_json() == plain.to_json()
        assert collapsed.exec_stats["simulated"] == 0
        assert collapsed.exec_stats["journal_hits"] > 0

    def test_collapsed_journal_serves_plain_resume(self, tmp_path):
        faults = _collapse_faults()
        journal = tmp_path / "campaign.jsonl"
        collapsed = self._run(faults, collapse=True, journal=str(journal))
        plain = self._run(faults, journal=str(journal), resume=True)
        assert plain.to_json() == collapsed.to_json()
        assert plain.exec_stats["simulated"] == 0
