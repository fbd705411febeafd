"""The benchmark's three workloads, driven through public ``repro`` calls.

Importing this module imports the simulator, so ``run.py`` times the
import as part of set-up.  Each workload runs one fixed batch of
simulated time per call on a fresh testbed.  ``run_stock_relay`` and
``run_failover_one`` do not return their testbed, so :func:`captured`
records the model objects a call constructs and the counters are read
from those; the workload checks then cross-check the captured figures
against the experiment's own result.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.core.session import CTMSSession
from repro.experiments import runner
from repro.experiments.baseline import run_stock_relay
from repro.experiments.failover import run_failover_one
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import test_case_b
from repro.experiments.testbed import Testbed
from repro.faults.injectors import FaultInjector
from repro.faults.invariants import StreamInvariantMonitor
from repro.hardware.memory import Region
from repro.measure.pcat import PcatTimestamper
from repro.obs.instrument import DataPathTracer
from repro.obs.span import CATEGORIES, CATEGORY_PLAYOUT, SpanRecorder
from repro.protocols.stack import NetStack, Socket
from repro.sim.units import SEC, US
from repro.unix.process import UserProcess
from repro.workloads.background import BackgroundTraffic

#: The seed whose counters ``pins.json`` holds.
PIN_SEED = 1

#: Classes whose instances a workload call constructs and the counters
#: are read from.
CAPTURED = (
    Testbed,
    UserProcess,
    NetStack,
    Socket,
    PcatTimestamper,
    FaultInjector,
    BackgroundTraffic,
)

#: Data-path categories reported as ``path_us.<category>``.  Test Case B
#: has no playout machine, so its tracer records no playout spans.
PATH_CATEGORIES = tuple(c for c in CATEGORIES if c != CATEGORY_PLAYOUT)

#: DMA into these regions stretches CPU execution (memory contention).
CONTENDED_REGIONS = (Region.SYSTEM, Region.USER)


@contextmanager
def patched(owner, name: str, make: Callable) -> Iterator[None]:
    """Replace ``owner.name`` with ``make(original)`` for the block."""
    had_own = name in vars(owner)
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        if had_own:
            setattr(owner, name, original)
        else:
            delattr(owner, name)


@contextmanager
def captured() -> Iterator[dict]:
    """Record every instance of the ``CAPTURED`` classes built in the block."""
    found: dict = {cls: [] for cls in CAPTURED}

    def recorder(cls):
        def make(init):
            def init_and_record(self, *args, **kwargs):
                init(self, *args, **kwargs)
                found[cls].append(self)

            return init_and_record

        return make

    with ExitStack() as stack:
        for cls in CAPTURED:
            stack.enter_context(patched(cls, "__init__", recorder(cls)))
        yield found


def traced_spans(spans) -> ExitStack:
    """Wrap the public calls in spans (traced pass only).

    ``build``: testbed and host construction; ``establish``: CTMS session
    set-up calls; ``run``: advancing the simulated clock; ``analyse``: the
    PC/AT histogram computation; ``faults.check``: one invariant check.
    """
    stack = ExitStack()
    for owner, name, span in (
        (Testbed, "__init__", "build"),
        (Testbed, "add_host", "build"),
        (CTMSSession, "establish", "establish"),
        (Testbed, "run", "run"),
        (runner, "compute_histograms", "analyse"),
        (StreamInvariantMonitor, "check_now", "faults.check"),
    ):
        stack.enter_context(
            patched(owner, name, lambda fn, span=span: spans.wrap(span, fn))
        )
    return stack


def new_tracer() -> DataPathTracer:
    return DataPathTracer(SpanRecorder())


def path_latency_us(tracer: Optional[DataPathTracer]) -> dict[str, list]:
    """Sim-time span durations (us) per data-path category."""
    by_cat = tracer.recorder.spans_by_category() if tracer is not None else {}
    return {
        cat: [span.duration_ns / US for span in by_cat.get(cat, [])]
        for cat in PATH_CATEGORIES
    }


# ----------------------------------------------------------------------
# counters read from the captured model objects
# ----------------------------------------------------------------------
def model_counters(found: dict) -> dict:
    """Deterministic per-layer counters of one call (all sim-time)."""
    beds = found[Testbed]
    hosts = [h for bed in beds for h in bed.hosts.values()]
    cpus = [h.machine.cpu for h in hosts]
    ledgers = [h.kernel.ledger for h in hosts]
    pools = [h.kernel.mbufs for h in hosts]
    rings = [bed.ring for bed in beds]
    stacks = found[NetStack]
    cpu_busy = [
        h.machine.cpu.utilization(bed.sim.now)
        for bed in beds for h in bed.hosts.values()
    ]
    ring_busy = [bed.ring.utilization(bed.sim.now) for bed in beds]
    frames = sum(r.stats_frames_sent for r in rings)
    dma = [rec for lg in ledgers for rec in lg.dma.items()]
    return {
        "sim.events": sum(bed.sim.stats_events for bed in beds),
        "hardware.irqs": sum(c.stats_irq_count for c in cpus),
        "hardware.irqs_pended": sum(c.stats_irq_pended for c in cpus),
        "hardware.cpu_busy_frac": mean(cpu_busy),
        "hardware.dma_bytes": sum(rec.bytes for _e, rec in dma),
        "hardware.dma_contended": sum(
            rec.copies
            for (src, dst), rec in dma
            if src in CONTENDED_REGIONS or dst in CONTENDED_REGIONS
        ),
        "unix.syscalls": sum(p.stats_syscalls for p in found[UserProcess]),
        "unix.context_switches": sum(c.stats_context_switches for c in cpus),
        "unix.mbuf_allocs": sum(p.stats_allocs for p in pools),
        "unix.mbuf_waits": sum(p.stats_waits for p in pools),
        "unix.mbuf_failures": sum(p.stats_failures for p in pools),
        "unix.cpu_copies": sum(lg.cpu_copy_count() for lg in ledgers),
        "unix.cpu_copy_bytes": sum(lg.cpu_bytes() for lg in ledgers),
        "drivers.tx_packets": sum(h.tr_driver.stats_tx_packets for h in hosts),
        "drivers.tx_queue_peak": max(
            (h.tr_driver.stats_tx_queue_peak for h in hosts), default=0
        ),
        "drivers.rx_dropped_no_mbufs": sum(
            h.tr_driver.stats_rx_dropped_no_mbufs for h in hosts
        ),
        "drivers.stock_overruns": sum(
            d.stats_stock_overruns for h in hosts for d in h.vca_drivers.values()
        ),
        "ring.frames": frames,
        "ring.busy_frac": mean(ring_busy),
        "ring.token_wait_us_per_frame": (
            sum(sum(r.stats_token_wait_ns.values()) for r in rings)
            / frames / 1000 if frames else 0.0
        ),
        "ring.purges": sum(r.stats_purges for r in rings),
        "ring.frames_lost": sum(
            r.stats_frames_lost_to_purge + r.stats_frames_lost_to_fault
            for r in rings
        ),
        "protocols.ip_packets_out": sum(s.ip.stats_packets_out for s in stacks),
        "protocols.udp_in": sum(s.udp.stats_in for s in stacks),
        "protocols.socket_drops": sum(
            s.stats_drops_full_buffer for s in found[Socket]
        ),
        "faults.fired": sum(i.stats_fired for i in found[FaultInjector]),
        "measure.pcat_records": sum(p.stats_records for p in found[PcatTimestamper]),
        "workloads.background_frames": sum(
            b.total_background_frames() for b in found[BackgroundTraffic]
        ),
    }


def mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def digest(material) -> str:
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Outcome:
    """What one workload call produced, beyond the model counters."""

    sourced: int
    delivered: int
    #: Workload-specific counters (control plane, violations).
    counters: dict
    #: The call's outputs, folded into the same-seed digest.
    outputs: object
    #: Failed correctness checks, one line each.
    failures: list


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------
class Workload:
    """One named workload: a public call of fixed simulated length."""

    name: str = ""
    sim_seconds: int = 0
    #: Whether ``call`` accepts a :class:`DataPathTracer`.
    supports_tracer: bool = False

    def call(self, seed: int, duration_ns: int, tracer=None):
        raise NotImplementedError

    def outcome(self, result, found: dict) -> Outcome:
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        """Everything a call does before simulated time advances."""
        self.call(seed, 0)


class CaseB(Workload):
    """Test Case B: the paper's CTMS direct path on a loaded public ring."""

    name = "case_b"
    sim_seconds = 20
    supports_tracer = True

    def call(self, seed, duration_ns, tracer=None):
        return run_scenario(
            test_case_b(duration_ns=duration_ns, seed=seed), tracer=tracer
        )

    def outcome(self, result, found):
        failures = []
        if found[Testbed] != [result.testbed]:
            failures.append("capture: the captured testbed is not the run's")
        h7 = result.histograms[7]
        # The Figure 5-4 bands of benchmarks/test_fig_5_4.py.
        if abs(h7.min() - 10_750 * US) > 220 * US:
            failures.append(f"h7 minimum {h7.min() / US:.0f} us outside 10750+-220")
        if abs(h7.primary_mode() - 10_900 * US) > 400 * US:
            failures.append(
                f"h7 primary mode {h7.primary_mode() / US:.0f} us outside 10900+-400"
            )
        return Outcome(
            sourced=result.transmitter.vca_driver.stats_packets_built,
            delivered=result.tracker.delivered,
            counters={},
            outputs={n: h.samples for n, h in sorted(result.histograms.items())},
            failures=failures,
        )


class Stock(Workload):
    """The stock BSD relay at 150 KB/s with competing hog processes."""

    name = "stock"
    sim_seconds = 30
    rate = 150_000

    def call(self, seed, duration_ns, tracer=None):
        return run_stock_relay(self.rate, duration_ns, seed=seed)

    def outcome(self, result, found):
        failures = []
        if result.works():
            failures.append("stock relay works at 150 KB/s; the paper says it fails")
        (bed,) = found[Testbed]
        tx = bed.hosts["transmitter"]
        for what, ours, theirs in (
            ("periods", tx.vca_adapter.stats_interrupts, result.periods_produced),
            ("overruns", tx.vca_driver.stats_stock_overruns, result.device_overruns),
            (
                "socket drops",
                sum(s.stats_drops_full_buffer for s in found[Socket]),
                result.socket_drops,
            ),
        ):
            if ours != theirs:
                failures.append(f"capture: {what} {ours} != result's {theirs}")
        return Outcome(
            sourced=result.periods_produced,
            delivered=result.packets_delivered,
            counters={},
            outputs={
                "sent": result.packets_sent,
                "delivered": result.packets_delivered,
                "overruns": result.device_overruns,
                "drops": result.socket_drops,
                "sink_writes": result.sink_write_times,
            },
            failures=failures,
        )


class Failover(Workload):
    """Three replicas, four churned sessions, one crash at half time."""

    name = "failover"
    sim_seconds = 20
    mode = "failover"

    def call(self, seed, duration_ns, tracer=None):
        return run_failover_one(self.mode, seed, duration_ns)

    def outcome(self, result, found):
        (bed,) = found[Testbed]
        c = result.control
        violations = sum(len(s.violated) for s in result.sessions)
        failures = []
        if bed.sim.stats_events != result.events:
            failures.append("capture: the captured testbed is not the run's")
        # Every request ends admitted (perhaps after queueing), rejected, or
        # still queued.
        if c["submitted"] != len(result.sessions) or (
            c["admitted"] + c["rejected"] + c["queue_depth"] != c["submitted"]
        ):
            failures.append(f"control plane lost a session: {c}")
        # The golden outcome of the failover campaign, at every seed.
        golden = {"admitted": 2, "shed": 0, "failovers": 1, "stranded": 0}
        if any(c[k] != v for k, v in golden.items()) or violations:
            outcome = {k: c[k] for k in golden}
            failures.append(
                f"failover outcome {outcome} with {violations} violation(s); "
                f"expected {golden} with none"
            )
        servers = [h for name, h in bed.hosts.items() if name.startswith("server")]
        return Outcome(
            sourced=sum(
                d.stats_packets_built for h in servers for d in h.vca_drivers.values()
            ),
            delivered=sum(s.delivered for s in result.sessions),
            counters={
                "core.control.admitted": c["admitted"],
                "core.control.queued": c["queued"],
                "core.control.failovers": c["failovers"],
                "core.control.stranded": c["stranded"],
                "faults.violations": violations,
            },
            outputs=result.as_dict(),
            failures=failures,
        )


WORKLOADS = {w.name: w for w in (CaseB(), Stock(), Failover())}
