"""AUTOTUNE — batched replies (returnN) and telemetry-fed grain tuning.

Three claims, asserted on this machine:

* a 64-call synchronous aggregate's reply ships >= 1.4x fewer response
  bytes than 64 per-call replies (one status frame + one columnar result
  block versus 64 status frames each carrying its own ReturnMessage);
* over live tcp, ``call_many`` beats the same 64 calls as per-call
  round trips by >= 1.2x on throughput (one wire round trip and one
  mailbox entry instead of 64 of each);
* the telemetry-fed autotuner converges a grain's ``max_calls`` to
  within 2x of the best static setting for the workload, where "best
  static" is the smallest power-of-two batch within 10% of the peak
  measured throughput (the knee of the batching curve — beyond it the
  curve is flat and "best" is measurement noise).

Rates are best-of-ATTEMPTS: a perf guardrail asks "can this machine
still show the effect", so one pass under transient load does not fail
the build, but a real regression fails every attempt.
"""

from __future__ import annotations

import time

from repro.channels.framing import HEADER_SIZE
from repro.channels.services import ChannelServices
from repro.channels.tcp import TcpChannel
from repro.core.grain import AdaptiveGrainController
from repro.core.impl import ImplementationObject
from repro.core.proxy_object import RemoteGrain
from repro.benchlib.tables import format_table
from repro.remoting import RemotingHost
from repro.remoting.messages import ReturnBatch, ReturnMessage
from repro.serialization import BinaryFormatter
from repro.serialization.codec import pack_result_column

CALLS = 64
ATTEMPTS = 3
TRIALS = 4

#: Per-call service time of the convergence workload (seconds) and the
#: number of posted calls per measured run.  The work is a fraction of
#: the per-message wire overhead so the batching setting actually moves
#: throughput: with heavy work the curve is flat from max_calls=1 and
#: "best static" is measurement noise.
WORK_S = 30e-6
SWEEP_CALLS = 192
SWEEP_SETTINGS = (1, 2, 4, 8, 16, 32, 64)


class Service:
    """Deterministic service for the reply benchmarks."""

    def mul(self, a, b):
        return a * b

    def work(self, value):
        deadline = time.perf_counter() + WORK_S
        while time.perf_counter() < deadline:
            pass
        return value


def serve_service(on_execution=None):
    """One tcp host exposing a Service IO; returns (host, io, uri)."""
    host = RemotingHost(name="autotune-server", services=ChannelServices())
    binding = host.listen(TcpChannel(), "127.0.0.1:0")
    io = ImplementationObject(Service(), "Service", on_execution=on_execution)
    host.publish(io, "io")
    return host, io, f"tcp://{binding.authority}/io"


def connect_grain(uri, max_calls=4, tuner=None):
    """Client host + RemoteGrain dialing *uri* over its own tcp channel."""
    services = ChannelServices()
    services.register_channel(TcpChannel())
    client = RemotingHost(name="autotune-client", services=services)
    grain = RemoteGrain(client.get_object(uri), max_calls=max_calls)
    if tuner is not None:
        grain.tuner = tuner
        grain.tuner_class = "Service"
    return client, grain


# -- guardrail 1: response bytes ---------------------------------------------


def reply_sizes(calls: int = CALLS) -> tuple[int, int]:
    """Total response bytes on the wire: per-call replies vs one returnN.

    Both forms are priced as framed STATUS_OK responses — body bytes
    plus one frame header each — exactly what crosses the socket.
    """
    formatter = BinaryFormatter()
    results = [index * 0.5 for index in range(calls)]
    per_call = sum(
        HEADER_SIZE + len(formatter.dumps(ReturnMessage(value=value)))
        for value in results
    )
    batch = ReturnMessage(
        value=ReturnBatch(
            count=calls, results=pack_result_column(results), errors=()
        )
    )
    batched = HEADER_SIZE + len(formatter.dumps(batch))
    return per_call, batched


def test_returnn_reply_ships_fewer_bytes(benchmark):
    per_call, batched = benchmark(reply_sizes)
    ratio = per_call / batched
    print()
    print(
        format_table(
            ["form", "bytes"],
            [
                [f"per-call replies ({CALLS} frames)", per_call],
                ["returnN aggregate (1 frame)", batched],
                ["ratio", round(ratio, 2)],
            ],
            title=f"AUTOTUNE — response bytes, {CALLS} float results",
        )
    )
    assert ratio >= 1.4, (
        f"returnN reply is only {ratio:.2f}x smaller (need >= 1.4x)"
    )


# -- guardrail 2: live round-trip throughput ---------------------------------


def roundtrip_rates(calls: int = CALLS, trials: int = TRIALS) -> dict:
    """Calls/second over live tcp: call_many vs a per-call invoke loop."""
    host, io, uri = serve_service()
    client, grain = connect_grain(uri)
    batch = [((float(index), 3.0), {}) for index in range(calls)]
    expected = [float(index) * 3.0 for index in range(calls)]
    rates = {"call_many": 0.0, "per_call": 0.0}
    try:
        assert grain.call_many("mul", batch) == expected  # warm up
        for _ in range(trials):
            started = time.perf_counter()
            grain.call_many("mul", batch)
            rates["call_many"] = max(
                rates["call_many"],
                calls / (time.perf_counter() - started),
            )
            started = time.perf_counter()
            for args, kwargs in batch:
                grain.call("mul", args, kwargs)
            rates["per_call"] = max(
                rates["per_call"],
                calls / (time.perf_counter() - started),
            )
    finally:
        grain.dispose()
        client.close()
        io.dispose()
        host.close()
    return rates


def test_call_many_beats_per_call_roundtrips(benchmark):
    def best_rates():
        best = {"call_many": 0.0, "per_call": 0.0}
        for _ in range(ATTEMPTS):
            rates = roundtrip_rates()
            if (
                best["per_call"] == 0.0
                or rates["call_many"] / rates["per_call"]
                > best["call_many"] / best["per_call"]
            ):
                best = rates
            if best["call_many"] / best["per_call"] >= 1.2:
                break
        return best

    rates = benchmark.pedantic(best_rates, rounds=1, iterations=1)
    ratio = rates["call_many"] / rates["per_call"]
    print()
    print(
        format_table(
            ["path", "calls/s"],
            [
                ["call_many (returnN)", round(rates["call_many"])],
                ["per-call invokes", round(rates["per_call"])],
                ["ratio", round(ratio, 2)],
            ],
            title=f"AUTOTUNE — {CALLS} sync calls over tcp",
        )
    )
    assert ratio >= 1.2, (
        f"call_many is only {ratio:.2f}x per-call round trips (need >= 1.2x)"
    )


# -- guardrail 3: autotuner convergence --------------------------------------


def _timed_posts(grain, calls: int) -> float:
    """Seconds to post *calls* async invocations and drain them."""
    started = time.perf_counter()
    for index in range(calls):
        grain.post("work", (index,), {})
    grain.drain()
    return time.perf_counter() - started


def static_sweep(grain) -> dict[int, float]:
    """Measured throughput (calls/s) for each static max_calls setting.

    One grain, retuned between runs (its buffer is empty at each
    boundary): disposing per-setting would remote-dispose the shared IO.
    """
    throughput = {}
    for setting in SWEEP_SETTINGS:
        grain.max_calls = setting
        _timed_posts(grain, 32)  # warm up
        elapsed = _timed_posts(grain, SWEEP_CALLS)
        throughput[setting] = SWEEP_CALLS / elapsed
    return throughput


#: A static setting is "as good as the best" when its throughput is
#: within this fraction of the peak — beyond the knee of the batching
#: curve the plateau is scheduler noise and argmax is a dice roll.
KNEE_FRACTION = 0.90


def best_static_setting(throughput: dict[int, float]) -> int:
    """The knee: smallest setting within KNEE_FRACTION of the peak."""
    peak = max(throughput.values())
    for setting in sorted(throughput):
        if throughput[setting] >= KNEE_FRACTION * peak:
            return setting
    return max(throughput)


def measured_overhead_s(grain, rounds: int = 50) -> float:
    """Live per-message cost: one synchronous round trip's wall time.

    The PO sender pays one full round trip per shipped message (the
    mailbox acknowledges admission), so the round trip *is* the
    per-message overhead the packing formula amortizes.  Feeding the
    measured figure to the controller instead of the conservative
    config default is exactly the telemetry-fed loop under test.
    """
    started = time.perf_counter()
    for _ in range(rounds):
        grain.call("mul", (1.0, 2.0), {})
    return (time.perf_counter() - started) / rounds


def adaptive_converged_max_calls(grain) -> int:
    """Post the same workload through a tuner-fed grain; final max_calls."""
    # Two sweeps: the first feeds the per-method EWMA past min_samples,
    # the second lets the retune hook apply it.
    _timed_posts(grain, SWEEP_CALLS)
    _timed_posts(grain, SWEEP_CALLS)
    return grain.max_calls


def convergence_run() -> dict:
    # The controller is constructed only after the transport's real
    # per-message cost is known — deferred below.
    controller = None
    host, io, uri = serve_service(
        on_execution=lambda *args, **kwargs: (
            controller.observe_execution(*args, **kwargs)
            if controller is not None
            else None
        )
    )
    static_client, static_grain = connect_grain(uri, max_calls=1)
    overhead_s = measured_overhead_s(static_grain)
    controller = AdaptiveGrainController(overhead_s=overhead_s)
    tuned_client, tuned_grain = connect_grain(
        uri, max_calls=4, tuner=controller
    )
    try:
        throughput = static_sweep(static_grain)
        best = best_static_setting(throughput)
        adaptive = adaptive_converged_max_calls(tuned_grain)
    finally:
        tuned_grain.dispose()  # remote-disposes the shared IO...
        tuned_client.close()
        try:
            static_grain.dispose()  # ...so this one is local-only cleanup
        except Exception:  # noqa: BLE001 - double remote dispose
            pass
        static_client.close()
        io.dispose()
        host.close()
    return {
        "throughput": throughput,
        "overhead_s": overhead_s,
        "best_static": best,
        "adaptive": adaptive,
        "ratio": adaptive / best,
    }


def test_autotuner_converges_near_best_static(benchmark):
    def best_run():
        last = None
        for _ in range(ATTEMPTS):
            last = convergence_run()
            if 0.5 <= last["ratio"] <= 2.0:
                break
        return last

    run = benchmark.pedantic(best_run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["max_calls", "calls/s"],
            [
                [setting, round(rate)]
                for setting, rate in sorted(run["throughput"].items())
            ]
            + [
                ["best static (knee)", run["best_static"]],
                ["adaptive converged", run["adaptive"]],
            ],
            title=f"AUTOTUNE — {SWEEP_CALLS} posts of {WORK_S * 1e3:.1f} ms work",
        )
    )
    assert 0.5 <= run["ratio"] <= 2.0, (
        f"autotuner converged max_calls={run['adaptive']}, best static is "
        f"{run['best_static']} (need within 2x)"
    )
