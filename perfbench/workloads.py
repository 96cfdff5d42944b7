"""Seeded call streams for the four workloads, and the per-call correctness gate.

Every workload is an endless stream of ``Call`` records drawn from a
``random.Random`` keyed by workload name and seed.  The mix of call kinds is a
fixed cycle, so every seed gives the same composition and cost profile; the
seed only moves the parameter values inside each slot of the cycle.  That keeps
run-to-run spread low.  No call in any stream is expected to fail.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from itertools import count

from catbell.experiment import BELL_VISIBILITY_THRESHOLD, ChannelParams, attenuate
from catbell.protocols import success_prob, visibility

LOSS_DB_PER_KM = 0.15
SOURCE_RATE_HZ = 1e9
SWEEP_AXES = ("distance_km_total", "alpha", "phi_rad", "delta_sigma_rad")
SWEEP_SERVE_STEPS = 200
CLI_SWEEP_STEPS = 20

# Criterion 04's agreement limit between the branch pipeline and the closed form.
CLOSED_FORM_TOL = 1e-10
# Frozen counts of the reference session (usd2, 400 km, seed 12345, 10^4 s).
FROZEN_REFERENCE = (53120, 8182)
REFERENCE_FLAGS = {"protocol": "usd2", "distance_km_total": 400.0, "seed": 12345,
                   "duration_s": 10000.0}


class GateError(Exception):
    """A call returned, but its output failed the correctness gate."""


@dataclass
class Call:
    kind: str                      # catbell subcommand
    flags: dict                    # flag name (underscored) -> value; the gate reads these too
    bins_out: str | None = None    # --bins-out path for montecarlo sessions
    label: str = ""                # groups failures in the report

    @property
    def argv(self) -> list[str]:
        argv = [self.kind]
        for key, value in self.flags.items():
            argv += ["--" + key.replace("_", "-"), repr(value) if isinstance(value, float) else str(value)]
        if self.bins_out is not None:
            argv += ["--bins-out", self.bins_out]
        return argv + ["--output", "json"]


def _source(rng: random.Random, which: str) -> dict:
    # alpha^2 phi^2 <= 0.18 < 2/8, so the rate falls monotonically with distance.
    return {
        "protocol": which,
        "alpha": rng.uniform(60.0, 120.0),
        "phi_rad": rng.uniform(0.002, 0.0035),
        "loss_db_per_km": LOSS_DB_PER_KM,
    }


def _link(rng: random.Random, which: str, lo_km: float, hi_km: float) -> dict:
    return {**_source(rng, which), "distance_km_total": rng.uniform(lo_km, hi_km)}


def _sweep(rng: random.Random, which: str, axis: str, steps: int) -> Call:
    flags = _link(rng, which, 50.0, 400.0)
    start, stop = {
        # A range sweep starts at the source.  usd4 starts 1 km out: at 0 km its
        # p_min is roundoff of either sign, and a negative one is the known
        # crash in counting_rates, so the call would fail for half the sources.
        "distance_km_total": (0.0 if which == "usd2" else 1.0, rng.uniform(100.0, 500.0)),
        "alpha": (rng.uniform(10.0, 50.0), rng.uniform(100.0, 200.0)),
        "phi_rad": (rng.uniform(0.0005, 0.0015), rng.uniform(0.004, 0.008)),
        "delta_sigma_rad": (0.0, rng.uniform(math.pi, 2.0 * math.pi)),
    }[axis]
    flags.update(axis=axis, start=start, stop=stop, steps=steps)
    return Call("sweep", flags, label=f"{which} {axis}")


def _oracle(rng: random.Random, stratum: float) -> Call:
    """Oracle call at a fresh short link whose surviving amplitude is `stratum`."""
    distance = rng.uniform(1.0, 20.0)
    eta = ChannelParams.from_total(LOSS_DB_PER_KM, distance).transmittance
    # phi sets the usd4 displacements, so it is held near one value: a slot's
    # inputs, and so its cost, then follow the stratum and not the seed.
    flags = {"alpha": stratum / math.sqrt(eta), "phi_rad": rng.uniform(0.099, 0.101),
             "loss_db_per_km": LOSS_DB_PER_KM, "distance_km_total": distance}
    return Call("oracle", flags, label="oracle")


def _plan(rng: random.Random, which: str) -> Call:
    flags = _source(rng, which)
    flags["rate_floor"] = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
    return Call("plan", flags, label=f"plan {which}")


def _session(rng: random.Random, which: str, duration_s: float,
             bins_out: str | None = None) -> Call:
    # The block loop's cost is set by the duration, so it is fixed per slot.
    flags = _link(rng, which, 100.0, 400.0)
    flags.update(seed=rng.randrange(2**31), duration_s=duration_s)
    return Call("montecarlo", flags, bins_out=bins_out, label="montecarlo")


def _strata(rng: random.Random, lo: float, hi: float, n: int = 9):
    """Endless stratum centres of [lo, hi], each nudged by at most 1% of its width.

    Successive strata are four apart (mod n), so any stretch of the cycle spans
    the range evenly.  The call cost follows the stratum, so every seed gets
    the same cost profile; with an odd n the median call falls inside the
    middle stratum rather than on the step between two.  The nudge keeps every
    value, and so every fock cache key, distinct.
    """
    for i in count():
        yield lo + (hi - lo) * ((4 * i) % n + 0.5 + 0.01 * (rng.random() - 0.5)) / n


def sweep_serve(rng: random.Random, out_dir: str):
    # Cycle of 16: usd2, usd2, usd2, usd4 per axis, so usd2:usd4 is 3:1 and
    # every axis is swept by both protocols.
    for i in count():
        which = "usd4" if i % 4 == 3 else "usd2"
        yield _sweep(rng, which, SWEEP_AXES[(i // 4) % 4], SWEEP_SERVE_STEPS)


def oracle_verify(rng: random.Random, out_dir: str):
    # Surviving amplitude |a'| in nine strata of [1.5, 3.5]; the usd4 beam
    # splitter's Fock dimension, and so the call cost, grows with |a'|.
    for amplitude in _strata(rng, 1.5, 3.5):
        yield _oracle(rng, amplitude)


def plan_count(rng: random.Random, out_dir: str):
    # Cycle of 12: nine plans (usd2:usd4 2:1), the reference session, one
    # seeded session, and one seeded session that also writes --bins-out.
    for i in count():
        slot = i % 12
        if slot == 3:
            yield Call("montecarlo", dict(REFERENCE_FLAGS), label="reference session")
        elif slot == 7:
            yield _session(rng, "usd4" if i % 24 == 7 else "usd2", 5000.0)
        elif slot == 11:
            yield _session(rng, "usd2", 5000.0, bins_out=os.path.join(out_dir, f"bins-{i}.csv"))
        else:
            yield _plan(rng, "usd4" if slot % 3 == 2 else "usd2")


def cli_cold(rng: random.Random, out_dir: str):
    # Cycle of 10: rates 3, plan 2, sweep 2, montecarlo 2, oracle 1.
    amplitudes = _strata(rng, 1.0, 2.0)
    for i in count():
        slot = i % 10
        which = ("usd2", "usd4")[(i // 10) % 2]
        if slot in (0, 3, 5):
            yield Call("rates", _link(rng, which, 50.0, 500.0), label="rates")
        elif slot in (1, 6):
            yield _plan(rng, which)
        elif slot in (2, 7):
            yield _sweep(rng, which, SWEEP_AXES[1 + (i // 10) % 3], CLI_SWEEP_STEPS)
        elif slot in (4, 8):
            yield _session(rng, which, 1000.0)
        else:
            yield _oracle(rng, next(amplitudes))


STREAMS = {
    "sweep_serve": sweep_serve,
    "oracle_verify": oracle_verify,
    "plan_count": plan_count,
    "cli_cold": cli_cold,
}

# Length of each stream's cost cycle.  A run times whole cycles only, so every
# run has the same mix of call kinds and costs.  cli_cold's protocol swaps
# every 10 calls, but its calls cost the same for usd2 and usd4.
CYCLES = {"sweep_serve": 16, "oracle_verify": 9, "plan_count": 24, "cli_cold": 10}


def stream(workload: str, seed: int, out_dir: str):
    return STREAMS[workload](random.Random(f"{workload}:{seed}"), out_dir)


# --- correctness gate -------------------------------------------------------

def _closed_form(which: str, alpha: float, distance: float, phi: float, dsig: float) -> float:
    alpha_prime, n_lost = attenuate(alpha, ChannelParams.from_total(LOSS_DB_PER_KM, distance))
    return success_prob(which, alpha_prime, n_lost, phi, dsig)


def _check_sweep(call: Call, data, frozen) -> None:
    f = call.flags
    rows = data if isinstance(data, list) else [data]
    if len(rows) != f["steps"]:
        raise GateError(f"{len(rows)} rows for {f['steps']} steps")
    for row in rows:
        point = {"alpha": f["alpha"], "phi_rad": f["phi_rad"],
                 "distance_km_total": f["distance_km_total"], "delta_sigma_rad": 0.0}
        point[f["axis"]] = row[f["axis"]]
        args = (f["protocol"], point["alpha"], point["distance_km_total"], point["phi_rad"])
        p_max = _closed_form(*args, math.pi)
        expected = {"p_max": p_max, "p_min": _closed_form(*args, 0.0),
                    "p_success": _closed_form(*args, point["delta_sigma_rad"])}
        for key, want in expected.items():
            # Relative to p_max, so cancellation in a near-zero p_min does not count.
            if abs(row[key] - want) > CLOSED_FORM_TOL * p_max:
                raise GateError(f"{key} {row[key]!r} vs closed form {want!r} "
                                f"at {f['axis']}={row[f['axis']]!r}")


def _check_oracle(call: Call, data, frozen) -> None:
    if len(data) != 6 or not all(row["ok"] is True for row in data):
        raise GateError("oracle rows not all ok")


def _feasible(f: dict, distance: float) -> bool:
    alpha_prime, n_lost = attenuate(f["alpha"], ChannelParams.from_total(LOSS_DB_PER_KM, distance))
    rate = success_prob(f["protocol"], alpha_prime, n_lost, f["phi_rad"], math.pi) * SOURCE_RATE_HZ
    return (rate >= f["rate_floor"]
            and visibility(n_lost, f["phi_rad"], exact=True) > BELL_VISIBILITY_THRESHOLD)


def _check_plan(call: Call, data, frozen) -> None:
    distance = data["max_range_km_total"]
    if data["feasible"] is not True or not _feasible(call.flags, distance):
        raise GateError(f"not feasible at returned range {distance!r}")
    if _feasible(call.flags, distance + 0.1):
        raise GateError(f"still feasible 0.1 km beyond returned range {distance!r}")


def _check_montecarlo(call: Call, data, frozen) -> None:
    c_max, c_min = data["counts_max"], data["counts_min"]
    if call.bins_out is not None:
        with open(call.bins_out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        os.remove(call.bins_out)
        sums = (sum(int(r["counts_max"]) for r in rows), sum(int(r["counts_min"]) for r in rows))
        if len(rows) != math.ceil(call.flags["duration_s"]) or sums != (c_max, c_min):
            raise GateError(f"--bins-out rows sum to {sums}, run totals {(c_max, c_min)}")
    if call.flags == REFERENCE_FLAGS and (c_max, c_min) != tuple(frozen):
        raise GateError(f"reference session counts {(c_max, c_min)} != frozen {tuple(frozen)}")
    if c_max + c_min and not math.isclose(data["estimated_visibility"],
                                          (c_max - c_min) / (c_max + c_min), rel_tol=1e-11):
        raise GateError("visibility estimate does not match the counts")


def _check_rates(call: Call, data, frozen) -> None:
    f = call.flags
    args = (f["protocol"], f["alpha"], f["distance_km_total"], f["phi_rad"])
    p_max = _closed_form(*args, math.pi)
    if abs(data["p_max"] - p_max) > CLOSED_FORM_TOL * p_max:
        raise GateError(f"p_max {data['p_max']!r} vs closed form {p_max!r}")


CHECKS = {
    "sweep": _check_sweep,
    "oracle": _check_oracle,
    "plan": _check_plan,
    "montecarlo": _check_montecarlo,
    "rates": _check_rates,
}


def check(call: Call, stdout: str, frozen=FROZEN_REFERENCE) -> None:
    """Raise GateError unless the output of a call that exited 0 passes its check."""
    try:
        data = json.loads(stdout)
    except ValueError as exc:
        raise GateError(f"output is not JSON: {exc}") from None
    CHECKS[call.kind](call, data, frozen)
