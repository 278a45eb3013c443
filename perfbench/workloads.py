"""The benchmark's workloads: input generators, the timed op, references.

Every workload is one user-visible flow driven through public entry
points (``parse_bench``, ``fault_simulate``, ``Protest``).  A workload
object is built from a seed and offers:

* ``op()`` - one timed operation, returning its result;
* ``reference()`` - the same answer computed by an independent path,
  once per seed, before anything is timed;
* ``digest(result)`` - the comparable part of a result, so a timed op
  counts as failed unless its digest equals the reference digest;
* ``stats(result)`` - the simulated statistics recorded in
  :data:`EXPECTED`; a reference that disagrees with them makes the whole
  run incorrect, so a change that alters what the flow computes shows
  up as failed ops, never as a speed-up;
* ``faults`` - the faults one op handles (the throughput numerator).

The circuits are fixed per workload (a canonical generator seed, as a
benchmark suite fixes its circuits): with the DAG's wiring the number
of detectable faults moves between 555 and 803, and with the LFSR seed
the session's stop moves between 6,912 and 15,104 patterns, and the
cost of an op moves with them - seed noise that would drown a
regression.  ``--seed`` varies the parts
that leave the cost alone: the random stimulus of ``netlist_cold``,
the input declaration order of ``protest_e10`` (results are invariant,
checked) and the net and gate names of every circuit.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.cells import Cell
from repro.netlist.bench import parse_bench
from repro.netlist.network import Network
from repro.protest import (
    Protest,
    exact_detection_probabilities,
    optimize_input_probabilities,
    test_length,
)
from repro.simulate import ArtifactStore, PatternSet, fault_simulate

CIRCUIT_SEED = 1986
"""Generator seed of the fixed circuits (the repo's benchmark circuits)."""

NETLIST_GATES = 1000
NETLIST_INPUTS = 64
NETLIST_OUTPUTS = 8
NETLIST_LOCALITY = 64
NETLIST_PATTERNS = 2048

E10_CELL_TRANSISTORS = 12
E10_GATES = 48
E10_OUTPUTS = 4

SESSION_TARGET = 0.71
SESSION_CONFIDENCE = 0.95
SESSION_BUDGET = 1 << 16
SESSION_LFSR_SEED = 7
SESSION_JOBS = 2

PROTEST_CONFIDENCE = 0.999

_SESSION_STATS = {
    "faults": 960,
    "stop_pattern": 13056,
    "covered_weight": 708,
    "satisfied": True,
}
EXPECTED: Dict[str, Dict[str, object]] = {
    "netlist_cold": {"faults": 4000, "classes": 2985},
    "e10_session": _SESSION_STATS,
    "e10_session_sharded": _SESSION_STATS,
    "protest_e10": {
        "faults": 711,
        "uniform_test_length": 46184.0,
        "optimized_test_length": 19020.0,
    },
}
"""Simulated statistics of each workload, identical for every seed."""


def _prefix(seed: int) -> str:
    """A fixed-width, seed-derived name prefix (keeps name order intact)."""
    return f"s{seed % 1000000:06d}_"


# -- input generators ---------------------------------------------------------------


def netlist_bench_text(seed: int) -> str:
    """The ``.bench`` text of the fixed 1,000-gate netlist, nets renamed
    by ``seed``.

    Two-input AND/OR/NAND/NOR gates; one input of every gate comes from
    the trailing window of ``NETLIST_LOCALITY`` nets and one from
    anywhere, so cones overlap the way synthesised logic does.
    """
    rng = random.Random(CIRCUIT_SEED)
    name = _prefix(seed)
    kinds = ("AND", "OR", "NAND", "NOR")
    nets = [f"{name}x{k}" for k in range(NETLIST_INPUTS)]
    lines = [f"INPUT({net})" for net in nets]
    for gate in range(NETLIST_GATES):
        window_start = max(0, len(nets) - NETLIST_LOCALITY)
        a = nets[rng.randrange(window_start, len(nets))]
        b = nets[rng.randrange(len(nets))]
        lines.append(f"{name}n{gate} = {rng.choice(kinds)}({a}, {b})")
        nets.append(f"{name}n{gate}")
    lines.extend(f"OUTPUT({net})" for net in nets[-NETLIST_OUTPUTS:])
    return "\n".join(lines) + "\n"


def e10_cell() -> Cell:
    """E10's twelve-transistor domino AND-OR cell ``a1*a2 + ... + a11*a12``."""
    pins = [f"a{k}" for k in range(1, E10_CELL_TRANSISTORS + 1)]
    terms = [f"{pins[k]}*{pins[k + 1]}" for k in range(0, len(pins), 2)]
    text = (
        "TECHNOLOGY domino-CMOS;\n"
        f"INPUT {','.join(pins)};\n"
        "OUTPUT u;\n"
        f"u := {'+'.join(terms)};\n"
    )
    return Cell.from_text(text, name=f"gate{E10_CELL_TRANSISTORS}")


def e10_network(seed: int, permute_inputs: bool = False) -> Network:
    """The fixed E10 DAG: 48 cells wired at random over 12 inputs.

    Names carry the seed's prefix; ``permute_inputs`` also declares the
    primary inputs in a seed-shuffled order (same function, different
    input vector layout).
    """
    cell = e10_cell()
    rng = random.Random(CIRCUIT_SEED)
    name = _prefix(seed)
    network = Network(f"{name}e10")
    nets: List[str] = [f"{name}x{k}" for k in range(len(cell.inputs))]
    declared = list(nets)
    if permute_inputs:
        random.Random(seed).shuffle(declared)
    for net in declared:
        network.add_input(net)
    for index in range(E10_GATES):
        sources = [rng.choice(nets) for _ in cell.inputs]
        output = f"{name}n{index}"
        network.add_gate(
            f"{name}gate{index}", cell, dict(zip(cell.inputs, sources)), output
        )
        nets.append(output)
    for net in nets[-E10_OUTPUTS:]:
        network.mark_output(net)
    return network


# -- workloads ----------------------------------------------------------------------


class NetlistCold:
    """Parse a ``.bench`` netlist and grade it cold with the vector engine."""

    name = "netlist_cold"

    def __init__(self, seed: int):
        self.text = netlist_bench_text(seed)
        self.pattern_seed = seed
        self.faults = 0  # known once the reference has run

    def _patterns(self, network: Network) -> PatternSet:
        return PatternSet.random(
            network.inputs, NETLIST_PATTERNS, seed=self.pattern_seed
        )

    def op(self):
        network = parse_bench(self.text, name="netlist")
        return fault_simulate(
            network,
            self._patterns(network),
            network.enumerate_faults(),
            engine="vector",
            collapse="on",
            cache=ArtifactStore(),
        )

    def reference(self):
        network = parse_bench(self.text, name="netlist")
        result = fault_simulate(
            network,
            self._patterns(network),
            network.enumerate_faults(),
            engine="compiled",
            collapse="off",
            cache=ArtifactStore(),
        )
        self.faults = result.fault_count
        return result

    @staticmethod
    def digest(result):
        return (
            result.pattern_count,
            sorted(result.detected.items()),
            sorted(result.detection_counts.items()),
            sorted(result.undetected),
        )

    @staticmethod
    def stats(result) -> Dict[str, object]:
        return {
            "faults": result.fault_count,
            "classes": result.collapsed_classes,
            "detected": len(result.detected),
        }

    @staticmethod
    def consumed(result) -> int:
        return result.pattern_count


class E10Session:
    """A confidence-stopped LFSR session on the E10 DAG, in-process."""

    name = "e10_session"
    engine = "vector"
    jobs = None

    def __init__(self, seed: int):
        self.network = e10_network(seed)
        self.faults = len(self.network.enumerate_faults())

    def _session(self, engine, jobs):
        return Protest(self.network).streaming_test_length(
            target_coverage=SESSION_TARGET,
            confidence=SESSION_CONFIDENCE,
            source="lfsr",
            max_patterns=SESSION_BUDGET,
            seed=SESSION_LFSR_SEED,
            engine=engine,
            jobs=jobs,
        )

    def op(self):
        return self._session(self.engine, self.jobs)

    def reference(self):
        # The compiled engine's in-process session: another window core.
        return self._session("compiled", None)

    @staticmethod
    def digest(result):
        return (
            result.pattern_count,
            result.pattern_budget,
            result.fault_count,
            result.detected_weight,
            result.total_weight,
            result.satisfied,
            result.exhausted,
            result.lower_bound,
            result.curve,
        )

    @staticmethod
    def stats(result) -> Dict[str, object]:
        return {
            "faults": result.fault_count,
            "stop_pattern": result.pattern_count,
            "covered_weight": result.detected_weight,
            "satisfied": result.satisfied,
        }

    @staticmethod
    def consumed(result) -> int:
        return result.pattern_count


class E10SessionSharded(E10Session):
    """The same session fanned across a two-worker pool."""

    name = "e10_session_sharded"
    engine = "sharded+vector"
    jobs = SESSION_JOBS

    def reference(self):
        # The in-process vector session: the pool must not move the stop.
        return self._session("vector", None)


class ProtestE10:
    """PROTEST analysis and input-probability optimisation of the E10 DAG."""

    name = "protest_e10"

    def __init__(self, seed: int):
        self.network = e10_network(seed, permute_inputs=True)
        everything = self.network.enumerate_faults()
        probability = exact_detection_probabilities(self.network, everything)
        self.detectable = [
            fault for fault in everything if probability[fault.describe()] > 0.0
        ]
        self.faults = len(self.detectable)

    def op(self):
        tool = Protest(self.network, faults=self.detectable, cache=ArtifactStore())
        report = tool.analyse(confidence=PROTEST_CONFIDENCE)
        optimized = tool.optimize(confidence=PROTEST_CONFIDENCE)
        return report.required_test_length, optimized

    def reference(self):
        # The functional entry points, bypassing the facade; the
        # optimizer's own length is cross-checked by an exact analysis
        # at the optimized distribution.
        store = ArtifactStore()
        uniform = test_length(
            exact_detection_probabilities(self.network, self.detectable, cache=store),
            PROTEST_CONFIDENCE,
        )
        optimized = optimize_input_probabilities(
            self.network, self.detectable, PROTEST_CONFIDENCE, cache=store
        )
        recheck = test_length(
            exact_detection_probabilities(
                self.network,
                self.detectable,
                optimized.optimized_probabilities,
                cache=store,
            ),
            PROTEST_CONFIDENCE,
        )
        if abs(recheck - optimized.optimized_test_length) > 1.0:
            raise AssertionError(
                f"optimizer reports {optimized.optimized_test_length} patterns, "
                f"exact analysis at its distribution needs {recheck}"
            )
        return uniform, optimized

    @staticmethod
    def digest(result):
        uniform, optimized = result
        return (
            uniform,
            optimized.uniform_test_length,
            optimized.optimized_test_length,
            sorted(optimized.optimized_probabilities.items()),
            optimized.sweeps,
        )

    def stats(self, result) -> Dict[str, object]:
        uniform, optimized = result
        return {
            "faults": self.faults,
            "uniform_test_length": uniform,
            "optimized_test_length": optimized.optimized_test_length,
        }

    @staticmethod
    def consumed(result) -> int:
        return 0


WORKLOADS = {
    cls.name: cls for cls in (NetlistCold, E10Session, E10SessionSharded, ProtestE10)
}


def shape_problems(name: str, stats: Dict[str, object]) -> List[str]:
    """Where the reference's statistics differ from :data:`EXPECTED`."""
    expected = EXPECTED[name]
    return [
        f"{name}: {key} is {stats.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if stats.get(key) != value
    ]
