"""Seeded inputs for the benchmark workloads.

Every workload is an endless stream of op inputs drawn from `--seed` with
Python's `random.Random`, whose sequence does not depend on the numpy
version. Inputs are drawn in shuffled blocks that hold each combination of
the discrete parameters a fixed number of times, so the cost mix of a run
barely moves with the seed; the continuous parameters (s, gamma, chi) are
drawn freely inside each block.
"""

import itertools
import random

WORKLOADS = ("cli", "sweep", "counting", "verify")
IN_PROCESS = ("sweep", "counting")

# Desk-scale windows in t, as in gapspec.verify._T_WINDOWS at the commit
# that defined this benchmark. They are copied rather than imported so that
# a change to the program cannot change the benchmark's inputs.
T_WINDOWS = {"airy": (5.0, 20.0), "bessel": (4.0, 16.0), "sine": (2.0, 10.0)}
BESSEL_ORDERS = (-0.5, 0.0, 0.5, 1.0)
FAMILIES = ("sine", "airy", "bessel")

SWEEP_NS = (160, 300)
# counting: one n=120 op for every two n=300 ops. With an even split the
# median would fall in the gap between the two cost clusters and jump from
# seed to seed.
COUNTING_NS = (120, 300, 300)
COUNTING_TABLE = 12  # E(0..11)
CLI_COMMANDS = ("det", "spectrum", "asymp", "scan")


def wall_limit(seconds):
    """Wall-clock cap of a closed loop, so a program whose ops fail at once
    (and so add almost nothing to the op time) still ends in time."""
    return 2.0 * seconds + 10.0


def s_of_t(family, t):
    if family == "airy":
        return -(t ** (2.0 / 3.0))
    if family == "bessel":
        return t * t
    return t


def _draw_s(rng, family):
    lo, hi = T_WINDOWS[family]
    return s_of_t(family, rng.uniform(lo, hi))


def _draw_gamma(rng):
    # gamma in (0, 1]
    return 1.0 - rng.random()


def _blocks(rng, combos):
    combos = list(combos)
    while True:
        block = combos[:]
        rng.shuffle(block)
        yield from block


def sweep_inputs(seed):
    """build_discretization -> compute_spectrum -> log_fredholm_det points.

    One block is family x (four order slots) x n, so the three families
    carry equal weight and every Bessel order appears once per n.
    """
    rng = random.Random(f"sweep:{seed}")
    combos = itertools.product(FAMILIES, BESSEL_ORDERS, SWEEP_NS)
    for family, a, n in _blocks(rng, combos):
        yield {
            "family": family,
            "a": a if family == "bessel" else 0.0,
            "s": _draw_s(rng, family),
            "n": n,
            "gamma": _draw_gamma(rng),
        }


def counting_inputs(seed):
    """Sine-kernel spectra read through counting_prob for E(0..11)."""
    rng = random.Random(f"counting:{seed}")
    for n in _blocks(rng, COUNTING_NS):
        yield {
            "family": "sine",
            "a": 0.0,
            "s": rng.uniform(1.0, 6.0),
            "n": n,
            "gamma": _draw_gamma(rng),
        }


def _num(x):
    return format(x, ".6g")


def _cli_argv(rng, command, family):
    a = rng.choice(BESSEL_ORDERS) if family == "bessel" else 0.0
    order = ["--a", _num(a)] if family == "bessel" else []
    if command == "asymp":
        s = _draw_s(rng, family)
        chi = rng.uniform(0.0, 0.9)
        argv = ["asymp", "--formula", f"{family}-transition", "--s", _num(s), "--chi", _num(chi)]
    elif command == "scan":
        lo, hi = T_WINDOWS[family]
        grid = sorted(rng.uniform(lo, hi) for _ in range(3))
        s = s_of_t(family, grid[0])
        chi = rng.uniform(0.0, 0.9)
        argv = ["scan", "--kind", "det", "--kernel", family, "--chi", _num(chi),
                "--grid", ",".join(_num(t) for t in grid)]
    else:
        s = _draw_s(rng, family)
        argv = [command, "--kernel", family, "--s", _num(s)]
        argv += ["--gamma", _num(_draw_gamma(rng))] if command == "det" else ["--top", "5"]
    return argv + order, (family, a, float(_num(s)), 80)


def cli_inputs(seed):
    """Short CLI queries at the default n=80, one fresh process each."""
    rng = random.Random(f"cli:{seed}")
    for command, family in _blocks(rng, itertools.product(CLI_COMMANDS, FAMILIES)):
        argv, key = _cli_argv(rng, command, family)
        yield {"argv": argv, "key": key}


def verify_inputs(seed):
    """The fixed acceptance run; the seed has no effect."""
    while True:
        yield {"argv": ["verify"], "key": ("verify",)}


def inputs(workload, seed):
    return {
        "sweep": sweep_inputs,
        "counting": counting_inputs,
        "cli": cli_inputs,
        "verify": verify_inputs,
    }[workload](seed)


def input_key(inp):
    """(family, a, s, n) of an op, used for repeat_share."""
    if "key" in inp:
        return tuple(inp["key"])
    return (inp["family"], inp["a"], inp["s"], inp["n"])


def repeat_share(inps):
    seen = set()
    repeats = 0
    for inp in inps:
        key = input_key(inp)
        repeats += key in seen
        seen.add(key)
    return repeats / len(inps) if inps else 0.0
