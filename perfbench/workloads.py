"""Seeded workload generators for the stocs benchmark.

Each generator turns a seed into a set of `.scsp` files (and, for the
evaluate workload, witness policy files) plus the list of ops that the
benchmark runs on them. An op is one `stocs` command line. The program
under test only ever sees the generated files.

The sizes below are the benchmark's own; nothing is shared with the test
suite's generators, whose caps the tests tune.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

# production: a print run over k quarters. Quantities and demands take
# the values 100..500; the cumulative constraint makes every context the
# whole prefix, and expression evaluation the inner loop of the search.
# Probabilities are multiples of 1/PRODUCTION_GRID, so every sum of
# products is exact and the maximum is exactly 1. With arbitrary
# probabilities it can round to just below 1, which stops the fc
# probability-mass bound from pruning (up to 4x more fc_max nodes at
# k = 4), and which instances that hits varies with the seed.
PRODUCTION_DOMAIN = (100, 200, 300, 400, 500)
PRODUCTION_GRID = 32
# Stages -> instances per seed. Op latencies form classes (one per stage
# count and solver entry); the counts put the median inside the k = 3 ops
# and the p90 inside the k = 3 bt_max ops, not on the edge between two
# classes, where it would jump from seed to seed.
PRODUCTION_STAGES = {2: 18, 3: 20, 4: 3}
PRODUCTION_THETA = (0.6, 0.9)                   # stratified over each stage's instances

# inventory: one stock variable per period, so each constraint links only
# neighbouring periods. The maximum lies strictly inside (0, 1).
INVENTORY_ORDER = (0, 1)
INVENTORY_DEMAND = (0, 1, 2)
INVENTORY_DEMAND_P = (0.3, 0.5, 0.2)
INVENTORY_STOCK = (0, 1, 2, 3)
INVENTORY_START = 1
# Periods -> instances per seed, chosen so the median falls inside the
# k = 5 ops and the p90 inside the k = 6 max-mode ops.
INVENTORY_PERIODS = {4: 4, 5: 11, 6: 2}
INVENTORY_THETA_GAP = (0.02, 0.08)              # theta = max -/+ a gap in this range

# random: many small instances, so per-op fixed costs carry the weight.
# Search cost varies widely with the random tables; keeping instances
# small and many keeps one seed's total within a few percent of another's.
RANDOM_INSTANCES = 120
RANDOM_VARIABLES = (8, 10)
RANDOM_DOMAIN = (2, 4)
RANDOM_TABLES = (1, 4)
RANDOM_CPT_SHARE = 1 / 3
RANDOM_ZERO_SHARE = 0.2                         # stochastic variables with a zero-probability value
RANDOM_MAX_LEAVES = 1024                        # product of domain sizes

# evaluate: fixed witness policies walked by eval, approx and optimize.
# Production demands take a seeded permutation of one fixed distribution,
# so that --epsilon expands the same number of branches on every seed.
EVALUATE_PRODUCTION = {3: 1, 4: 2}
EVALUATE_PRODUCTION_UNITS = (1, 3, 6, 10, 12)   # in 1/PRODUCTION_GRID; two lie below epsilon
EVALUATE_INVENTORY = {5: 3}
EVALUATE_SAMPLES = 5000
EVALUATE_EPSILON = 0.1
EVALUATE_TOP_K = 2

WORKLOADS = ("production", "inventory", "random", "evaluate")

WHY = {
    "production": "cumulative expression constraints: search is >95% of each op and "
                  "expression evaluation its inner loop; contexts are whole prefixes",
    "inventory": "one-variable contexts, SAT, UNSAT and the UNSAT max re-run; "
                 "where caching pays and fc and bt diverge most",
    "random": "many short ops on small table instances with CPTs and zero "
              "probabilities, so parse, compile and CLI fixed costs dominate",
    "evaluate": "policy walkers (exact and sampled evaluation, bounds, "
                "expected-value optimization) on fixed witness policies",
}


def _distribution(rng: random.Random, k: int, zero: bool = False) -> list[float]:
    weights = [rng.random() + 0.05 for _ in range(k)]
    if zero:
        weights[rng.randrange(k)] = 0.0
    total = sum(weights)
    return [w / total for w in weights]


def _grid_distribution(rng: random.Random, k: int, grid: int) -> list[float]:
    """k probabilities, each a positive multiple of 1/grid."""
    units = [1] * k
    for _ in range(grid - k):
        units[rng.randrange(k)] += 1
    return [u / grid for u in units]


def _document(name: str, theta: float, variables: list, constraints: list,
              objective: dict | None = None) -> str:
    doc = {"name": name, "theta": theta, "variables": variables,
           "constraints": constraints}
    if objective is not None:
        doc["objective"] = objective
    return json.dumps(doc, indent=1) + "\n"


def production_text(name: str, k: int, probabilities: list[list[float]], theta: float,
                    objective: dict | None = None) -> str:
    """Stage t requires x1+...+xt - s1-...-s(t-1) >= st."""
    variables, constraints = [], []
    for t in range(1, k + 1):
        variables.append({"name": f"x{t}", "kind": "decision",
                          "domain": list(PRODUCTION_DOMAIN)})
        variables.append({"name": f"s{t}", "kind": "stochastic",
                          "domain": list(PRODUCTION_DOMAIN),
                          "probabilities": probabilities[t - 1]})
        made = " + ".join(f"x{i}" for i in range(1, t + 1))
        sold = "".join(f" - s{i}" for i in range(1, t))
        constraints.append({"type": "expr", "text": f"{made}{sold} >= s{t}"})
    return _document(name, theta, variables, constraints, objective)


def inventory_text(name: str, k: int, probabilities: list[list[float]], theta: float,
                   objective: dict | None = None) -> str:
    """Period t orders x_t, sees demand s_t and keeps k_t = k_(t-1) + x_t - s_t."""
    variables, constraints = [], []
    for t in range(1, k + 1):
        variables.append({"name": f"x{t}", "kind": "decision",
                          "domain": list(INVENTORY_ORDER)})
        variables.append({"name": f"s{t}", "kind": "stochastic",
                          "domain": list(INVENTORY_DEMAND),
                          "probabilities": probabilities[t - 1]})
        variables.append({"name": f"k{t}", "kind": "decision",
                          "domain": list(INVENTORY_STOCK)})
        before = str(INVENTORY_START) if t == 1 else f"k{t - 1}"
        constraints.append({"type": "expr", "text": f"k{t} = {before} + x{t} - s{t}"})
    return _document(name, theta, variables, constraints, objective)


def _inventory_probabilities(rng: random.Random, k: int) -> list[list[float]]:
    out = []
    for _ in range(k):
        weights = [p * rng.uniform(0.8, 1.25) for p in INVENTORY_DEMAND_P]
        total = sum(weights)
        out.append([w / total for w in weights])
    return out


def random_text(rng: random.Random, name: str) -> str:
    """8-10 variables, domains of 2-4 values, 1-4 table constraints."""
    while True:
        n = rng.randint(*RANDOM_VARIABLES)
        sizes = [rng.randint(*RANDOM_DOMAIN) for _ in range(n)]
        leaves = 1
        for s in sizes:
            leaves *= s
        if leaves <= RANDOM_MAX_LEAVES:
            break
    kinds = ["decision", "stochastic"] + [rng.choice(("decision", "stochastic"))
                                          for _ in range(n - 2)]
    rng.shuffle(kinds)
    with_cpt = rng.random() < RANDOM_CPT_SHARE
    variables = []
    for i, (kind, size) in enumerate(zip(kinds, sizes)):
        domain = sorted(rng.sample(range(6), size))
        var = {"name": f"v{i}", "kind": kind, "domain": domain}
        if kind == "stochastic":
            if with_cpt and i > 0 and rng.random() < 0.5:
                parent = variables[rng.randrange(i)]
                var["cpt"] = {"parents": [parent["name"]], "rows": [
                    {"given": [w], "probabilities":
                        _distribution(rng, size, rng.random() < RANDOM_ZERO_SHARE)}
                    for w in parent["domain"]]}
            else:
                var["probabilities"] = _distribution(rng, size,
                                                     rng.random() < RANDOM_ZERO_SHARE)
        variables.append(var)
    constraints = []
    for _ in range(rng.randint(*RANDOM_TABLES)):
        scope = rng.sample(variables, rng.randint(1, 3))
        keep = rng.uniform(0.45, 0.9)
        tuples = [list(t) for t in itertools.product(*(v["domain"] for v in scope))
                  if rng.random() < keep]
        if not tuples:
            tuples = [[rng.choice(v["domain"]) for v in scope]]
        constraints.append({"type": "table", "scope": [v["name"] for v in scope],
                            "tuples": tuples})
    return _document(name, round(rng.uniform(0.05, 0.95), 6), variables, constraints)


def _solve_op(path: Path, algorithm: str, mode: str, policy_out: Path | None = None,
              theta: float | None = None) -> dict:
    argv = ["solve", str(path), "--algorithm", algorithm, "--mode", mode]
    if theta is not None:
        argv += ["--theta", repr(theta)]
    if policy_out is not None:
        argv += ["--policy-out", str(policy_out)]
    return {"cmd": "solve", "argv": argv, "entry": f"{algorithm}_{mode}",
            "theta": theta, "policy_out": str(policy_out) if policy_out else None}


class _Builder:
    """Collects the instances and ops of one workload under a directory."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.instances: list[dict] = []
        self.ops: list[dict] = []

    def add_instance(self, name: str, text: str, **info) -> tuple[int, Path]:
        path = self.directory / f"{name}.scsp"
        path.write_text(text, encoding="utf-8")
        self.instances.append({"name": name, "path": str(path), **info})
        return len(self.instances) - 1, path

    def add_op(self, instance: int, op: dict) -> None:
        op["instance"] = instance
        op["id"] = len(self.ops)
        self.ops.append(op)

    def policy_path(self, instance: int, label: str) -> Path:
        return self.directory / f"{self.instances[instance]['name']}.{label}.policy.json"


def _production_probabilities(rng: random.Random, k: int) -> list[list[float]]:
    return [_grid_distribution(rng, len(PRODUCTION_DOMAIN), PRODUCTION_GRID) for _ in range(k)]


def _production(rng: random.Random, b: _Builder) -> None:
    low, high = PRODUCTION_THETA
    for k, count in PRODUCTION_STAGES.items():
        for j in range(count):
            probs = _production_probabilities(rng, k)
            # one theta per equal slice of the range keeps decide costs
            # from bunching up by chance on one seed
            theta = round(low + (high - low) * (j + rng.random()) / count, 6)
            idx, path = b.add_instance(f"production-k{k}-{j}",
                                       production_text(f"production-k{k}-{j}", k, probs, theta),
                                       family="production", k=k, theta=theta)
            for algorithm in ("bt", "fc"):
                for mode in ("max", "decide"):
                    b.add_op(idx, _solve_op(path, algorithm, mode,
                                            b.policy_path(idx, f"{algorithm}-{mode}")))


def _inventory(rng: random.Random, b: _Builder, stocs) -> None:
    for k, count in INVENTORY_PERIODS.items():
        for j in range(count):
            name = f"inventory-k{k}-{j}"
            probs = _inventory_probabilities(rng, k)
            best = stocs.fc_max(stocs.parse_instance(inventory_text(name, k, probs, 0.5)))
            low = round(best.probability - rng.uniform(*INVENTORY_THETA_GAP), 6)
            high = round(best.probability + rng.uniform(*INVENTORY_THETA_GAP), 6)
            idx, path = b.add_instance(name, inventory_text(name, k, probs, low),
                                       family="inventory", k=k, theta=low)
            for algorithm in ("bt", "fc"):
                b.add_op(idx, _solve_op(path, algorithm, "max",
                                        b.policy_path(idx, f"{algorithm}-max")))
                b.add_op(idx, _solve_op(path, algorithm, "decide",
                                        b.policy_path(idx, f"{algorithm}-decide")))
                b.add_op(idx, _solve_op(path, algorithm, "decide", theta=high))


def _random(rng: random.Random, b: _Builder) -> None:
    for j in range(RANDOM_INSTANCES):
        name = f"random-{j}"
        idx, path = b.add_instance(name, random_text(rng, name), family="random")
        for algorithm in ("bt", "fc"):
            for mode in ("decide", "max"):
                b.add_op(idx, _solve_op(path, algorithm, mode,
                                        b.policy_path(idx, f"{algorithm}-{mode}")))


def _objective(family: str, k: int, j: int) -> dict:
    """The j-th instance's objective, alternating between two variants.

    Violating branches score below every value the objective can take.
    """
    ordered = " + ".join(f"x{t}" for t in range(1, k + 1))
    if family == "production":
        sold = " + ".join(f"s{t}" for t in range(1, k + 1))
        variants = [f"2 * ({sold}) - ({ordered})", f"0 - ({ordered})"]
        violation = -10 * PRODUCTION_DOMAIN[-1] * k
    else:
        variants = [f"k{k} - ({ordered})", f"0 - ({ordered})"]
        violation = -10 * k
    return {"text": variants[j % len(variants)], "violation_value": violation}


def _evaluate(rng: random.Random, b: _Builder, stocs) -> None:
    plans = [("production", k, n) for k, n in EVALUATE_PRODUCTION.items()]
    plans += [("inventory", k, n) for k, n in EVALUATE_INVENTORY.items()]
    for family, k, count in plans:
        for j in range(count):
            name = f"evaluate-{family}-k{k}-{j}"
            objective = _objective(family, k, j)
            if family == "production":
                probs = []
                for _ in range(k):
                    units = list(EVALUATE_PRODUCTION_UNITS)
                    rng.shuffle(units)
                    probs.append([u / PRODUCTION_GRID for u in units])
                text = production_text(name, k, probs, 0.5, objective)
            else:
                probs = _inventory_probabilities(rng, k)
                text = inventory_text(name, k, probs, 0.5, objective)
            witness = stocs.fc_max(stocs.parse_instance(text))
            idx, path = b.add_instance(name, text, family=family, k=k,
                                       witness_value=witness.probability)
            policy = b.policy_path(idx, "witness")
            policy.write_text(stocs.serialize_policy(witness.policy) + "\n", encoding="utf-8")
            b.instances[idx]["witness"] = str(policy)
            seed = rng.randrange(2 ** 32)
            b.add_op(idx, {"cmd": "eval", "argv": ["eval", str(path), "--policy", str(policy)]})
            b.add_op(idx, {"cmd": "eval", "argv": [
                "eval", str(path), "--policy", str(policy),
                "--samples", str(EVALUATE_SAMPLES), "--seed", str(seed)],
                "samples": EVALUATE_SAMPLES, "seed": seed})
            b.add_op(idx, {"cmd": "approx",
                           "argv": ["approx", str(path), "--epsilon", repr(EVALUATE_EPSILON)]})
            b.add_op(idx, {"cmd": "approx",
                           "argv": ["approx", str(path), "--top-k", str(EVALUATE_TOP_K)]})
            b.add_op(idx, {"cmd": "optimize", "argv": ["optimize", str(path)]})


def build(workload: str, seed: int, directory: Path, stocs) -> dict:
    """Write the workload's files under ``directory`` and return its spec.

    ``stocs`` is the imported package: inventory thresholds and evaluate
    witnesses are derived by solving the generated instances once.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    b = _Builder(directory)
    if workload == "production":
        _production(rng, b)
    elif workload == "inventory":
        _inventory(rng, b, stocs)
    elif workload == "random":
        _random(rng, b)
    else:
        _evaluate(rng, b, stocs)
    return {"workload": workload, "seed": seed, "instances": b.instances, "ops": b.ops}


def sizes() -> dict:
    """The sizes each workload is generated at, for the record."""
    return {
        "production": {"stages_to_instances": PRODUCTION_STAGES,
                       "domain": PRODUCTION_DOMAIN, "probability_grid": PRODUCTION_GRID,
                       "theta": PRODUCTION_THETA, "ops_per_instance": 4},
        "inventory": {"periods_to_instances": INVENTORY_PERIODS,
                      "order": INVENTORY_ORDER, "demand": INVENTORY_DEMAND,
                      "demand_p": INVENTORY_DEMAND_P, "stock": INVENTORY_STOCK,
                      "start": INVENTORY_START, "theta_gap": INVENTORY_THETA_GAP,
                      "ops_per_instance": 6},
        "random": {"instances": RANDOM_INSTANCES, "variables": RANDOM_VARIABLES,
                   "domain": RANDOM_DOMAIN, "tables": RANDOM_TABLES,
                   "cpt_share": RANDOM_CPT_SHARE, "zero_share": RANDOM_ZERO_SHARE,
                   "max_leaves": RANDOM_MAX_LEAVES, "ops_per_instance": 4},
        "evaluate": {"production_stages_to_instances": EVALUATE_PRODUCTION,
                     "production_units": EVALUATE_PRODUCTION_UNITS,
                     "inventory_periods_to_instances": EVALUATE_INVENTORY,
                     "samples": EVALUATE_SAMPLES, "epsilon": EVALUATE_EPSILON,
                     "top_k": EVALUATE_TOP_K, "ops_per_instance": 5},
    }
