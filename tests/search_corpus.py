"""The complete searches' output on generated instances, pinned.

The instances are the first 102 of ``gen.py``'s random, CPT and linear
families, taken in turn from one ``random.Random(7)``, and
``inventory_instance(2..5)``. Each runs ``bt_max``, ``fc_max`` and
``bt_decide``/``fc_decide`` at theta 0.3 and 0.7 under the default prune
rules; every ``RULES_EVERY``-th generated instance and the inventories also
run under the other 15 rule sets. A row is keyed
``instance/algorithm/mode/rules``, rules as four 0/1 digits in
``PruneRules`` field order, and holds:

    max:    [repr(value), policy digest, *counters]
    decide: [verdict, repr(maximum) or null, witness digest or null, *counters]

where a digest is the first 16 hex digits of the SHA-256 of
``serialize_policy`` and the counters are ``SearchStats.as_dict()``'s six
values in field order.

``search_corpus.json`` holds these rows as the searches gave them when the
file was written; ``test_search_corpus.py`` checks that they still do. To
rewrite the file after a deliberate change of the search:

    PYTHONPATH=src python tests/search_corpus.py > tests/search_corpus.json
"""

import hashlib
import itertools
import json
import random
import sys

from gen import inventory_instance, random_cpt_instance, random_instance, random_linear_instance
from stocs import PruneRules, bt_decide, bt_max, fc_decide, fc_max, serialize_policy

FAMILIES = (("random", random_instance), ("cpt", random_cpt_instance),
            ("linear", random_linear_instance))
GENERATED = 102
RULES_EVERY = 17
THETAS = (0.3, 0.7)
ALL_RULES = [PruneRules(*bits) for bits in itertools.product((True, False), repeat=4)]


def instances():
    """(name, instance, every rule set or only the default) in row order."""
    rng = random.Random(7)
    for i in range(GENERATED):
        family, make = FAMILIES[i % len(FAMILIES)]
        yield f"{family}-{i:03d}", make(rng), i % RULES_EVERY == 0
    for periods in range(2, 6):
        yield f"inventory-{periods}", inventory_instance(periods), True


def _digest(policy) -> str | None:
    if policy is None:
        return None
    return hashlib.sha256(serialize_policy(policy).encode("utf-8")).hexdigest()[:16]


def rows(name, instance, all_rules):
    """(row key, row) for every run of one instance."""
    for rules in ALL_RULES if all_rules else ALL_RULES[:1]:
        bits = "".join("1" if on else "0" for on in (
            rules.decision_stop, rules.chance_abort, rules.fc_wipeout, rules.fc_mass))
        for algorithm, run in (("bt", bt_max), ("fc", fc_max)):
            got = run(instance, rules)
            yield (f"{name}/{algorithm}/max/{bits}",
                   [repr(got.probability), _digest(got.policy), *got.stats.as_dict().values()])
        for theta, (algorithm, run) in itertools.product(THETAS, (("bt", bt_decide), ("fc", fc_decide))):
            got = run(instance, theta, rules)
            maximum = None if got.maximum is None else repr(got.maximum)
            yield (f"{name}/{algorithm}/decide@{theta}/{bits}",
                   ["SAT" if got.satisfiable else "UNSAT", maximum, _digest(got.policy),
                    *got.stats.as_dict().values()])


if __name__ == "__main__":
    lines = [f"{json.dumps(key)}: {json.dumps(row, separators=(',', ':'))}"
             for name, instance, all_rules in instances()
             for key, row in rows(name, instance, all_rules)]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
