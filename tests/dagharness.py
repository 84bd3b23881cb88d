"""Random valid workflow DAGs over the registered operators.

All generated nodes preserve one canonical schema (k int, v real, s text),
so any wiring of table ports is valid and outputs can reference any node.
Used to check scheduling, session keys and spilling on arbitrary DAGs, and
that the accepted ``mode`` values of ``execute`` change nothing.
"""

from __future__ import annotations

import json
import random

from wrangle.table import Column, CType, Table
from wrangle.workflow import WorkflowSpec, parse_workflow

_PREDICATES = (
    "k >= 3",
    "v < 10 or s == 'red'",
    "not (k == 5)",
    "s in ('red', 'blue') and v > -40",
    "k between 2 and 7",
)

_MUTATIONS = ("v * 2", "v + k", "v / 2 - 1", "-v", "(v + 1) * (k + 1)")


def canonical_table(rng: random.Random, n_rows: int = 50) -> Table:
    return Table(
        (
            Column("k", CType.INT, tuple(rng.randrange(0, 10) for _ in range(n_rows))),
            Column(
                "v",
                CType.REAL,
                tuple(round(rng.uniform(-50, 50), 3) for _ in range(n_rows)),
            ),
            Column(
                "s",
                CType.TEXT,
                tuple(rng.choice(("red", "green", "blue")) for _ in range(n_rows)),
            ),
        )
    )


def random_workflow(
    rng: random.Random, max_nodes: int = 8
) -> tuple[WorkflowSpec, dict[str, Table]]:
    n_inputs = rng.randrange(1, 3)
    input_names = [f"in{i}" for i in range(n_inputs)]
    sources = [f"$inputs.{name}" for name in input_names]

    nodes = []
    for i in range(rng.randrange(1, max_nodes + 1)):
        node_id = f"node_{i}"
        choice = rng.randrange(5)
        if choice == 0:
            node = {
                "id": node_id,
                "op": "relops.filter",
                "inputs": {"in": rng.choice(sources)},
                "params": {"predicate": rng.choice(_PREDICATES)},
            }
        elif choice == 1:
            node = {
                "id": node_id,
                "op": "relops.mutate",
                "inputs": {"in": rng.choice(sources)},
                "params": {"name": "v", "expr": rng.choice(_MUTATIONS)},
            }
        elif choice == 2:
            node = {
                "id": node_id,
                "op": "relops.union",
                "inputs": {"a": rng.choice(sources), "b": rng.choice(sources)},
            }
        elif choice == 3:
            node = {
                "id": node_id,
                "op": "relops.select_columns",
                "inputs": {"in": rng.choice(sources)},
                "params": {"names": ["k", "v", "s"], "mode": "keep"},
            }
        else:
            node = {
                "id": node_id,
                "op": "table.infer_types",
                "inputs": {"in": rng.choice(sources)},
            }
        nodes.append(node)
        sources.append(f"{node_id}.out")

    node_refs = [f"{n['id']}.out" for n in nodes]
    out_refs = rng.sample(node_refs, rng.randrange(1, min(3, len(node_refs)) + 1))
    doc = {
        "version": 1,
        "name": f"random_dag_{rng.randrange(10**6)}",
        "inputs": [{"name": name, "kind": "table-csv"} for name in input_names],
        "nodes": nodes,
        "outputs": [{"name": f"out{i}", "from": ref} for i, ref in enumerate(out_refs)],
    }
    spec = parse_workflow(json.dumps(doc).encode())
    tables = {name: canonical_table(rng) for name in input_names}
    return spec, tables
