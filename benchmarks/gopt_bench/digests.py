"""Row verification: canonical bag digests and the checked-in expectations.

A digest is the sha256 of a result's rows, each serialized as sorted-key
JSON, sorted as strings -- so it is independent of row order, dict order and
``PYTHONHASHSEED``, and identical for in-process rows and rows that went
through the JSON wire (tuples become lists either way).
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
from typing import Dict, Iterable, List

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")


def _canonical(rows: Iterable[dict]) -> List[str]:
    return [json.dumps(row, sort_keys=True, default=repr) for row in rows]


def bag_digest(rows: Iterable[dict]) -> str:
    lines = sorted(_canonical(rows))
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return "%d:%s" % (len(lines), digest.hexdigest())


def is_sub_bag(rows: Iterable[dict], of_rows: Iterable[dict]) -> bool:
    """Every row of ``rows`` is in ``of_rows``, as often as it occurs."""
    return not (collections.Counter(_canonical(rows))
                - collections.Counter(_canonical(of_rows)))


def expected_path(workload_name: str) -> str:
    return os.path.join(EXPECTED_DIR, workload_name + ".json")


def load_expected(workload_name: str, graph_name: str) -> Dict[str, str]:
    """Digests by ``Op.key`` for one workload on one graph ({} if not blessed)."""
    try:
        with open(expected_path(workload_name)) as handle:
            return json.load(handle).get(graph_name, {})
    except FileNotFoundError:
        return {}


def save_expected(workload_name: str, graph_name: str,
                  digests: Dict[str, str]) -> None:
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    path = expected_path(workload_name)
    try:
        with open(path) as handle:
            document = json.load(handle)
    except FileNotFoundError:
        document = {}
    document[graph_name] = digests
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
