"""Answer checking shared by the workloads and the checker self-test.

An answer is correct when its process exited 0, it is a clean answer
(not degraded, no error diagnostic, and for serve not shed, quarantined
or retried down the degradation ladder), and every reference field
other than ``program`` is equal. Fields the reference lacks (timing,
solver counters, the store block) are not compared: they legitimately
differ between engines and between runs.
"""

import json


def parse(line):
    """The JSON object on one output line, or None."""
    try:
        obj = json.loads(line)
    except (TypeError, ValueError):
        return None
    return obj if isinstance(obj, dict) else None


def failure(rc, answer, ref):
    """None when the answer is correct, else why it is not."""
    if rc != 0:
        return "exit code %d" % rc
    if answer is None:
        return "no answer"
    if "status" in answer:
        if answer["status"] != "done":
            return "serve status %s" % answer["status"]
        if answer.get("rung", 0) != 0:
            return "served at degradation rung %s" % answer.get("rung")
        answer = answer.get("result")
        if not isinstance(answer, dict):
            return "serve response without a result"
    if answer.get("degraded"):
        return "degraded answer"
    for d in answer.get("diags", []):
        if d.get("severity") == "error":
            return "error diagnostic: %s" % d.get("message")
    if ref is None:
        return "no reference"
    for key, want in ref.items():
        if key == "program":
            continue
        got = answer.get(key)
        if got != want:
            return "field %s is %s, reference %s" % (key, json.dumps(got), json.dumps(want))
    return None


def store_origin(answer):
    """'hit', 'ancestor' or 'miss' from a serve response's store block."""
    store = (answer or {}).get("result", {}).get("store", {})
    if store.get("hits"):
        return "hit"
    if store.get("ancestor_warm_starts"):
        return "ancestor"
    return "miss"
