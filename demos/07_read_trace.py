# Reading a trace back. `seva run` writes one JSONL trace per (method, seed)
# cell: a header, one "steps" record whose per-sample values are base64
# binary columns (exact float64/int64/bool bytes), and the summary.
# `read_trace` decodes it into numpy arrays; `per_step` splits a column at
# the step boundaries recorded in `rows`.
import copy
import tempfile
from pathlib import Path

import numpy as np

from seva.committed import committed_config
from seva.config import resolve_config
from seva.runner import execute_run, read_trace

tree = copy.deepcopy(committed_config().tree)
tree["seeds"] = [0]
tree["stream"]["n_batches"] = 20
tree["methods"] = [m for m in tree["methods"] if m["kind"] == "entropy_select"]

with tempfile.TemporaryDirectory() as out:
    result = execute_run(resolve_config(tree), out)
    path = result["traces"][0]
    trace = read_trace(path)
    size = Path(path).stat().st_size

header, steps, summary = trace.header, trace.steps, trace.summary
print(f"{path.name}: schema {header['schema']}, {size} bytes, {len(steps['rows'])} steps")
print("columns: " + ", ".join(f"{name} {dtype} ({len(trace.columns[name])})" for name, dtype in header["columns"].items()))
print(f"\n{'step':>4} {'rows':>4} {'selected':>8} {'mean loss':>9} {'updated':>7}")
for i, losses in enumerate(trace.per_step("losses")):
    print(f"{i:4d} {steps['rows'][i]:4d} {steps['n_selected'][i]:8d} {losses.mean():9.4f} {str(steps['updated'][i]):>7}")

# the per-step counts and the summary agree with the decoded columns
assert steps["n_selected"] == [int(s.sum()) for s in trace.per_step("selected")]
assert summary["n_selected"] == int(trace.columns["selected"].sum())
accuracy = float(np.mean(trace.columns["predicted"] == trace.columns["labels"]))
print(f"\naccuracy {accuracy:.4f} (summary {summary['accuracy']:.4f}), mean loss {summary['mean_loss']:.4f}")
