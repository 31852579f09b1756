"""One benchmark operation, run in a fresh interpreter by ``run.py``.

Usage: ``python perfbench/op.py '<json config>'`` with ``PYTHONPATH``
naming the repository's ``src``.  The config keys are:

* ``mode``: ``serial`` runs ``experiments.<figure>`` in-process through
  ``ExperimentRunner(jobs=1)``; ``cli`` runs ``python -m repro figure``
  with ``cli_args`` (the module is run exactly as ``-m`` runs it).
* ``figure``, ``subset``, ``scale``, ``cache_dir``: the grid.
* ``probe``: stop at the first dispatch (a set-up time sample).
* ``trace``: install the per-layer ledger (``tracer.py``); pool workers
  append theirs under ``ledger_dir``.
* ``out``: where to write this process's record as JSON.

The figure is printed to stdout, as the CLI prints it.  The record holds
the monotonic time at which the first run could be dispatched, the
figure's data, the number of failed runs and, when traced, the ledger.
"""

import json
import sys
import time


class _Probed(Exception):
    """Raised at the first dispatch of a set-up probe."""


def main(config):
    record = {"ready": None, "failed": 0, "attempted": 0, "figure": None}
    from repro.harness import experiments
    from repro.harness.sweep import RunFailure, SweepEngine

    if config["trace"]:
        import tracer

        tracer.install(config["ledger_dir"])
    engine_run = SweepEngine.run

    def run_stamped(self, specs):
        if record["ready"] is None:
            record["ready"] = time.monotonic()
            if config["probe"]:
                raise _Probed()
        outcomes = engine_run(self, specs)
        record["attempted"] += len(specs)
        record["failed"] += sum(isinstance(o, RunFailure) for o in outcomes)
        return outcomes

    SweepEngine.run = run_stamped
    figure_fn = getattr(experiments, config["figure"])

    def figure_kept(*args, **kwargs):
        record["figure"] = figure_fn(*args, **kwargs)
        return record["figure"]

    setattr(experiments, config["figure"], figure_kept)

    code = 0
    try:
        if config["mode"] == "serial":
            from repro.harness.report import format_speedup_figure
            from repro.harness.runner import ExperimentRunner

            runner = ExperimentRunner(
                scale=config["scale"], jobs=1, cache_dir=config["cache_dir"]
            )
            result = figure_kept(runner, config["subset"])
            print(format_speedup_figure(result, f"Figure {config['figure'][6:]}"))
        else:
            import runpy

            sys.argv = ["repro"] + config["cli_args"]
            try:
                runpy.run_module("repro", run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
    except _Probed:
        pass
    sys.stdout.flush()
    if config["trace"]:
        record["ledger"] = tracer.LEDGER.to_dict()
    with open(config["out"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
