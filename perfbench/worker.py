"""One benchmark sample in a fresh process.

    python3 perfbench/worker.py --preset NAME --mode setup|run|trace \
        --out DIR --result FILE [--spans FILE.npz]

Times the set-up (import ``tdg``, ``load_preset``, build the initial mesh),
then, unless the mode is ``setup``, one ``tdg.driver.run_experiment`` call
writing its outputs under DIR.  The result is written to FILE as JSON.
``perfbench/run.py`` starts this script with PYTHONPATH pointing at the
checkout's ``src`` and the BLAS thread variables set to 1.
"""

import argparse
import json
import os
import resource
import time

T_START = time.perf_counter()


def _dir_bytes(path):
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, files in os.walk(path)
        for name in files
    )


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--preset", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="where a traced run saves its spans")
    args = parser.parse_args()

    from tdg import driver
    from tdg.config import load_preset
    from tdg.solve import SingularSystemError

    t_load = time.perf_counter()
    config = load_preset(args.preset)
    t_mesh = time.perf_counter()
    driver.initial_mesh(config)
    t_ready = time.perf_counter()
    result = {
        "setup_s": t_ready - T_START,
        "config_load_s": t_mesh - t_load,
    }
    if args.mode != "setup":
        result.update(_run(args, config, driver, SingularSystemError))
    if "layers" in result:
        result["layers"]["config.load_s"] = result["config_load_s"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as handle:
        json.dump(result, handle)


def _run(args, config, driver, failure):
    tracer = None
    l2_returns = []
    if args.mode == "trace":
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer.install()
    else:
        # The only hook in an untraced run: note when each iteration's
        # exact-error quadrature returns, for time_to_tol_s.
        l2_errors = driver.l2_errors

        def l2_probe(*a, **kw):
            value = l2_errors(*a, **kw)
            l2_returns.append(time.perf_counter())
            return value

        driver.l2_errors = l2_probe

    error = None
    start = time.perf_counter()
    try:
        records = driver.run_experiment(config, out_dir=args.out)
    except failure as exc:
        records = list(getattr(exc, "partial_records", []))
        error = str(exc)
    run_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()

    csv_path = os.path.join(args.out, "convergence.csv")
    with open(csv_path) as handle:
        csv_text = handle.read()
    cond_stop = (
        config.stop_on_stagnation
        and len(records) < config.adapt.max_iters + 1
        and bool(records)
        and records[-1].cond > config.cond_limit
    )
    out = {
        "run_s": run_s,
        "error": error,
        "records": [[r.n_elements, r.dofs, r.rel_l2_error] for r in records],
        "l2_return_s": [t - start for t in l2_returns],
        "csv": csv_text,
        "output_bytes": _dir_bytes(args.out),
    }
    if tracer is not None:
        layers = tracer.layer_metrics(run_s)
        layers["driver.iters"] = len(records)
        layers["driver.stopped_by_cond"] = int(cond_stop)
        layers["driver.output_bytes"] = out["output_bytes"]
        out["layers"] = layers
        if args.spans:
            tracer.save(args.spans)
    return out


if __name__ == "__main__":
    main()
