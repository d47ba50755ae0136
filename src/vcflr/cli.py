"""Command-line interface: simulate | fit | predict | evaluate.

Configuration lives in one JSON document; command-line flags override it.
Exit codes: 0 success, 2 usage, 3 data/occupancy, 4 format, 5 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .data import load_csv
from .errors import (
    CovariateOutOfDomain,
    DomainViolation,
    EmptyBin,
    InsufficientCenters,
    InsufficientLocalData,
    ModelFormatError,
    ParseError,
    SingularCovariance,
    TruncationTooLarge,
)
from .evaluate import run_repetitions
from .regression import FitConfig, fit, fit_global, predict
from .simulation import REGULAR, SPARSE, generate, save_truth

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_FORMAT = 4
EXIT_NUMERIC = 5

_DATA_ERRORS = (EmptyBin, ParseError, DomainViolation)
_NUMERIC_ERRORS = (InsufficientLocalData, InsufficientCenters,
                   SingularCovariance, TruncationTooLarge)

DEFAULT_CONFIG = {
    "domains": {"s": [0.0, 10.0], "t": [0.0, 10.0], "z": [0.0, 1.0]},
    "scalar_response": False,
    "grid_size": 51,
    "bins": None,
    "truncation": None,
    "refine_bandwidth": None,
    "criterion": "BIC",
    "binwidth_criterion": "AIC",
    "kernel": "epanechnikov",
    "bandwidths": {},
    "bandwidth_policy": "cv",
    "cv_surfaces": False,
    "eigen_floor": 0.03,
    "min_bin_count": 5,
}


def load_config(path: str | None) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ParseError(f"config file not found: {path}") from None
        except json.JSONDecodeError as err:
            raise ModelFormatError(f"{path}: config is not valid JSON ({err})") from None
        unknown = set(user) - set(cfg)
        if unknown:
            raise ModelFormatError(f"{path}: unknown config keys {sorted(unknown)}")
        if "domains" in user:
            domains = user["domains"]
            if not isinstance(domains, dict) or set(domains) - set(cfg["domains"]):
                raise ModelFormatError(
                    f"{path}: domains must be an object with keys among s, t, z")
            for key, pair in domains.items():
                if not _is_interval(pair):
                    raise ModelFormatError(
                        f"{path}: domain {key} must be a pair of finite numbers "
                        f"[lo, hi] with lo < hi, got {pair!r}")
            user = {**user, "domains": {**cfg["domains"], **domains}}
        scalar = user.get("scalar_response", False)
        if not isinstance(scalar, bool):
            raise ModelFormatError(
                f"{path}: scalar_response must be true or false, got {scalar!r}")
        cfg.update(user)
    return cfg


def _is_interval(pair) -> bool:
    """True for a JSON pair [lo, hi] of finite numbers with lo < hi."""
    if not isinstance(pair, list) or len(pair) != 2:
        return False
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair):
        return False
    lo, hi = (float(v) for v in pair)
    return bool(np.isfinite(lo) and np.isfinite(hi) and lo < hi)


def fit_config_from(cfg: dict, bins_override: int | None = None) -> FitConfig:
    """FitConfig from a loaded config document; values of the wrong type or
    out of range raise ModelFormatError."""
    try:
        return FitConfig(
            n_bins=bins_override if bins_override is not None else cfg["bins"],
            grid_size=cfg["grid_size"],
            truncation=cfg["truncation"],
            refine_bandwidth=cfg["refine_bandwidth"],
            criterion=cfg["criterion"],
            binwidth_criterion=cfg["binwidth_criterion"],
            kernel=cfg["kernel"],
            bandwidths=cfg["bandwidths"],
            bandwidth_policy=cfg["bandwidth_policy"],
            cv_surfaces=cfg["cv_surfaces"],
            eigen_floor=cfg["eigen_floor"],
            min_bin_count=cfg["min_bin_count"],
        )
    except (TypeError, ValueError) as err:
        raise ModelFormatError(f"config: invalid value ({err})") from None


def _write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_simulate(args) -> int:
    design = REGULAR if args.example == "regular" else SPARSE
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    from .data import save_csv
    from .grids import make_grid

    grid = make_grid(*design.t_domain, args.grid_size)
    train, _ = generate(design, args.n, args.seed, truth_grid=grid)
    test, truth = generate(design, args.test_n, 100_000 + args.seed,
                           truth_grid=grid, id_prefix="t")
    save_csv(train, out / "train.csv")
    save_csv(test, out / "test.csv")
    save_truth(truth, out / "truth_curves.csv", out / "truth_scores.csv")
    print(f"wrote {out/'train.csv'} ({train.n} subjects), "
          f"{out/'test.csv'} ({test.n} subjects) and truth CSVs")
    return 0


def cmd_fit(args) -> int:
    cfg = load_config(args.config)
    fc = fit_config_from(cfg, bins_override=args.bins)
    t_domain = None if cfg["scalar_response"] else tuple(cfg["domains"]["t"])
    ds = load_csv(args.train, tuple(cfg["domains"]["s"]), tuple(cfg["domains"]["z"]),
                  t_domain, scalar_response=cfg["scalar_response"])
    model = fit_global(ds, fc) if getattr(args, "global_model", False) else fit(ds, fc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    serialize.save_model(model, out / "model.json")
    report = model.selection
    rows = report.to_rows() if report is not None else []
    _write_rows(out / "selection_report.csv", ["candidate", "criterion", "score"], rows)
    chosen = report.chosen if report is not None else {}
    print(f"wrote {out/'model.json'} (P={model.n_bins}, truncation={model.truncation}, "
          f"b={model.refine_bandwidth:.4g}, chosen={chosen})")
    return 0


def cmd_predict(args) -> int:
    model = serialize.load_model(args.model)
    t_domain = model.t_domain
    ds = load_csv(args.test, model.s_domain, model.z_domain, t_domain,
                  scalar_response=model.scalar_response)
    rows = []
    skipped = []
    for sub in ds.subjects:
        try:
            pred = predict(model, np.column_stack([sub.x_times, sub.x_values]), sub.z)
        except (CovariateOutOfDomain, DomainViolation) as err:
            skipped.append((sub.id, str(err)))
            continue
        if model.scalar_response:
            rows.append([sub.id, repr(float(pred.y_hat))])
        else:
            for t, v in zip(model.t_grid.points, pred.y_hat.values):
                rows.append([sub.id, repr(float(t)), repr(float(v))])
    header = ["subject_id", "y_hat"] if model.scalar_response \
        else ["subject_id", "time", "y_hat"]
    _write_rows(args.out, header, rows)
    if skipped:
        print(f"skipped {len(skipped)} subject(s) that cannot be predicted:", file=sys.stderr)
        for sid, msg in skipped:
            print(f"  {sid}: {msg}", file=sys.stderr)
    print(f"wrote {args.out} ({len(ds.subjects) - len(skipped)} subjects predicted, "
          f"{len(skipped)} skipped)")
    return 0


def cmd_evaluate(args) -> int:
    design = REGULAR if args.example == "regular" else SPARSE
    cfg = load_config(args.config)
    vc_config = fit_config_from(cfg)
    global_config = fit_config_from(cfg, bins_override=1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    results, failures = run_repetitions(
        design, args.reps, args.n, args.test_n, base_seed=args.seed,
        vc_config=vc_config, global_config=global_config, threads=args.threads,
        beta_levels=args.beta_levels)

    rows = []
    for res in results:
        rows.append([res.rep, "global", repr(res.mispe_global)])
        rows.append([res.rep, "vc", repr(res.mispe_vc)])
    _write_rows(out / "mispe.csv", ["rep", "model", "mispe"], rows)

    if results:   # the first repetition's surfaces, from its worker
        for z, beta in zip(args.beta_levels, results[0].betas):
            dump = []
            for i, s in enumerate(beta.row_grid.points):
                for j, t in enumerate(beta.col_grid.points):
                    dump.append([repr(float(s)), repr(float(t)),
                                 repr(float(beta.values[i, j]))])
            _write_rows(out / f"beta_z{z:g}.csv", ["s", "t", "value"], dump)

    if results:
        g_mean = float(np.mean([r.mispe_global for r in results]))
        v_mean = float(np.mean([r.mispe_vc for r in results]))
        print(f"{len(results)} repetition(s): mean MISPE global={g_mean:.4f} "
              f"vc={v_mean:.4f}")
    for seed, msg in failures:
        print(f"repetition {seed} failed: {msg}", file=sys.stderr)
    if failures and len(failures) > 0.2 * args.reps:
        print(f"{len(failures)}/{args.reps} repetitions failed", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcflr",
        description="Varying-coefficient functional linear regression pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate train/test/truth CSVs")
    p_sim.add_argument("--example", required=True, choices=["regular", "sparse"])
    p_sim.add_argument("--n", type=int, default=400)
    p_sim.add_argument("--test-n", type=int, default=200)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--grid-size", type=int, default=51)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit a model from a training CSV")
    p_fit.add_argument("--train", required=True)
    p_fit.add_argument("--config", default=None)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--bins", type=int, default=None)
    p_fit.add_argument("--global", dest="global_model", action="store_true",
                       help="fit the global (single-bin) baseline")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="predict test subjects from a model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--test", required=True)
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("evaluate",
                            help="repeat generate/fit/predict and tabulate MISPE")
    p_eval.add_argument("--example", required=True, choices=["regular", "sparse"])
    p_eval.add_argument("--reps", type=int, default=10)
    p_eval.add_argument("--n", type=int, default=400)
    p_eval.add_argument("--test-n", type=int, default=200)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--config", default=None)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--threads", type=int, default=1)
    p_eval.add_argument("--beta-levels", type=float, nargs="*",
                        default=[0.1, 0.3, 0.5, 0.7, 0.9])
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DATA_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except ModelFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FORMAT
    except _NUMERIC_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
