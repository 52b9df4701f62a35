"""Command-line front end.

Subcommands: ``canon`` (canonicalize SMILES lines), ``train``, ``index``
(build/cache the candidate index), ``predict`` (ranked reactant sets for
products), ``evaluate`` (top-k table on a test split), ``route``
(multi-step search down to building blocks). Exit codes: 0 success,
1 usage error, 2 data error.

Every molecule and reaction file but ``canon``'s input and ``predict``'s
products is read by ``data.load_corpus`` (up to 1% of bad lines dropped, more
is a data error) and reported on a ``corpus:`` line on stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_EVAL_KS = (1, 3, 5, 10, 20, 50)

# Each count option's least legal value, checked before any file is read;
# ``TrainConfig`` checks the train settings' ranges.
_COUNTS = {"-k": 1, "--beam": 1, "--n-max": 1, "--k-per-step": 1, "--limit": 1,
           "--threads": 1, "--dim": 1, "--layers": 0, "--types": 1, "--max-expansions": 0}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _openblas_symbol(name: str, restype, *argtypes):
    """The ``name`` function (``set_num_threads``, ``get_num_threads``) of the
    OpenBLAS bundled with numpy, through ctypes with the given signature;
    None when there is none."""
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype, function.argtypes = restype, argtypes
                return function
    return None


def _limit_threads(n: int) -> None:
    """Pin BLAS to one thread for ``n == 1``: through threadpoolctl when it is
    installed, else through numpy's bundled OpenBLAS. Warns when neither can
    pin it and ``OPENBLAS_NUM_THREADS=1`` does not already."""
    if n == 1:
        try:
            import threadpoolctl
        except ImportError:
            setter = _openblas_symbol("set_num_threads", None, ctypes.c_int)
            if setter is not None:
                setter(1)
            elif os.environ.get("OPENBLAS_NUM_THREADS") != "1":
                print("warning: threadpoolctl is not installed, so BLAS threads "
                      "were not pinned; set OPENBLAS_NUM_THREADS=1 to pin them",
                      file=sys.stderr)
            return
        threadpoolctl.threadpool_limits(1)


def _load_corpus(reaction_paths, candidates_path=None):
    """``data.load_corpus``, then one stderr line with its counts, dropped
    lines included. With no reactions, the ids are the pool's file order."""
    from .data import load_corpus
    corpus = load_corpus(reaction_paths, candidates_path)
    print("corpus: " + " ".join(f"{key}={corpus.stats.get(key, 0)}" for key in
                                ("lines", "parse_errors", "duplicates_dropped",
                                 "self_product_dropped")), file=sys.stderr)
    return corpus


def build_parser() -> argparse.ArgumentParser:
    from .training import TrainConfig
    parser = _Parser(prog="retroselect",
                     description="Selection-based retrosynthesis engine")
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared flags. A parent's Actions are shared by its subcommands, so a flag
    # whose default differs between them (--beam) is declared per subcommand.
    threads = _Parser(add_help=False)
    threads.add_argument("--threads", type=int, default=1)
    model = _Parser(add_help=False)
    model.add_argument("--checkpoint", required=True)
    model.add_argument("--candidates", required=True)
    n_max = _Parser(add_help=False)
    n_max.add_argument("--n-max", type=int, default=4)
    cached = _Parser(add_help=False)
    cached.add_argument("--index-cache", help="RCLX cache from the index "
                                              "subcommand (skips re-embedding keys)")
    cached.add_argument("--use-types", action="store_true")

    canon = sub.add_parser("canon", help="canonicalize SMILES lines",
                           description="Read SMILES from stdin or --input, "
                                       "write canonical forms line by line.")
    canon.add_argument("--input", help="input file (default stdin)")

    train = sub.add_parser("train", parents=[threads], help="train a model",
                           description="Contrastive training over a reaction corpus. "
                                       "Each TrainConfig field is a flag.")
    train.add_argument("--train", required=True, help="training reactions file")
    train.add_argument("--val", help="validation reactions file")
    train.add_argument("--candidates", help="candidate pool file "
                                            "(default: derived from reactants)")
    train.add_argument("--checkpoint", required=True, help="best checkpoint output path")
    train.add_argument("--metrics-out", help="line-delimited JSON metrics path")
    train.add_argument("--config", help="JSON config file; explicit flags override it")
    for setting in dataclasses.fields(TrainConfig):
        train.add_argument("--" + setting.name.replace("_", "-"), type=type(setting.default),
                           choices=setting.metadata.get("choices"),
                           help=f"default {setting.default}")
    train.add_argument("--dim", type=int, default=256, help="embedding size")
    train.add_argument("--layers", type=int, default=5, help="trunk layers")
    train.add_argument("--types", type=int, help="number of reaction types "
                                                 "(default: inferred from data)")

    index = sub.add_parser("index", parents=[model, threads],
                           help="build and cache a candidate index",
                           description="Embed the candidate pool and write an "
                                       "RCLX index cache.")
    index.add_argument("--output", required=True)

    predict = sub.add_parser("predict", parents=[model, cached, n_max, threads],
                             help="predict reactant sets",
                             description="Ranked reactant sets per product; "
                                         "one block per product on stdout.")
    predict.add_argument("--products", required=True,
                         help="file of product SMILES, optional tab-separated type")
    predict.add_argument("--output", help="output file (default stdout)")
    predict.add_argument("-k", type=int, default=5)
    predict.add_argument("--beam", type=int, default=200)

    evaluate = sub.add_parser("evaluate", parents=[model, cached, n_max, threads],
                              help="top-k exact match table",
                              description="Evaluate predictions on a test split.")
    evaluate.add_argument("--test", required=True, help="test reactions file")
    evaluate.add_argument("--beam", type=int, default=200)
    evaluate.add_argument("--limit", type=int, help="evaluate at most this many")

    route = sub.add_parser("route", parents=[model, n_max, threads],
                           help="multi-step route search",
                           description="Best-first search to building blocks.")
    route.add_argument("--building-blocks", required=True)
    route.add_argument("--target", required=True, help="target product SMILES")
    route.add_argument("--max-expansions", type=int, default=100)
    route.add_argument("--k-per-step", type=int, default=5)
    route.add_argument("--beam", type=int, default=50)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for flag, least in _COUNTS.items():
        value = getattr(args, flag.lstrip("-").replace("-", "_"), None)
        if value is not None and value < least:
            print(f"error: {flag} must be at least {least}, got {value}", file=sys.stderr)
            return EXIT_DATA
    from .autodiff import NumericsError
    from .chem import ChemError
    from .data import CorpusError, CorruptCheckpoint
    from .index import CorruptIndexCache
    _limit_threads(getattr(args, "threads", 1))
    handler = {
        "canon": _cmd_canon,
        "train": _cmd_train,
        "index": _cmd_index,
        "predict": _cmd_predict,
        "evaluate": _cmd_evaluate,
        "route": _cmd_route,
    }[args.command]
    try:
        return handler(args)
    except (ChemError, CorpusError, CorruptCheckpoint, CorruptIndexCache, NumericsError,
            OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def _cmd_canon(args) -> int:
    from .chem import canonical_form, parse_smiles
    stream = open(args.input, "r", encoding="utf-8") if args.input else sys.stdin
    try:
        for line in stream:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            print(canonical_form(parse_smiles(line)))
    finally:
        if args.input:
            stream.close()
    return EXIT_OK


def _train_config(args):
    """``TrainConfig`` from the ``--config`` JSON, with the given flags over it;
    a JSON value must have its field's type (an int may stand for a float)."""
    from .training import TrainConfig
    values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            values.update(json.load(fh))
    for setting in dataclasses.fields(TrainConfig):
        flag, value = getattr(args, setting.name), values.get(setting.name)
        kinds = (float, int) if isinstance(setting.default, float) else (type(setting.default),)
        if flag is not None:
            values[setting.name] = flag
        elif setting.name in values and type(value) not in kinds:
            raise TypeError(f"{setting.name} must be {kinds[0].__name__}, got {value!r}")
    return TrainConfig(**values)


def _cmd_train(args) -> int:
    import numpy as np
    from .data import CorpusError, MetricsLog, save_checkpoint
    from .encoder import ModelDims
    from .training import train
    try:
        cfg = _train_config(args)
    except (TypeError, ValueError) as exc:  # rejected by TrainConfig or JSON
        print(f"error: bad train config: {exc}", file=sys.stderr)
        return EXIT_DATA
    paths = {"train": args.train}
    if args.val:
        paths["val"] = args.val
    corpus = _load_corpus(paths, args.candidates)
    if args.types is not None and corpus.n_types > args.types:
        raise CorpusError(f"reaction type {corpus.n_types} in the corpus is outside "
                          f"--types [1, {args.types}]")
    n_types = args.types if args.types is not None else max(corpus.n_types, 1)
    dims = ModelDims(d=args.dim, n_layers=args.layers, n_types=n_types)
    metrics = MetricsLog(args.metrics_out)
    # A diverging run overflows before an op's finite check raises
    # NumericsError, which is reported as the one error line.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        best = train(corpus, cfg, dims, metrics, checkpoint_path=args.checkpoint)
    save_checkpoint(best, args.checkpoint, tau=cfg.tau, seed=cfg.seed)
    final = metrics.records[-1] if metrics.records else {}
    print(f"trained {cfg.total_iters} iters; best checkpoint at {args.checkpoint}; "
          f"last metrics: {json.dumps(final, sort_keys=True)}")
    return EXIT_OK


def _load_model_and_pool(args):
    from .data import load_checkpoint
    params, _meta = load_checkpoint(args.checkpoint)
    return params, _load_corpus({}, args.candidates)


def _cmd_index(args) -> int:
    from .index import CandidateIndex, save_index
    params, pool = _load_model_and_pool(args)
    index = CandidateIndex.build(params, pool.molecules)
    save_index(index, args.output)
    print(f"indexed {index.n_candidates} candidates (d={index.dim}) -> {args.output}")
    return EXIT_OK


def _check_type(rxn_type: int, n_types: int, where: str) -> None:
    from .data import CorpusError
    if not 1 <= rxn_type <= n_types:
        raise CorpusError(f"{where}: reaction type {rxn_type} outside the "
                          f"checkpoint's types [1, {n_types}]")


def _read_products(path, use_types, n_types):
    from .chem import parse_smiles
    from .data import CorpusError
    products = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rxn_type = None
            if "\t" in line:
                smiles, _, tail = line.partition("\t")
                if use_types and tail.strip():
                    try:
                        rxn_type = int(tail.strip())
                    except ValueError:
                        raise CorpusError(f"{path}:{lineno}: bad reaction type "
                                          f"{tail.strip()!r}") from None
                    _check_type(rxn_type, n_types, f"{path}:{lineno}")
            else:
                smiles = line
            products.append((parse_smiles(smiles), rxn_type))
    return products


def _predict_many(predictor, jobs, k, threads):
    def run(job):
        mol, rxn_type = job
        return predictor.predict(mol, k, rxn_type=rxn_type)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, jobs))
    return [run(job) for job in jobs]


def _cached_index(args, n_candidates, dim):
    path = getattr(args, "index_cache", None)
    if not path:
        return None
    from .data import CorpusError
    from .index import load_index
    index = load_index(path)
    if index.n_candidates != n_candidates:
        raise CorpusError(f"index cache holds {index.n_candidates} candidates, "
                          f"pool file has {n_candidates}")
    if index.dim != dim:
        raise CorpusError(f"index cache holds keys of width {index.dim}, "
                          f"checkpoint has d={dim}")
    return index


def _cmd_predict(args) -> int:
    from .chem import canonical_form
    from .data import replace_on_success
    from .search import Predictor
    params, pool = _load_model_and_pool(args)
    products = _read_products(args.products, args.use_types, params.dims.n_types)
    predictor = Predictor(params, pool.molecules, forms=pool.forms,
                          index=_cached_index(args, len(pool.molecules), params.dims.d),
                          beam=args.beam, n_max=args.n_max)
    results = _predict_many(predictor, products, args.k, args.threads)

    def write(out) -> None:
        for (mol, _t), ranked in zip(products, results):
            out.write(canonical_form(mol) + "\n")
            for rank_pos, scored in enumerate(ranked, start=1):
                reactants = ".".join(sorted(predictor.form_of_id[i]
                                            for i in scored.reactant_ids))
                out.write(f"{rank_pos}\t{scored.score:.6f}\t{reactants}\n")
    if args.output:
        # The file is replaced only once every line is written.
        with replace_on_success(args.output) as fh, \
                io.TextIOWrapper(fh, encoding="utf-8") as out:
            write(out)
    else:
        write(sys.stdout)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    from .data import topk_exact_match
    from .search import Predictor
    params, pool = _load_model_and_pool(args)
    # Predictions and truths are compared as canonical forms, so the test
    # corpus needs no ids shared with the pool.
    corpus = _load_corpus({"test": args.test})
    records = corpus.reactions["test"]
    if args.limit:
        records = records[:args.limit]
    if args.use_types:
        for r in records:
            if r.rxn_type is not None:
                _check_type(r.rxn_type, params.dims.n_types, args.test)
    predictor = Predictor(params, pool.molecules, forms=pool.forms,
                          index=_cached_index(args, len(pool.molecules), params.dims.d),
                          beam=args.beam, n_max=args.n_max)
    jobs = [(corpus.molecule(r.product_id),
             r.rxn_type if args.use_types else None) for r in records]
    k_max = max(_EVAL_KS)
    results = _predict_many(predictor, jobs, k_max, args.threads)
    predictions = [[tuple(sorted(predictor.form_of_id[i] for i in s.reactant_ids))
                    for s in ranked] for ranked in results]
    truths = [tuple(sorted(corpus.form(i) for i in r.reactant_ids))
              for r in records]
    table = topk_exact_match(predictions, truths, list(_EVAL_KS))
    print("k\taccuracy")
    for k in _EVAL_KS:
        print(f"{k}\t{100.0 * table[k]:.1f}")
    return EXIT_OK


def _cmd_route(args) -> int:
    from .chem import parse_smiles
    from .search import Predictor, route_search
    params, pool = _load_model_and_pool(args)
    blocks = set(_load_corpus({}, args.building_blocks).forms)
    predictor = Predictor(params, pool.molecules, forms=pool.forms,
                          beam=args.beam, n_max=args.n_max)
    target = parse_smiles(args.target)
    route = route_search(target, blocks, predictor,
                         max_expansions=args.max_expansions,
                         k_per_step=args.k_per_step)
    if route is None:
        print("no route found")
        return EXIT_OK
    print(f"route with {len(route.steps)} step(s), cost {route.cost:.4f}")
    for step in route.steps:
        print(f"{step.product_form} <= {'.'.join(step.reactant_forms)} "
              f"(score {step.score:.4f})")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
