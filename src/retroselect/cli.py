"""Command-line front end.

Subcommands: ``canon`` (canonicalize SMILES lines), ``train``, ``index``
(build/cache the candidate index), ``predict`` (ranked reactant sets for
products), ``evaluate`` (top-k table on a test split), ``route``
(multi-step search down to building blocks). Exit codes: 0 success,
1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_EVAL_KS = (1, 3, 5, 10, 20, 50)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _limit_threads(n: int) -> None:
    if n == 1:
        try:
            import threadpoolctl
        except ImportError:
            print("warning: threadpoolctl is not installed, so BLAS threads "
                  "were not pinned; set OPENBLAS_NUM_THREADS=1 to pin them",
                  file=sys.stderr)
            return
        threadpoolctl.threadpool_limits(1)


def _report_corpus(corpus) -> None:
    """One stderr line with the load counts, dropped lines included."""
    print("corpus: " + " ".join(f"{key}={corpus.stats.get(key, 0)}" for key in
                                ("lines", "parse_errors", "duplicates_dropped",
                                 "self_product_dropped")), file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="retroselect",
                     description="Selection-based retrosynthesis engine")
    sub = parser.add_subparsers(dest="command", required=True)

    canon = sub.add_parser("canon", parents=[], help="canonicalize SMILES lines",
                           description="Read SMILES from stdin or --input, "
                                       "write canonical forms line by line.")
    canon.add_argument("--input", help="input file (default stdin)")

    train = sub.add_parser("train", help="train a model",
                           description="Contrastive training over a reaction corpus.")
    train.add_argument("--train", required=True, help="training reactions file")
    train.add_argument("--val", help="validation reactions file")
    train.add_argument("--candidates", help="candidate pool file "
                                            "(default: derived from reactants)")
    train.add_argument("--checkpoint", required=True, help="best checkpoint output path")
    train.add_argument("--metrics-out", help="line-delimited JSON metrics path")
    train.add_argument("--config", help="JSON config file; explicit flags override it")
    train.add_argument("--learning-rate", type=float)
    train.add_argument("--momentum", type=float)
    train.add_argument("--weight-decay", type=float)
    train.add_argument("--batch-size", type=int)
    train.add_argument("--clip-norm", type=float)
    train.add_argument("--total-iters", type=int)
    train.add_argument("--eval-every", type=int)
    train.add_argument("--refresh-every", type=int)
    train.add_argument("--tau", type=float)
    train.add_argument("--hard-k", type=int)
    train.add_argument("--perm-threshold", type=int)
    train.add_argument("--halt-in-denominator", choices=["always", "final"])
    train.add_argument("--val-cap", type=int)
    train.add_argument("--val-beam", type=int)
    train.add_argument("--seed", type=int)
    train.add_argument("--dim", type=int, default=256, help="embedding size")
    train.add_argument("--layers", type=int, default=5, help="trunk layers")
    train.add_argument("--types", type=int, help="number of reaction types "
                                                 "(default: inferred from data)")
    train.add_argument("--threads", type=int, default=1)

    index = sub.add_parser("index", help="build and cache a candidate index",
                           description="Embed the candidate pool and write an "
                                       "RCLX index cache.")
    index.add_argument("--checkpoint", required=True)
    index.add_argument("--candidates", required=True)
    index.add_argument("--output", required=True)
    index.add_argument("--threads", type=int, default=1)

    predict = sub.add_parser("predict", help="predict reactant sets",
                             description="Ranked reactant sets per product; "
                                         "one block per product on stdout.")
    predict.add_argument("--checkpoint", required=True)
    predict.add_argument("--candidates", required=True)
    predict.add_argument("--products", required=True,
                         help="file of product SMILES, optional tab-separated type")
    predict.add_argument("--output", help="output file (default stdout)")
    predict.add_argument("--index-cache", help="RCLX cache from the index "
                                               "subcommand (skips re-embedding keys)")
    predict.add_argument("-k", type=int, default=5)
    predict.add_argument("--beam", type=int, default=200)
    predict.add_argument("--n-max", type=int, default=4)
    predict.add_argument("--use-types", action="store_true")
    predict.add_argument("--threads", type=int, default=1)

    evaluate = sub.add_parser("evaluate", help="top-k exact match table",
                              description="Evaluate predictions on a test split.")
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--candidates", required=True)
    evaluate.add_argument("--test", required=True, help="test reactions file")
    evaluate.add_argument("--index-cache", help="RCLX cache from the index subcommand")
    evaluate.add_argument("--beam", type=int, default=200)
    evaluate.add_argument("--n-max", type=int, default=4)
    evaluate.add_argument("--use-types", action="store_true")
    evaluate.add_argument("--limit", type=int, help="evaluate at most this many")
    evaluate.add_argument("--threads", type=int, default=1)

    route = sub.add_parser("route", help="multi-step route search",
                           description="Best-first search to building blocks.")
    route.add_argument("--checkpoint", required=True)
    route.add_argument("--candidates", required=True)
    route.add_argument("--building-blocks", required=True)
    route.add_argument("--target", required=True, help="target product SMILES")
    route.add_argument("--max-expansions", type=int, default=100)
    route.add_argument("--k-per-step", type=int, default=5)
    route.add_argument("--beam", type=int, default=50)
    route.add_argument("--n-max", type=int, default=4)
    route.add_argument("--threads", type=int, default=1)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    from .chem import ChemError
    from .data import CorpusError, CorruptCheckpoint
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
    except (ChemError, CorpusError, CorruptCheckpoint, OSError) as exc:
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
    from .training import TrainConfig
    values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            values.update(json.load(fh))
    for name in ("learning_rate", "momentum", "weight_decay", "batch_size",
                 "clip_norm", "total_iters", "eval_every", "refresh_every",
                 "tau", "hard_k", "perm_threshold", "halt_in_denominator",
                 "val_cap", "val_beam", "seed"):
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return TrainConfig(**values)


def _cmd_train(args) -> int:
    from .data import MetricsLog, load_corpus, save_checkpoint
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
    corpus = load_corpus(paths, candidates_path=args.candidates)
    _report_corpus(corpus)
    n_types = args.types if args.types is not None else max(corpus.n_types, 1)
    dims = ModelDims(d=args.dim, n_layers=args.layers, n_types=n_types)
    metrics = MetricsLog(args.metrics_out)
    best = train(corpus, cfg, dims, metrics, checkpoint_path=args.checkpoint)
    save_checkpoint(best, args.checkpoint, tau=cfg.tau, seed=cfg.seed)
    final = metrics.records[-1] if metrics.records else {}
    print(f"trained {cfg.total_iters} iters; best checkpoint at {args.checkpoint}; "
          f"last metrics: {json.dumps(final, sort_keys=True)}")
    return EXIT_OK


def _load_pool(args):
    from .data import load_checkpoint
    from .chem import parse_smiles, canonical_form
    params, meta = load_checkpoint(args.checkpoint)
    candidates = []
    forms = []
    seen = set()
    with open(args.candidates, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            mol = parse_smiles(line)
            form = canonical_form(mol)
            if form in seen:
                continue
            seen.add(form)
            candidates.append(mol)
            forms.append(form)
    return params, candidates, forms


def _cmd_index(args) -> int:
    from .index import CandidateIndex, save_index
    params, candidates, _forms = _load_pool(args)
    index = CandidateIndex.build(params, candidates)
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
    from .search import Predictor
    params, candidates, forms = _load_pool(args)
    products = _read_products(args.products, args.use_types, params.dims.n_types)
    predictor = Predictor(params, candidates, forms=forms,
                          index=_cached_index(args, len(candidates), params.dims.d),
                          beam=args.beam, n_max=args.n_max)
    results = _predict_many(predictor, products, args.k, args.threads)
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        for (mol, _t), ranked in zip(products, results):
            out.write(canonical_form(mol) + "\n")
            for rank_pos, scored in enumerate(ranked, start=1):
                reactants = ".".join(sorted(predictor.form_of_id[i]
                                            for i in scored.reactant_ids))
                out.write(f"{rank_pos}\t{scored.score:.6f}\t{reactants}\n")
    finally:
        if args.output:
            out.close()
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    from .data import load_corpus, topk_exact_match
    from .search import Predictor
    params, candidates, forms = _load_pool(args)
    corpus = load_corpus({"test": args.test}, candidates_path=args.candidates)
    _report_corpus(corpus)
    records = corpus.reactions["test"]
    if args.limit:
        records = records[:args.limit]
    if args.use_types:
        for r in records:
            if r.rxn_type is not None:
                _check_type(r.rxn_type, params.dims.n_types, args.test)
    predictor = Predictor(params, candidates, forms=forms,
                          index=_cached_index(args, len(candidates), params.dims.d),
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
    from .chem import canonical_form, parse_smiles
    from .search import Predictor, route_search
    params, candidates, forms = _load_pool(args)
    blocks = set()
    with open(args.building_blocks, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                blocks.add(canonical_form(parse_smiles(line)))
    predictor = Predictor(params, candidates, forms=forms,
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
