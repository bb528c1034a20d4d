"""Command-line front end: each pipeline stage as a reproducible subcommand.

Configuration is resolved in three layers — built-in defaults, then a flat
``key = value`` config file (``--config``), then command-line flags — and
the fully resolved configuration is echoed into every artifact as
``#``-prefixed header lines (or a ``run_config`` object inside JSON
artifacts).  Every command writes ``run_config.cfg`` next to its artifacts,
all after its work succeeds; ``--config`` on that file reproduces the run.
Nothing written depends on wall-clock time or unordered iteration, so two
runs with the same configuration produce byte-identical artifacts.

Exit codes: 0 success, 1 usage error, 2 data error (a ``CourtcastError``
naming the file and line, or an OS error), 3 internal fault (anything else).

The single environment input is ``COURTCAST_DATA_DIR``: the directory the
default ``--data`` path is resolved against.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import os
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

from courtcast.adjust import (
    AdjustConfig,
    AdjustmentError,
    AveragingScheme,
    STATE_KEYS,
    SeasonRun,
    Seeding,
    checked_game_arrays,
    run_seasons,
)
from courtcast.baselines import (
    HOME_WINS_P,
    PythagParams,
    model_predictor,
    pythag_predictor,
    round_robin_rank,
    rpi,
)
from courtcast.evaluate import (
    BASELINE_KINDS,
    EvalError,
    glass_ceiling_experiment,
    resolve_grid,
    walk_forward_evaluate,
)
from courtcast.features import (
    SITE_ORDER,
    FeatureScheme,
    Label,
    MatchInstance,
    build_dataset,
    encode_pairings,
    encode_runs,
    feature_names,
)
from courtcast.ingest import (
    BOX_FIELDS,
    LOCATIONS,
    CourtcastError,
    GameLogError,
    SeasonStore,
    named,
    parse_game_log,
    parse_roster,
    write_csv,
    write_game_log,
)
from courtcast.models import (
    ModelKind,
    load_model,
    predict,
    resolve_label,
    save_model,
    train,
)
from courtcast.stats import FourFactors, Site, site_for
from courtcast.synthetic import (
    SyntheticError,
    SyntheticLeagueSpec,
    calibrate_noise,
    generate_league,
)

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_INTERNAL = 0, 1, 2, 3


class UsageError(CourtcastError):
    """Bad invocation: unknown names, malformed values, missing arguments."""


@dataclass(frozen=True)
class RunConfig:
    """Every knob of a run.  Field names double as config-file keys and as
    command-line flags (underscores become dashes); the defaults below are
    the authoritative documentation."""

    data: str = ""               # game-log CSV; "" -> <COURTCAST_DATA_DIR>/games.csv
    roster: str = ""             # optional roster CSV filter; "" -> none
    out: str = "out"             # artifact directory
    scheme: str = "adj_eff"      # feature scheme for features/train/evaluate
    averaging: str = "alpha"     # seasonal averaging: alpha | explicit
    seeding: str = "prior_season"   # season seeding: prior_season | from_scratch
    alpha: float = 0.2           # weight of the newest game under alpha averaging
    ft_weight: float = 0.475     # free-throw weight in the possession formula
    navg_source: str = "raw"     # national-average source: raw | adjusted
    kind: str = "naive_bayes_kde"   # model kind or baseline (home_wins, pythag; rank also takes rpi)
    hyper: str = ""              # hyperparameter overrides "key=value[,key=value...]"
    pythag_y: float = 11.5       # pythag's default exponent y (--hyper y=... overrides it)
    seed: int = 0                # the only randomness source of a run
    test_season: int = 0         # season to evaluate/predict against; 0 -> latest
    team_first: str = ""         # predict: first team of the pairing
    team_second: str = ""        # predict: second team of the pairing
    location: str = "neutral"    # predict: site from team_first's view (home|away|neutral)
    date: str = ""               # predict: ISO snapshot date; "" -> day after the last game
    model: str = ""              # model file for predict/rank; "" -> <out>/model.json
    n_teams: int = 8             # simulate/glass-ceiling: league size (even)
    games_per_team: int = 14     # simulate/glass-ceiling: games per team per season
    n_seasons: int = 2           # simulate/glass-ceiling: seasons to generate
    noise: float = 6.0           # simulate/glass-ceiling: per-game efficiency noise
    home_advantage: float = 0.0  # simulate/glass-ceiling: home efficiency offset
    imbalance: float = 0.0       # simulate/glass-ceiling: fraction of strength-tiered rounds
    strength_spread: float = 10.0   # simulate/glass-ceiling: latent strength spread
    bayes_target: float = 0.0    # >0: calibrate noise so best achievable accuracy ~= this
    kinds: str = ""              # glass-ceiling: comma-separated kinds; "" -> all models
    schemes: str = ""            # glass-ceiling: comma-separated schemes; "" -> adj_eff,adj_four_factors,raw


_CONVERTERS: dict[str, Callable[[str], object]] = {
    f.name: type(f.default) for f in fields(RunConfig)
}


def _coerce(key: str, raw: str) -> object:
    conv = _CONVERTERS.get(key)
    if conv is None:
        raise UsageError(f"unknown config key {key!r} "
                         f"(valid: {', '.join(sorted(_CONVERTERS))})")
    try:
        return conv(raw)
    except ValueError:
        raise UsageError(f"bad value for {key}: {raw!r} "
                         f"(expected {conv.__name__})") from None


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Flat config format: one ``key = value`` per line, ``#`` comments."""
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise UsageError(f"{path}: not UTF-8 text ({err})") from None
    out: dict[str, object] = {}
    for n, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{n}: expected 'key = value', got {line!r}")
        out[key.strip()] = _coerce(key.strip(), value.strip())
    return out


def resolve_config(file_values: dict[str, object],
                   flag_values: dict[str, object]) -> RunConfig:
    """defaults < config file < flags; validates the closed-choice fields."""
    merged = {**file_values, **flag_values}
    for key, value in merged.items():
        if isinstance(value, str):  # as run_config.cfg holds it, for a replay
            if len(value.splitlines()) > 1:
                raise UsageError(f"{key} must be one line, got {value!r}")
            merged[key] = value.strip()
    cfg = RunConfig(**merged)
    if not cfg.data:
        root = os.environ.get("COURTCAST_DATA_DIR", ".")
        cfg = dataclasses.replace(cfg, data=os.path.join(root, "games.csv"))
    for field, enum in (("scheme", FeatureScheme), ("averaging", AveragingScheme),
                        ("seeding", Seeding), ("location", Site)):
        named([getattr(cfg, field)], enum, field, UsageError)
    try:
        _adjust_config(cfg)
    except AdjustmentError as err:
        raise UsageError(str(err)) from None
    if cfg.seed < 0:
        raise UsageError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.date:
        try:
            dt.date.fromisoformat(cfg.date)
        except ValueError:
            raise UsageError(f"date must be ISO formatted, got {cfg.date!r}") from None
    return cfg


def parse_hyper(text: str) -> dict[str, object]:
    """``k=v,k2=v2`` with values read as int, then float, then string."""
    out: dict[str, object] = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or not key:
            raise UsageError(f"hyper entries look like key=value, got {part!r}")
        if key in out:
            raise UsageError(f"hyper key {key!r} is given twice")
        for conv in (int, float, str):
            try:
                out[key] = conv(value.strip())
                break
            except ValueError:
                continue
    return out


# ---------------------------------------------------------------------------
# Artifact plumbing

def _out_dir(cfg: RunConfig) -> tuple[Path, list[str]]:
    """The artifact directory, with ``run_config.cfg`` written in it, and the
    configuration's ``key = value`` lines: that file's body, and the comment
    header of every CSV artifact.  Both render ``dataclasses.asdict(cfg)``,
    the mapping ``model.json`` carries as ``run_config``."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    echo = [f"{key} = {value}" for key, value in dataclasses.asdict(cfg).items()]
    (out / "run_config.cfg").write_text("\n".join(echo) + "\n", encoding="utf-8")
    return out, echo


def _say(path: Path, detail: str = "") -> None:
    print(f"wrote {path}" + (f" ({detail})" if detail else ""))


def _write(cfg: RunConfig, name: str, header: Sequence[str], rows: list,
           detail: str = "", extra: Sequence[str] = ()) -> None:
    """Write the CSV artifact ``name``, the configuration and ``extra`` as
    its comment lines, and ``run_config.cfg`` beside it; then say so."""
    out, echo = _out_dir(cfg)
    write_csv(out / name, header, rows, [*echo, *extra])
    _say(out / name, detail)


# ---------------------------------------------------------------------------
# Shared loading steps

def _load_store(cfg: RunConfig) -> SeasonStore:
    rosters = parse_roster(cfg.roster) if cfg.roster else None
    return parse_game_log(cfg.data, rosters)


def _adjust_config(cfg: RunConfig) -> AdjustConfig:
    return AdjustConfig(ft_weight=cfg.ft_weight, alpha=cfg.alpha,
                        navg_source=cfg.navg_source)


def _resolve_test_season(cfg: RunConfig, store: SeasonStore) -> int:
    if not store.seasons:
        raise GameLogError(f"no games in {cfg.data}")
    if not cfg.test_season:
        return store.seasons[-1]
    if cfg.test_season not in store.seasons:
        raise GameLogError(f"season {cfg.test_season} not in {cfg.data} "
                           f"(have {store.seasons})")
    return cfg.test_season


def _runs(cfg: RunConfig, store: SeasonStore,
          through: int | None = None) -> dict[int, SeasonRun]:
    return run_seasons(store, cfg.averaging, cfg.seeding, _adjust_config(cfg), through=through)


def _league_spec(cfg: RunConfig) -> SyntheticLeagueSpec:
    try:
        spec = SyntheticLeagueSpec(
            n_teams=cfg.n_teams, games_per_team=cfg.games_per_team,
            strength_spread=cfg.strength_spread, noise=cfg.noise,
            home_advantage=cfg.home_advantage, imbalance=cfg.imbalance,
            n_seasons=cfg.n_seasons, seed=cfg.seed)
        if cfg.bayes_target:
            spec = dataclasses.replace(spec,
                                       noise=calibrate_noise(spec, cfg.bayes_target))
    except SyntheticError as err:
        raise UsageError(str(err)) from None
    return spec


def _resolve(cfg: RunConfig, kinds: Sequence[str], overrides: dict[str, dict],
             schemes: Sequence[str] = (), baselines: Sequence[str] = BASELINE_KINDS):
    """:func:`resolve_grid` on the names of a command line, with ``--pythag-y``
    as pythag's default ``y``; a bad name is a usage error."""
    if "pythag" in kinds:
        overrides = {**overrides, "pythag": {"y": cfg.pythag_y, **overrides.get("pythag", {})}}
    try:
        return resolve_grid(kinds, overrides, schemes, baselines)
    except EvalError as err:
        raise UsageError(str(err)) from None


def _kind_and_hyper(cfg: RunConfig, baselines: Sequence[str] = BASELINE_KINDS):
    """The predictor ``--kind`` picks and its hyperparameters, ``--hyper``
    overriding its defaults, checked before any data is read."""
    (kind,), _, hyper = _resolve(cfg, [cfg.kind], {cfg.kind: parse_hyper(cfg.hyper)},
                                 baselines=baselines)
    return kind, hyper[kind]


def _load_model_file(cfg: RunConfig, requested: ModelKind):
    path = Path(cfg.model) if cfg.model else Path(cfg.out) / "model.json"
    if not path.exists():
        raise GameLogError(f"model file not found: {path} (run `train` first)")
    model = load_model(path)
    if model.kind is not requested:
        raise GameLogError(
            f"model file {path} holds kind {model.kind.value!r}, not {cfg.kind!r}")
    return model


# ---------------------------------------------------------------------------
# Subcommands

def cmd_ingest(cfg: RunConfig) -> None:
    store = _load_store(cfg)
    out, echo = _out_dir(cfg)
    path = out / "games.csv"
    write_game_log(store, path, echo)
    n_teams = len({t for s in store.seasons for t in store.teams(s)})
    _say(path, f"{store.n_games} games, seasons {store.seasons}, {n_teams} teams")


def cmd_stats(cfg: RunConfig) -> None:
    store = _load_store(cfg)
    factor_cols = list(FourFactors.field_names())
    header = (["date", "season", "team", "opponent", "site", "won",
               "points", "poss", "oe", "de"]
              + [f"off_{c}" for c in factor_cols] + [f"def_{c}" for c in factor_cols])
    rows = []
    for season in store.seasons:
        games = store.columns(season)
        stats = checked_game_arrays(games, cfg.ft_weight)
        points = stats.box[:, :, BOX_FIELDS.index("points")]
        won = games.first_won()[:, None] == [True, False]   # side b won where a lost
        columns = (points, won, stats.poss, stats.oe, stats.de,
                   stats.off_factors, stats.def_factors)
        for (date, *teams), code, *sides in zip(games.keys(), games.location.tolist(),
                                                *(c.tolist() for c in columns)):
            for k, (pts, w, poss, oe, de, off, allowed) in enumerate(zip(*sides)):
                rows.append([date.isoformat(), season, teams[k], teams[1 - k],
                             site_for(LOCATIONS[code], k == 0).value, int(w), pts, poss, oe, de]
                            + off + allowed)
    _write(cfg, "game_stats.csv", header, rows, f"{len(rows)} team-game rows")


def cmd_adjust(cfg: RunConfig) -> None:
    store = _load_store(cfg)
    runs = _runs(cfg, store)
    header = ["season", "team", "games_played"] + list(STATE_KEYS)
    rows = []
    for season, run in sorted(runs.items()):
        for team, played, values in zip(run.teams, run.final_played.tolist(),
                                        run.final_rows[:, :len(STATE_KEYS)].tolist()):
            rows.append([season, team, played] + values)
    _write(cfg, "snapshots.csv", header, rows, f"{len(rows)} team-season snapshots")


def cmd_features(cfg: RunConfig) -> None:
    store = _load_store(cfg)
    runs = _runs(cfg, store)
    scheme = FeatureScheme(cfg.scheme)
    header = (["date", "season", "team_first", "team_second", "location", "label"]
              + list(feature_names(scheme)))
    rows = []
    for run in runs.values():
        Xs, site, y = encode_runs([run], [scheme])
        for (date, first, second), x, s, won in zip(run.columns.keys(), Xs[scheme].tolist(),
                                                    site.tolist(), y.tolist()):
            rows.append([date.isoformat(), run.season, first, second, SITE_ORDER[s].value,
                         (Label.LOSS, Label.WIN)[won].value] + x)
    _write(cfg, "features.csv", header, rows, f"{len(rows)} instances, scheme {scheme.value}")


def cmd_train(cfg: RunConfig) -> None:
    kind, hyper = _kind_and_hyper(cfg, baselines=())
    store = _load_store(cfg)
    test_season = _resolve_test_season(cfg, store)
    runs = _runs(cfg, store, through=test_season)
    train_set, _ = build_dataset(store, runs, FeatureScheme(cfg.scheme), test_season)
    model = train(train_set, kind, hyper=hyper, seed=cfg.seed)
    out, _ = _out_dir(cfg)
    path = out / "model.json"
    save_model(dataclasses.replace(model, run_config=dataclasses.asdict(cfg)), path)
    _say(path, f"{kind.value} on {len(train_set)} instances "
               f"from seasons before {test_season}")


def cmd_predict(cfg: RunConfig) -> None:
    if not cfg.team_first or not cfg.team_second:
        raise UsageError("predict needs --team-first and --team-second")
    if cfg.team_first == cfg.team_second:
        raise UsageError("a team cannot play itself")
    kind, hyper = _kind_and_hyper(cfg)
    store = _load_store(cfg)
    test_season = _resolve_test_season(cfg, store)
    for team in (cfg.team_first, cfg.team_second):
        if team not in store.teams(test_season):
            raise GameLogError(
                f"team {team!r} not in season {test_season} of {cfg.data}")
    run = _runs(cfg, store, through=test_season)[test_season]
    last = dt.date.fromordinal(int(store.columns(test_season).dates[-1]))    # games are by date
    if not cfg.date and last == dt.date.max:
        raise GameLogError(f"season {test_season} of {cfg.data} ends on {last}, "
                           "the last date there is; give --date")
    date = dt.date.fromisoformat(cfg.date) if cfg.date else last + dt.timedelta(days=1)
    teams = [cfg.team_first, cfg.team_second]
    rows = run.rows_at(teams, date)
    location = Site(cfg.location)

    if kind == "pythag":
        p = pythag_predictor(PythagParams(**hyper))(teams, rows, [0], [1])[0]
    elif kind == "home_wins":
        p = HOME_WINS_P[location]
    else:
        model = _load_model_file(cfg, kind)
        inst = MatchInstance(
            scheme=model.scheme, location=location,
            features=encode_pairings(rows, [0], [1], model.scheme)[0],
            label=None, date=date, season=test_season,
            team_first=cfg.team_first, team_second=cfg.team_second)
        _, p = predict(model, inst)
    label = resolve_label(p, location)
    winner = cfg.team_first if label is Label.WIN else cfg.team_second
    _write(cfg, "prediction.csv", ["date", "team_first", "team_second", "location",
                                   "predictor", "predicted_winner", "p_first_wins"],
           [[date.isoformat(), cfg.team_first, cfg.team_second,
             location.value, cfg.kind, winner, p]], f"{winner} (p_first={p:.3f})")


def cmd_rank(cfg: RunConfig) -> None:
    if cfg.kind == "home_wins":
        raise UsageError("home_wins cannot rank neutral-site pairings")
    kind, hyper = _kind_and_hyper(cfg, baselines=("pythag", "rpi"))
    store = _load_store(cfg)
    test_season = _resolve_test_season(cfg, store)
    if kind == "rpi":
        scores = sorted(rpi(store.columns(test_season)).items(),
                        key=lambda kv: (-kv[1], kv[0]))
        rows = [[n, team, score] for n, (team, score) in enumerate(scores, start=1)]
    else:
        run = _runs(cfg, store, through=test_season)[test_season]
        if kind == "pythag":
            predictor = pythag_predictor(PythagParams(**hyper))
        else:
            predictor = model_predictor(_load_model_file(cfg, kind))
        ranking = round_robin_rank(predictor, dict(zip(run.teams, run.final_rows)))
        rows = [[e.rank, e.team, e.score] for e in ranking.entries]

    _write(cfg, "rankings.csv", ["rank", "team", "score"], rows,
           f"{len(rows)} teams, season {test_season}, rater {cfg.kind}",
           [f"season = {test_season}", f"rater = {cfg.kind}"])


def cmd_evaluate(cfg: RunConfig) -> None:
    kind, hyper = _kind_and_hyper(cfg)
    store = _load_store(cfg)
    test_season = _resolve_test_season(cfg, store)
    report = walk_forward_evaluate(
        store, test_season, kind, cfg.scheme, cfg.averaging, cfg.seeding,
        seed=cfg.seed, config=_adjust_config(cfg), hyper=hyper)
    doc = report.as_dict()
    summary = [f"{key} = {doc[key]}" for key in
               ("kind", "scheme", "test_season", "n_train", "n_test", "accuracy")]
    summary += [f"confusion {k} = {v}" for k, v in sorted(doc["confusion"].items())]
    _write(cfg, "eval_report.csv", ["date", "team_first", "team_second", "location",
                                    "predicted", "actual", "p_win"], doc["predictions"],
           f"accuracy {report.accuracy:.4f} on {report.n_test} games", summary)
    _write(cfg, "eval_curve.csv", ["date", "cumulative_accuracy"], doc["series"])


def cmd_simulate(cfg: RunConfig) -> None:
    spec = _league_spec(cfg)
    store, truth = generate_league(spec)
    out, echo = _out_dir(cfg)
    path = out / "games.csv"
    write_game_log(store, path, echo)
    _say(path, f"{store.n_games} games, seasons {store.seasons}")
    rows = [[team, off, deff, off - deff]
            for team, (off, deff) in sorted(truth.strengths.items())]
    _write(cfg, "league_truth.csv", ["team", "off_strength", "def_strength", "net"], rows,
           f"best achievable accuracy {truth.bayes_accuracy:.4f}",
           [f"noise = {truth.noise}", f"bayes_accuracy = {truth.bayes_accuracy}"])


def _ceiling_grid(cfg: RunConfig):
    """The kinds ``--kinds`` names and the schemes ``--schemes`` names (all of
    each if none), and each kind's hyperparameters, which the kind-qualified
    ``--hyper`` entries (``kind.key=value``) override."""
    names = {"kinds": list(ModelKind), "schemes": [
        FeatureScheme.ADJ_EFF, FeatureScheme.ADJ_FOUR_FACTORS, FeatureScheme.RAW]}
    for key in names:
        text = getattr(cfg, key)
        if text:
            names[key] = [p.strip() for p in text.split(",") if p.strip()]
            if not names[key]:
                raise UsageError(f"--{key} names nothing, got {text!r}")
    overrides: dict[str, dict[str, object]] = {}
    for key, value in parse_hyper(cfg.hyper).items():
        kind, sep, param = key.partition(".")
        if not sep:
            raise UsageError(
                f"glass-ceiling hyper keys are kind-qualified "
                f"(e.g. decision_tree.min_node_fraction=0.05), got {key!r}")
        overrides.setdefault(kind, {})[param] = value
    return _resolve(cfg, names["kinds"], overrides, names["schemes"])


def cmd_glass_ceiling(cfg: RunConfig) -> None:
    if cfg.n_seasons < 2:
        raise UsageError(f"glass-ceiling needs n_seasons >= 2, got {cfg.n_seasons}")
    spec = _league_spec(cfg)
    kinds, schemes, hyper = _ceiling_grid(cfg)
    report = glass_ceiling_experiment(
        spec, kinds, schemes, cfg.averaging, cfg.seeding,
        seed=cfg.seed, config=_adjust_config(cfg), hyper_overrides=hyper)
    print(f"bound {report.bound:.4f} (99% halfwidth {report.halfwidth:.4f}, "
          f"n_test {report.n_test})")
    for c in report.cells:
        print(f"  {c.kind:18s} {c.scheme:18s} {c.accuracy:.4f} ({c.gap:+.4f})")
    doc = report.as_dict()
    _write(cfg, "ceiling.csv", ["kind", "scheme", "accuracy", "gap", "n_test"], doc["cells"],
           extra=[f"{key} = {doc[key]}"
                  for key in ("bound", "halfwidth", "n_test", "test_season")])


#: Every subcommand: name -> (the function that runs it, its one-line help).
COMMANDS: dict[str, tuple[Callable[[RunConfig], None], str]] = {
    "ingest": (cmd_ingest, "validate a game log and write the normalized copy"),
    "stats": (cmd_stats, "per-game possessions, efficiencies, and four factors"),
    "adjust": (cmd_adjust, "season-long opponent-adjusted team snapshots"),
    "features": (cmd_features, "encode every game as a model-ready instance"),
    "train": (cmd_train, "fit a classifier on seasons before the test season"),
    "predict": (cmd_predict, "predict one hypothetical pairing from team rows"),
    "rank": (cmd_rank, "round-robin ranking (pythag, rpi, or a trained model)"),
    "evaluate": (cmd_evaluate, "walk-forward accuracy report plus in-season curve"),
    "simulate": (cmd_simulate, "generate a synthetic league with known ground truth"),
    "glass-ceiling": (cmd_glass_ceiling,
                      "model-x-scheme accuracy grid against a known bound"),
}


# ---------------------------------------------------------------------------
# Argument parsing

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e3" as a flag: its pattern for a negative number
        # has no exponent.  No courtcast flag looks like a number.
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message: str):  # argparse defaults to exit code 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="flat key = value config file (defaults < file < flags)")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        common.add_argument(flag, dest=f.name, default=argparse.SUPPRESS,
                            type=_CONVERTERS[f.name], metavar=f.name.upper(),
                            help=f"default: {f.default!r}")

    parser = _Parser(prog="courtcast",
                     description="Possession-based team ratings and match "
                                 "outcome prediction pipeline.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, text) in COMMANDS.items():
        sub.add_parser(name, parents=[common], help=text, description=text)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            parser.print_help()
            return EXIT_USAGE
        flag_values = {k: v for k, v in vars(ns).items()
                       if k not in ("command", "config")}
        file_values = parse_config_file(ns.config) if ns.config else {}
        cfg = resolve_config(file_values, flag_values)
        COMMANDS[ns.command][0](cfg)
        return EXIT_OK
    except SystemExit as exc:  # argparse --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (CourtcastError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except Exception as err:  # pragma: no cover - reached only via a bug
        print(f"internal error: {err!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
