"""courtcast: possession-based basketball ratings and match-outcome prediction.

The package turns a flat game log into tempo-free team profiles (offensive
and defensive efficiency, the four factors), adjusts them for opponent
strength day by day, encodes upcoming matches as feature vectors, and trains
simple classifiers to predict winners.  A synthetic-league simulator with a
known optimum makes the whole pipeline testable end to end.
"""

from courtcast.adjust import (
    AdjustConfig,
    AdjustmentError,
    AveragingScheme,
    SeasonRun,
    Seeding,
    TeamSnapshot,
    run_seasons,
    season_runs,
)
from courtcast.baselines import (
    PythagParams,
    Ranking,
    model_predictor,
    pythag_pair_prob,
    pythag_predictor,
    pythag_rating,
    round_robin_rank,
    rpi,
)
from courtcast.evaluate import (
    BASELINE_KINDS,
    CeilingReport,
    EvalError,
    EvalReport,
    binomial_halfwidth,
    glass_ceiling_experiment,
    walk_forward_evaluate,
)
from courtcast.features import (
    FeatureScheme,
    Label,
    MatchInstance,
    build_dataset,
    encode_pairing,
    feature_names,
)
from courtcast.ingest import (
    BoxScore,
    CourtcastError,
    GameLogError,
    GameRecord,
    Location,
    SeasonColumns,
    SeasonStore,
    parse_game_log,
    parse_roster,
    write_game_log,
)
from courtcast.models import (
    ModelError,
    ModelKind,
    TrainedModel,
    load_model,
    predict,
    save_model,
    train,
)
from courtcast.stats import (
    FOUR_FACTOR_WEIGHTS,
    FourFactors,
    GameStats,
    Site,
    four_factors,
    game_stats,
    possessions,
    raw_efficiencies,
)
from courtcast.synthetic import (
    LeagueTruth,
    SyntheticLeagueSpec,
    calibrate_noise,
    generate_league,
)

__version__ = "0.1.0"
