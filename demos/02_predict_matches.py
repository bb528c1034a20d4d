"""
Training classifiers and walking forward through a season
==========================================================

"""

# The evaluation discipline: fit on seasons strictly before the test
# season, predict that season's games in calendar order, never peek ahead.
# Each prediction uses only the snapshots both teams carried into the game.
from courtcast import (
    FeatureScheme,
    ModelKind,
    SyntheticLeagueSpec,
    generate_league,
    walk_forward_evaluate,
)

spec = SyntheticLeagueSpec(n_teams=16, games_per_team=24, n_seasons=3,
                           noise=8.0, home_advantage=2.5, imbalance=0.5, seed=7)
store, truth = generate_league(spec)
season = store.seasons[-1]
print(f"testing on season {season}; the generator's own best possible "
      f"accuracy is {truth.bayes_accuracy:.3f}\n")

# Four classifier kinds share one train/predict contract, and every one can
# be fed any feature scheme.  Adjusted efficiencies are only four numbers
# per matchup, yet they carry most of the signal.
reports = {kind: walk_forward_evaluate(store, season, kind, FeatureScheme.ADJ_EFF)
           for kind in (ModelKind.NAIVE_BAYES_KDE, ModelKind.MLP,
                        ModelKind.DECISION_TREE, ModelKind.RANDOM_FOREST)}
for kind, report in reports.items():
    print(f"{kind.value:18s} accuracy {report.accuracy:.3f} "
          f"on {report.n_test} games")

# Two baselines put those numbers in context: always picking the home team,
# and ranking by the Pythagorean rating of season-long efficiencies.
for baseline in ("home_wins", "pythag"):
    report = walk_forward_evaluate(store, season, baseline, FeatureScheme.ADJ_EFF)
    print(f"{baseline:18s} accuracy {report.accuracy:.3f}")

# The report also tracks accuracy as the season unfolds; early-season
# predictions lean on thin snapshots and tend to be the roughest.
report = reports[ModelKind.NAIVE_BAYES_KDE]
dates = [report.series[k] for k in (4, len(report.series) // 2, -1)]
print("\ncumulative accuracy through the season:")
for date, acc in dates:
    print(f"  {date}  {acc:.3f}")
