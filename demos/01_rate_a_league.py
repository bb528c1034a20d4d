"""
From box scores to opponent-adjusted team ratings
=================================================

"""

# A synthetic league stands in for real data: twelve teams with hidden
# offensive/defensive strengths play a double-season schedule, and the
# generator hands back both the game log and the truth it was drawn from.
from courtcast import SyntheticLeagueSpec, generate_league

spec = SyntheticLeagueSpec(n_teams=12, games_per_team=22, n_seasons=2,
                           noise=6.0, seed=42)
store, truth = generate_league(spec)
print(f"{store.n_games} games across seasons {store.seasons}")

# Every game yields two per-team stat lines: possessions, points per 100
# possessions on offense and defense, and the four factors (eFG% first).
# The store keeps each season as columns; the first game is row 0.
from courtcast.stats import game_arrays

games = store.columns(store.seasons[0])
first = game_arrays(games.box[:1])
for team, poss, oe, de, off in zip(games.key(0)[1:], first.poss[0], first.oe[0],
                                   first.de[0], first.off_factors[0]):
    print(f"  {team:>4} {poss:5.1f} poss  oe {oe:6.1f}  "
          f"de {de:6.1f}  efg {off[0]:.3f}")

# Raw efficiency rewards teams with soft schedules.  The adjustment engine
# replays the season day by day, scaling each game's numbers by how the
# opponent had looked coming in, and folds them into a running average.
from courtcast import AdjustConfig, AveragingScheme, Seeding, run_seasons
from courtcast.adjust import TEAM_ROW

runs = run_seasons(store, AveragingScheme.ALPHA, Seeding.PRIOR_SEASON,
                   AdjustConfig())
run = runs[store.seasons[-1]]
adjusted = [TEAM_ROW.index("adj_oe"), TEAM_ROW.index("adj_de")]
final = dict(zip(run.teams, run.final_rows[:, adjusted].tolist()))

# Sorting teams by end-of-season net adjusted efficiency recovers most of
# the hidden strength order, which no per-game stat ever saw directly.
by_net = sorted(final, key=lambda t: final[t][1] - final[t][0])
print("\nrank  team   adj_oe  adj_de   hidden net")
for i, team in enumerate(by_net, start=1):
    adj_oe, adj_de = final[team]
    off, dfn = truth.strengths[team]
    print(f"{i:4d}  {team:>4}  {adj_oe:6.1f}  {adj_de:6.1f}   {off - dfn:+6.1f}")

agree = sum(a == b for a, b in zip(by_net, truth.net_order()))
print(f"\n{agree}/{len(by_net)} positions match the hidden ordering exactly")
