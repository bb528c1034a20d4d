#!/bin/sh
# Run the command line and the demos from one checkout, and keep every
# artifact and every stdout in OUT:
#
#   tools/artifacts.sh SRC OUT
#
# SRC is a checkout (the directory holding src/ and demos/).  Running this on
# two checkouts and then `diff -r OUT1 OUT2` checks that they write the same
# bytes, and that each refused command keeps its exit code and message.  Each
# command runs from inside OUT with relative paths, because every artifact
# echoes --data and --out.  It takes about half a minute.
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 1
fi
src=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"
PYTHONPATH="$src/src"
export PYTHONPATH
unset COURTCAST_DATA_DIR

# run NAME COMMAND [FLAGS...]: artifacts in NAME/, stdout in NAME.txt
run() {
    name=$1
    shift
    python3 -m courtcast "$@" --out "$name" > "$name.txt"
}

run sim simulate --n-teams 12 --games-per-team 12 --n-seasons 3 --noise 6 \
    --home-advantage 2.5 --imbalance 0.5 --seed 3
data="--data sim/games.csv"
run ingest ingest $data
run stats stats $data
run adjust adjust $data
run adjust-explicit adjust $data --averaging explicit --seeding from_scratch
for scheme in adj_eff four_factors adj_four_factors raw diff_off_vs_def diff_like_vs_like; do
    run "features-$scheme" features $data --scheme "$scheme"
done
pair="--team-first t00 --team-second t05 --location home"
for kind in naive_bayes_kde mlp decision_tree random_forest; do
    hyper=""
    [ "$kind" = mlp ] && hyper="--hyper epochs=5"
    run "train-$kind" train $data --kind "$kind" $hyper
    model="--model train-$kind/model.json"
    run "predict-$kind" predict $data --kind "$kind" $model $pair
    run "rank-$kind" rank $data --kind "$kind" $model
    run "evaluate-$kind" evaluate $data --kind "$kind" $hyper
done
# unpruned growth, and a forest that searches every feature at every node
run train-tree-unpruned train $data --kind decision_tree --hyper min_node_fraction=0
run evaluate-tree-unpruned evaluate $data --kind decision_tree --hyper min_node_fraction=0
forest="--kind random_forest --hyper n_trees=3,candidate_features=17"
run train-forest-all-features train $data $forest
run evaluate-forest-all-features evaluate $data $forest
for kind in pythag home_wins; do
    run "predict-$kind" predict $data --kind "$kind" $pair
    run "evaluate-$kind" evaluate $data --kind "$kind"
done
run rank-pythag rank $data --kind pythag
run rank-rpi rank $data --kind rpi
run ceiling glass-ceiling --n-teams 8 --games-per-team 6 --n-seasons 2 \
    --bayes-target 0.72 --kinds naive_bayes_kde,decision_tree,pythag,home_wins \
    --schemes adj_eff,raw --seed 2
# refuse NAME COMMAND [FLAGS...]: a command that must fail; stdout in
# NAME.txt, stderr and the exit code in NAME.err
refuse() {
    name=$1
    shift
    status=0
    python3 -m courtcast "$@" --out "$name" > "$name.txt" 2> "$name.err" || status=$?
    echo "exit $status" >> "$name.err"
}

refuse refuse-averaging adjust $data --averaging ewma
refuse refuse-seeding adjust $data --seeding cold
refuse refuse-navg-source adjust $data --navg-source wrong
refuse refuse-scheme features $data --scheme elo
refuse refuse-location predict $data --kind pythag $pair --location middle
refuse refuse-kind train $data --kind bogus
refuse refuse-kinds glass-ceiling --kinds naive_bayes_kde,bogus
refuse refuse-schemes glass-ceiling --schemes adj_eff,elo
refuse refuse-model-kind rank $data --kind decision_tree \
    --model train-naive_bayes_kde/model.json
refuse refuse-mlp-diverges train $data --kind mlp \
    --hyper learning_rate=1e308,momentum=1.0,epochs=200
# four teams, two seasons of 40 rounds won 3-2 on 1000 field-goal attempts a
# side: adjusted efficiencies near 0.3, whose 10000th powers are 0.0
python3 - > tiny.csv <<'LOG'
import datetime as dt
from courtcast.ingest import HEADER
boxes = {2: "0,1000,0,2,2,1,1,1,0,0,2", 3: "1,1000,0,1,2,1,1,1,0,0,3"}
teams = ["aa", "bb", "cc", "dd"]
rounds = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
print(",".join(HEADER))
for season in (2020, 2021):
    for r in range(40):
        day = dt.date(season, 11, 1) + dt.timedelta(days=r)
        for k, (i, j) in enumerate(rounds[r % 3]):
            a, b = (3, 2) if (r + k) % 2 == 0 else (2, 3)
            print(f"{day},{season},{teams[i]},{teams[j]},neutral,{boxes[a]},{boxes[b]}")
LOG
tiny="--data tiny.csv --kind pythag"
refuse refuse-pythag-rank rank $tiny --hyper y=10000
refuse refuse-pythag-predict predict $tiny --pythag-y 10000 --team-first aa --team-second bb
refuse refuse-pythag-evaluate evaluate $tiny --hyper y=10000

for demo in "$src"/demos/*.py; do
    python3 "$demo" > "demo-$(basename "$demo" .py).txt"
done
