#!/bin/sh
# Run the command line and the demos from one checkout, and keep every
# artifact and every stdout in OUT:
#
#   tools/artifacts.sh SRC OUT
#
# SRC is a checkout (the directory holding src/ and demos/).  Running this on
# two checkouts and then `diff -r OUT1 OUT2` checks that they write the same
# bytes.  Each command runs from inside OUT with relative paths, because every
# artifact echoes --data and --out.  It takes about half a minute.
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
for kind in pythag home_wins; do
    run "predict-$kind" predict $data --kind "$kind" $pair
    run "evaluate-$kind" evaluate $data --kind "$kind"
done
run rank-pythag rank $data --kind pythag
run rank-rpi rank $data --kind rpi
run ceiling glass-ceiling --n-teams 8 --games-per-team 6 --n-seasons 2 \
    --bayes-target 0.72 --kinds naive_bayes_kde,decision_tree,pythag,home_wins \
    --schemes adj_eff,raw --seed 2
for demo in "$src"/demos/*.py; do
    python3 "$demo" > "demo-$(basename "$demo" .py).txt"
done
