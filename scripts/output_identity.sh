#!/usr/bin/env bash
# Byte-identity check of two built `afraid-cli` binaries.
#
# Runs PARENT and CHANGE on the same fixed battery and compares their
# stdout and exit status item by item: `chaos --json`, `integrity
# --secs 60 --json`, and fourteen `run --json --secs 300` flag sets
# covering the four fault-storm mixes, NVRAM failure under AFRAID and
# RAID 5, silent corruption alone, corruption with a disk loss, a
# degraded run and a spare, and every write mode: RAID 5 (clean-stripe
# read-modify-write against reconstruct-write), an MTTDL target (mode
# switches and stale stripes) and the conservative policy. Three more
# pin fail-stop loss reports: a disk lost during the NVRAM sweep,
# without and with the shadow model, and a latent sector loss.
# Sixteen items in all. Prints SAME or DIFF per item; a DIFF
# leaves both outputs in the work directory, whose path is printed.
# `paper all` is not in the battery: compare it against
# results/experiments-1800s.txt instead.
#
# Usage, from the repository root:
#
#   scripts/output_identity.sh PARENT_CLI CHANGE_CLI
#
# Build each binary from its own checkout, for example:
#
#   cargo build --release --offline --bin afraid-cli \
#       --target-dir /tmp/id-change
#
# Exits 1 on any DIFF, 2 on bad usage.
set -euo pipefail

usage() { sed -n '2,28p' "$0" | sed 's/^# \{0,1\}//'; exit 2; }

[[ $# -eq 2 ]] || usage
parent=$1 change=$2
for bin in "$parent" "$change"; do
    [[ -x $bin ]] || { echo "not an executable: $bin" >&2; exit 2; }
done

storm="--scrub 50 --latent 0.01 --tour 1800 --transient 1e-3:1e-4"
items=(
    "chaos --json --jobs 2"
    "integrity --secs 60 --json --jobs 2"
    "run --json --secs 300 --workload cello-news $storm --corrupt 1e-3 --verify-reads"
    "run --json --secs 300 --workload netware --policy raid5 $storm --corrupt 1e-3 --verify-reads"
    "run --json --secs 300 --workload att $storm --fail-disk 2@150 --degraded --spare 60"
    "run --json --secs 300 --workload as400-1 --policy raid5 $storm --fail-disk 2@150 --degraded --spare 60"
    "run --json --secs 300 --fail-nvram 100"
    "run --json --secs 300 --fail-nvram 100 --policy raid5"
    "run --json --secs 300 --corrupt 1e-3"
    "run --json --secs 300 --corrupt 1e-3 --workload att --fail-disk 1@200 --degraded --spare 20"
    "run --json --secs 300 --policy raid5"
    "run --json --secs 300 --workload cello-news --policy mttdl:1e8"
    "run --json --secs 300 --policy conservative:1048576"
    "run --json --secs 300 --fail-nvram 100 --fail-disk 2@120"
    "run --json --secs 300 --fail-nvram 100 --fail-disk 2@120 --corrupt 1e-3"
    "run --json --secs 300 --latent 5 --fail-disk 2@200"
)

work=$(mktemp -d)
diffs=0
for i in "${!items[@]}"; do
    item=${items[$i]}
    read -ra argv <<< "$item"
    for side in parent change; do
        bin=$parent
        [[ $side == change ]] && bin=$change
        status=0
        "$bin" "${argv[@]}" > "$work/$i.$side" 2>/dev/null || status=$?
        echo "exit $status" >> "$work/$i.$side"
    done
    if cmp -s "$work/$i.parent" "$work/$i.change"; then
        echo "SAME  $item"
    else
        echo "DIFF  $item"
        diffs=$((diffs + 1))
    fi
done
if [[ $diffs -gt 0 ]]; then
    echo "$diffs of ${#items[@]} items differ; outputs in $work"
    exit 1
fi
rm -r "$work"
echo "all ${#items[@]} items identical"
