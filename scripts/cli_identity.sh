#!/usr/bin/env bash
# Command-line identity: run every `tapo`, `repro` and `synthesize` call of
# .github/workflows/ci.yml and crates/core/tests/golden.rs, and the
# single-fault `tapo live` usage errors of crates/core/tests/cli.rs, with
# two sets of release binaries, and compare stdout, stderr, exit status and
# every file written (CSVs under --out, synthesized captures) byte for byte.
#
#   scripts/cli_identity.sh <parent-bin-dir> <change-bin-dir> <work-dir>
#
# Each side runs in its own directory under <work-dir> with the same
# relative paths, so path-derived daemon ids agree. Prints one line per
# differing file and exits 1 if any differs; the 55 calls take a few
# seconds per side on a 2-core machine.
set -uo pipefail

[ $# -eq 3 ] || { echo "usage: scripts/cli_identity.sh <parent-bin-dir> <change-bin-dir> <work-dir>" >&2; exit 2; }
golden=$(cd "$(dirname "$0")/../crates/core/tests/golden" && pwd)

calls() {
    local B=$1 n=0
    # t CMD...: stdout to N.out, stderr to N.err, exit status to N.status.
    t() { n=$((n + 1)); "$@" > $n.out 2> $n.err; echo $? > $n.status; }
    # tin FILE CMD...: the same with FILE on stdin.
    tin() { local f=$1; shift; n=$((n + 1)); "$@" < "$f" > $n.out 2> $n.err; echo $? > $n.status; }
    # tdd FILE CMD...: FILE on stdin through 97-byte writes.
    tdd() { local f=$1; shift; n=$((n + 1)); dd bs=97 < "$f" 2>/dev/null | "$@" > $n.out 2> $n.err; echo $? > $n.status; }

    # ci.yml, check job
    t $B/repro --quick --out validate validate
    t $B/repro --quick --threads 1 --out r1
    t $B/repro --quick --threads 4 --out r4
    t $B/synthesize mixed mixed.pcap --flows 120 --seed 7 --mean-gap-ms 5
    t $B/tapo live mixed.pcap --daemon-id d0 --shards 1 --max-flows 24
    t $B/tapo live mixed.pcap --daemon-id d0 --shards 2 --max-flows 24
    tin mixed.pcap $B/tapo live - --daemon-id d0 --shards 4 --max-flows 24
    t $B/tapo live mixed.pcap --daemon-id d0 --shards 1 --batch 1 --max-flows 24
    t $B/tapo live mixed.pcap --daemon-id d0 --shards 4 --batch 1 --max-flows 24
    tdd mixed.pcap $B/tapo live - --daemon-id d0 --shards 1 --max-flows 24
    tdd mixed.pcap $B/tapo live - --daemon-id d0 --shards 2 --max-flows 24
    t $B/tapo live mixed.pcap --daemon-id d0 --shards 1 --promote 3 --demote 64 --max-flows 100000
    cp $n.out tier1.out
    tin mixed.pcap $B/tapo live - --daemon-id d0 --shards 4 --promote 3 --demote 64 --max-flows 100000
    t $B/tapo advise tier1.out --flows 8 --replicates 2 --threads 1
    tin tier1.out $B/tapo advise - --flows 8 --replicates 2 --threads 4
    for i in 0 1 2; do
        t $B/synthesize mixed fe$i.pcap --flows 60 --seed $((21 + i)) --mean-gap-ms 5
        t $B/tapo live fe$i.pcap --daemon-id fe$i
        cp $n.out fe$i.jsonl
        sed 's/$/\r/' fe$i.jsonl > fe$i.crlf
    done
    head -c -1 fe2.jsonl > fe2.nofinal
    t $B/tapo fleet fe0.jsonl fe1.jsonl fe2.jsonl --threads 1
    t $B/tapo fleet fe2.jsonl fe0.jsonl fe1.jsonl --threads 4
    sort fe0.jsonl fe1.jsonl fe2.jsonl > fe.sorted
    tin fe.sorted $B/tapo fleet -
    t $B/tapo fleet fe0.crlf fe1.crlf fe2.crlf
    cat fe0.crlf fe1.crlf fe2.crlf > fe.crlf
    tin fe.crlf $B/tapo fleet -
    t $B/tapo fleet fe0.jsonl fe1.jsonl fe2.nofinal
    cat fe0.jsonl fe1.jsonl fe2.nofinal > fe.nofinal
    tin fe.nofinal $B/tapo fleet -
    # ci.yml, live-threads job
    t $B/synthesize mixed smoke.pcap --flows 400 --seed 11 --mean-gap-ms 2
    for b in 1 256; do
        for s in 1 2; do
            t $B/tapo live smoke.pcap --shards $s --batch $b --max-flows 96 --promote 3 --demote 64
        done
    done
    t $B/tapo live smoke.pcap --shards 1 --max-flows 96
    t $B/tapo live smoke.pcap --shards 2 --max-flows 96
    # golden.rs
    for cap in handmade.pcap handmade-swapped.pcap; do
        cp "$golden/$cap" .
        t $B/tapo live $cap --daemon-id golden
        t $B/tapo live $cap --daemon-id golden --promote 3
        t $B/tapo $cap --json
    done
    cp "$golden/live-promote.jsonl" .
    t $B/tapo fleet live-promote.jsonl
    sed 's/"443":/"8443":/g' live-promote.jsonl > advise.in
    tin advise.in $B/tapo advise - --flows 6 --replicates 3 --threads 1
    # crates/core/tests/cli.rs: one `tapo live` usage error per call
    for bad in "--shards 0" "--interval 0" "--mss 0" "--dupthres 0" "--promote 0" \
               "--batch 0" "--batch 65537" "--cells 0" "--cells 4097" "--daemon-id bad/id" \
               "--demote 5" "--heavy-max 5"; do
        tin /dev/null $B/tapo live - $bad
    done
}

work=$3
rm -rf "$work/parent" "$work/change"
mkdir -p "$work/parent" "$work/change"
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
(cd "$work/parent" && calls "$parent")
(cd "$work/change" && calls "$change")
if diff -rq "$work/parent" "$work/change"; then
    echo "identical: $(ls "$work/parent" | grep -c '\.status$') calls, $(find "$work/parent" -type f | wc -l) files"
else
    exit 1
fi
