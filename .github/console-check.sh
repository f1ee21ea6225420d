#!/bin/sh
# The console script's end-to-end checks, run in the current directory,
# where they write their outputs.  $DWTCDMA names the command to run
# (default: the installed dwtcdma console script), so that a checkout
# without an installed package can run them too:
#
#     DWTCDMA="python -m dwtcdma.cli" PYTHONPATH=<repo>/src sh <repo>/.github/console-check.sh
#
# The script runs both self-checks (the saved output of `codes check`
# must hold 21 ok rows and no FAIL), dumps the closed-form Gold matrix of
# order 32 (32 rows, each 31 chips and the appended +), and runs four
# small sweeps, each serially and in two processes, which must agree byte
# for byte: a capped fig2 preset (the second run spells its bit budget in
# exponent form), which runs over haar only, and a grid of all four
# schemes over haar, db2 and bior22, so that freshly spawned workers take
# both the orthonormal shortcut and the Cholesky-factored channel, and
# both the two-bit quarter-turn count and the differential scan.  The
# grid's db2 rows must then equal its haar rows but for the wavelet
# column: over AWGN both banks are one channel, and a point's seed hashes
# its channel.  The same grid runs once more with --total-power, so that
# spawned workers must compute the same per-user SNR shift,
# snr_db - 10*log10(U), as the serial run.  Those grids cap every point
# at 2000 bits, one cut chunk, so the fourth runs points of up to
# 60,000 bits: a full chunk, its antithetic twin (the same payload and
# noise, negated) and a cut chunk.  It too runs haar, db2 and bior22, so
# that in the parallel run each db2 point copies the record that a
# worker simulated, over all those chunks, for its haar twin.  The
# script ends with one point written as --snr=-0, which must give the
# results.csv of --snr 0: -0 reads as 0, so both hash one seed and
# write one row.
set -eu
dwtcdma="${DWTCDMA:-dwtcdma}"

$dwtcdma --version
$dwtcdma codes check | tee codes-check.txt
test "$(grep -c '^ok ' codes-check.txt)" = 21
test "$(grep -c FAIL codes-check.txt)" = 0
$dwtcdma codes dump --family gold --sf 32 > gold32.txt
test "$(grep -c '^[+-]\{31\}+$' gold32.txt)" = 32
$dwtcdma fec verify
$dwtcdma sweep --preset fig2 --max-bits 2000 --jobs 1 --out serial
$dwtcdma sweep --preset fig2 --max-bits 2e3 --jobs 2 --out parallel
cmp serial/results.csv parallel/results.csv
grid="--snr 0:8:4 --scheme bpsk,qpsk,dbpsk,dqpsk --wavelet haar,db2,bior22 --users 1,7 --max-bits 2000"
$dwtcdma sweep $grid --jobs 1 --out grid-serial
$dwtcdma sweep $grid --jobs 2 --out grid-parallel
cmp grid-serial/results.csv grid-parallel/results.csv
$dwtcdma sweep $grid --total-power --jobs 1 --out total-serial
$dwtcdma sweep $grid --total-power --jobs 2 --out total-parallel
cmp total-serial/results.csv total-parallel/results.csv
multi="--snr 4,6 --scheme bpsk,dqpsk --wavelet haar,db2,bior22 --users 1,7 --max-bits 60000"
$dwtcdma sweep $multi --jobs 1 --out multi-serial
$dwtcdma sweep $multi --jobs 2 --out multi-parallel
cmp multi-serial/results.csv multi-parallel/results.csv
python -c "import csv; rows = list(csv.DictReader(open('grid-serial/results.csv'))); twin = lambda w: sorted([v for k, v in r.items() if k != 'wavelet'] for r in rows if r['wavelet'] == w); assert twin('db2') and twin('db2') == twin('haar'), 'db2 rows differ from haar rows'"
point="--family wh --coded uncoded --users 1 --max-bits 2000"
$dwtcdma sweep --snr=-0 $point --out snr-minus-zero
$dwtcdma sweep --snr 0 $point --out snr-zero
cmp snr-minus-zero/results.csv snr-zero/results.csv
