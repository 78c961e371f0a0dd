#!/usr/bin/env bash
# Capture the output of every CLI command on every bundled corpus file, the
# canonical text of each corpus file and both demos into OUTDIR, one file
# per run with its exit code appended (1033 files).
#
#     bash tools/capture_outputs.sh OUTDIR
#
# Run it at two commits and compare with `diff -r OUTDIR1 OUTDIR2`: an empty
# diff means the change left every verdict, residual string and rendering
# byte-identical.  The commands run from the root of the checkout that holds
# this script, against its `src/`.
set -u
if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
mkdir -p "$1"
d=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."

O=("" "--format machine" "--fail-fast" "--format machine --fail-fast")
C="anl assoc-novikov gd novikov-lie"
run() {
    k="$*"
    PYTHONPATH=src python3 -m confalg.cli "$@" > "$d/${k// /_}" 2>&1
    echo "exit $?" >> "$d/${k// /_}"
}
for f in avg_x3 circ0_sq cur_leib cur_lie fpoly fpoly_nonlie gd_final r00 rab star0_sq virasoro; do
    for c in "verify-conformal --kind leibniz" "verify-conformal --kind lie" \
            "verify-conformal --kind left-leibniz" \
            "check-structure --which t" "check-structure --which anl" \
            "check-structure --which symmetrized" \
            "check-structure --which star-zero" \
            "check-structure --which circ-zero" "check-structure --which gd" \
            "check-structure --which novikov" \
            "check-structure --which assoc-novikov" \
            "check-structure --which averaging" "classify-brackets" \
            $(for e in $C; do echo "central-ext_--case_$e"; done) \
            "coeff --grid -2..2 --verify" \
            $(for e in $C; do echo "coeff_--grid_-2..2_--phi_from-central-ext_--case_$e"; done); do
        for o in "${O[@]}"; do run ${c//_/ } $f $o; done
    done
    PYTHONPATH=src python3 -c "import sys; from confalg.dsl import parse_file; sys.stdout.write(parse_file('src/confalg/corpus/$f.alg').canonical_text())" > $d/canon_$f 2>&1
done
for a in "rab --at a=1,b=-2" "gd_final --at a=2"; do
    for c in "coeff --verify" "classify-brackets" \
            $(for e in $C; do echo "central-ext_--case_$e"; done); do
        for o in "${O[@]}"; do run ${c//_/ } $a $o; done
    done
done
for o in "${O[@]}"; do run examples $o; done
for p in demos/*.py; do
    PYTHONPATH=src python3 $p > $d/demo_${p#demos/} 2>&1
    echo "exit $?" >> $d/demo_${p#demos/}
done
