#!/bin/sh
# Kernel identity: are the wide frame loops of two builds the same code?
#
#   scripts/kernel_identity.sh <parent-binary> <change-binary>
#
# Disassembles both binaries, normalises every instantiation of
# `replay_ml_batched` / `replay_pull_batched` (addresses, symbol hashes,
# rip-relative operands and trailing alignment padding removed) and
# compares the two sets of bodies. Symbol hashes differ between checkouts,
# so instantiations are matched by body, not by name: a parent body that
# appears in the change is identical; the rest are paired by instruction
# count within their kind and listed with their instruction delta.
# Instantiations only the change has (a new mode) are counted as added.
#
# Exit status: 0 when every parent instantiation has an identical body in
# the change, 1 otherwise, 2 on usage errors. ROADMAP item 1 makes this an
# acceptance step: a PR that adds a mode to the wide loops runs it on the
# two `mltc-benchmark` binaries (verify skill: "To compare two commits").
set -eu

if [ "$#" -ne 2 ] || [ ! -r "$1" ] || [ ! -r "$2" ]; then
    echo "usage: $0 <parent-binary> <change-binary>" >&2
    exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
objdump -d --no-show-raw-insn "$1" >"$tmp/parent.s"
objdump -d --no-show-raw-insn "$2" >"$tmp/change.s"

python3 - "$tmp/parent.s" "$tmp/change.s" <<'EOF'
import collections
import re
import signal
import sys

signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # `| head` is not an error

KERNELS = ("replay_ml_batched", "replay_pull_batched")
HEAD = re.compile(r"^[0-9a-f]+ <(.+)>:$")
# Per-build symbol decoration: the legacy mangling's hash and the suffix
# thin LTO gives a promoted local symbol.
HASH = re.compile(r"17h[0-9a-f]{16}E|\.llvm\.[0-9]+")
PADDING = re.compile(r"^(nop|int3|xchg\s+%ax,%ax|(data16 |cs )*nopw?\b.*)$")


def kernels(path):
    """(kind, normalised body) of every wide-loop instantiation in `path`."""
    out, name, body = [], None, []

    def close():
        if name is None:
            return
        while body and PADDING.match(body[-1]):
            body.pop()
        kind = next(k for k in KERNELS if k in name)
        out.append((kind, tuple(body)))

    for line in open(path, errors="replace"):
        line = line.rstrip("\n")
        m = HEAD.match(line)
        if m:
            close()
            name = m.group(1) if any(k in m.group(1) for k in KERNELS) else None
            body = []
            continue
        if name is None or "\t" not in line:
            continue
        insn = line.split("\t", 1)[1].strip()
        insn = insn.split("#", 1)[0].rstrip()  # rip-relative target comment
        insn = re.sub(r"-?0x[0-9a-f]+\(%rip\)", "X(%rip)", insn)
        # Branch and call targets: keep `<symbol+offset>`, drop the address;
        # the function's own (hashed) name becomes `self`.
        insn = re.sub(r"\b[0-9a-f]+ <", "<", insn).replace(name, "self")
        body.append(HASH.sub("", insn))
    close()
    return out


parent, change = kernels(sys.argv[1]), kernels(sys.argv[2])
if not parent or not change:
    sys.exit("no replay_ml_batched/replay_pull_batched symbols found (stripped binary?)")

left = collections.Counter(change)
differing = []
for k in parent:
    if left[k] > 0:
        left[k] -= 1
    else:
        differing.append(k)
identical = len(parent) - len(differing)
unmatched = sorted((kind, len(body)) for (kind, body), n in left.items() for _ in range(n))

print(f"wide-loop instantiations: parent {len(parent)}, change {len(change)}")
print(f"identical to the parent's: {identical} of {len(parent)}")
print(f"differing: {len(differing)}")
for kind, body in sorted(differing, key=lambda k: (k[0], len(k[1]))):
    # Nearest unmatched change body of the same kind, by instruction count.
    near = min(
        (u for u in unmatched if u[0] == kind),
        key=lambda u: abs(u[1] - len(body)),
        default=None,
    )
    if near is None:
        print(f"  {kind}: {len(body)} instructions -> gone")
        continue
    unmatched.remove(near)
    print(f"  {kind}: {len(body)} -> {near[1]} instructions ({near[1] - len(body):+d})")
print(f"added by the change: {len(unmatched)}")
sys.exit(1 if differing else 0)
EOF
